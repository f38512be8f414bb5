// StreamSession: one append-only stream driving both maintenance planes.
//
// Production monitoring (stream/streaming_monitor.h) answers "is the rule
// holding right now?" per tick; tableau maintenance (incr/incremental.h)
// answers "where does the rule hold / fail over everything seen so far?"
// per batch. A StreamSession owns one of each and feeds every observed
// batch to both, so the caller ingests counts exactly once:
//
//   auto session = StreamSession::Create(initial, request, stream_options);
//   session->monitor().OnEpisode(...);          // online alerting
//   const core::Tableau& t = session->ObserveBatch(a, b);  // per batch
//
// The monitor sees ticks in order (seeded with the initial series at
// Create); the discoverer sees the same ticks as one append per
// ObserveBatch. Their models may differ intentionally — the monitor's
// credit/debit variant is prefix-consistent (no future peeking), while the
// tableau is the batch-exact one over the full series; for the balance
// model the two planes agree tick for tick.

#ifndef CONSERVATION_INCR_STREAM_SESSION_H_
#define CONSERVATION_INCR_STREAM_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tableau.h"
#include "incr/incremental.h"
#include "series/sequence.h"
#include "stream/streaming_monitor.h"
#include "util/status.h"

namespace conservation::incr {

class StreamSession {
 public:
  // Validates `request` via IncrementalDiscoverer::Create, then seeds the
  // monitor with the initial series' ticks. The initial tableau is
  // available immediately.
  static util::Result<StreamSession> Create(
      const series::CountSequence& initial, const core::TableauRequest& request,
      const stream::StreamOptions& stream_options);

  StreamSession(StreamSession&&) = default;
  StreamSession& operator=(StreamSession&&) = default;

  // Ingests one batch: tick-by-tick into the monitor (episodes fire
  // in-line), one append into the discoverer. Returns the discoverer's
  // tableau: up to date, unless the discoverer defers its cover
  // (IncrementalDiscoverer::SetAppendOnly), in which case it is the last
  // refreshed snapshot until RefreshCover().
  const core::Tableau& ObserveBatch(const double* a, const double* b,
                                    int64_t m);
  const core::Tableau& ObserveBatch(const std::vector<double>& a,
                                    const std::vector<double>& b);

  const core::Tableau& tableau() const { return discoverer_->tableau(); }
  IncrementalDiscoverer& discoverer() { return *discoverer_; }
  const IncrementalDiscoverer& discoverer() const { return *discoverer_; }
  stream::StreamingMonitor& monitor() { return *monitor_; }
  const stream::StreamingMonitor& monitor() const { return *monitor_; }
  int64_t n() const { return discoverer_->n(); }

 private:
  StreamSession(IncrementalDiscoverer discoverer,
                const stream::StreamOptions& stream_options);

  // unique_ptr so the session stays movable without re-seeding state.
  std::unique_ptr<IncrementalDiscoverer> discoverer_;
  std::unique_ptr<stream::StreamingMonitor> monitor_;
};

}  // namespace conservation::incr

#endif  // CONSERVATION_INCR_STREAM_SESSION_H_
