// IncrementalDiscoverer: tableau maintenance for append-only streams.
//
// DiscoverTableau (core/tableau.h) recomputes generation + cover from
// scratch; for an append-only series that repeats almost all of its work
// every batch. This engine maintains the candidate set across AppendBatch
// calls in amortized o(full-run) generation time by exploiting how the
// generators' per-anchor tests behave under extension n -> n' (DESIGN.md
// §4g), then re-runs only the cover:
//
//   * Every generator emits at most one candidate per anchor, so a
//     per-anchor candidate store is a complete representation of the
//     candidate set, and candidates have pairwise-distinct positions.
//   * A breakpoint strictly below the old n is SETTLED forever (the
//     sparsification area is nondecreasing in j, so area(t+1) > T
//     persists); one at the old n may extend. Settled confidence tests fold
//     into a per-anchor (best_j, best_conf) pair once; a search that sits
//     at n parks the anchor and is re-run each batch, one probe while it
//     stays parked. AB-opt advances the generator's own walk
//     (interval::internal::AbOptWalk); AB runs its level ladder here, from
//     the parked or first unreached level, and folds through the same walk.
//     Exhaustive tests settle at once, so its fold is the stored candidate.
//   * NAB/NAB-opt candidates for old right anchors are exactly unchanged
//     (their length schedule prefix and left-anchor probes are independent
//     of n), so only the m new anchors walk at all.
//   * The cover is NOT incremental: every batch hands the live candidates
//     of the store to cover::GreedyPartialSetCover, the same call
//     DiscoverTableau makes. Candidates are pairwise distinct, so the
//     cover's (gain desc, ByPosition asc) order is strict and its picks do
//     not depend on input order; the rows are therefore the rows a fresh
//     run picks from the same candidate set.
//
// Exactness contract: after every AppendBatch the maintained tableau is
// bit-identical to DiscoverTableau over the full series in the fields
// (rows, covered, required, support_satisfied, num_candidates).
// generation_stats / cover_stats / timings describe execution shape and are
// excluded. tests/incr_differential_test.cc enforces the contract across
// all five generators, models, tableau types, batch patterns, fresh-side
// thread counts and largest-first early exit.
//
// Correct-by-reset escape hatches (rare, counted in incr.* metrics):
//   * Delta (the area base unit) decreasing re-levels every AB/AB-opt
//     threshold ladder -> full per-anchor state rebuild (exhaustive and NAB
//     are Delta-independent).
//   * A credit/debit-model append can change SuffixMinGap(i) for old
//     anchors i >= first_changed_s; those anchors' baselines moved, so they
//     reset to fresh and re-walk (the balance model never dirties).
//
// Scope: sequential execution (the fresh side may use any thread count —
// candidates are bit-identical by that knob's contract); stop_on_full_cover
// is rejected (its emitted set depends on visit order, which incremental
// maintenance cannot reproduce). The engine assumes B dominates A (paper
// §II; run series preprocessing first), which makes the sparsification
// areas monotone, as the generators' endpoint searches already assume.

#ifndef CONSERVATION_INCR_INCREMENTAL_H_
#define CONSERVATION_INCR_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "interval/area_based_opt.h"
#include "interval/generator.h"
#include "interval/interval.h"
#include "series/cumulative.h"
#include "series/sequence.h"
#include "util/status.h"

namespace conservation::incr {

// Cumulative counters for one discoverer (docs/OBSERVABILITY.md incr.*;
// the registry mirrors accumulate across discoverers).
struct IncrStats {
  // AppendBatch calls processed (the initial Create batch included).
  int64_t batches = 0;
  // Anchors whose stored candidate (validity or interval) changed this
  // lifetime.
  int64_t candidates_extended = 0;
  // cover.heap_pops of the shared cover, summed over every batch's cover
  // (the name predates the shared cover and is kept for its readers).
  int64_t cover_warm_pops = 0;
  // Whole-state resets (Delta decreased under kMinPositiveCount).
  int64_t full_rebuilds = 0;
  // Old anchors re-walked because their SuffixMinGap changed (credit/debit).
  int64_t dirty_anchors = 0;
};

class IncrementalDiscoverer {
 public:
  // Validates the request exactly like DiscoverTableau (plus: rejects
  // stop_on_full_cover), then processes `initial` as the first batch. The
  // tableau is available immediately after Create.
  static util::Result<IncrementalDiscoverer> Create(
      const series::CountSequence& initial, const core::TableauRequest& request);

  IncrementalDiscoverer(IncrementalDiscoverer&&) = default;
  IncrementalDiscoverer& operator=(IncrementalDiscoverer&&) = default;

  // Appends m ticks (a[k], b[k] >= 0) and brings the tableau up to date.
  // Returns the maintained tableau (also available via tableau()).
  const core::Tableau& AppendBatch(const double* a, const double* b,
                                   int64_t m);
  const core::Tableau& AppendBatch(const std::vector<double>& a,
                                   const std::vector<double>& b);

  const core::Tableau& tableau() const { return tableau_; }
  const series::CumulativeSeries& series() const { return *series_; }
  const core::TableauRequest& request() const { return request_; }
  int64_t n() const { return series_->n(); }
  const IncrStats& stats() const { return stats_; }

 private:
  // Per-anchor resume state for the area-based level ladder: the level the
  // anchor is parked on, or the first level it has not reached yet, and
  // the fold of its settled breakpoints' confidence tests.
  struct AbState {
    uint32_t level = 0;
    int64_t best_j = 0;
    double best_conf = 0.0;
  };

  IncrementalDiscoverer(const series::CountSequence& initial,
                        const core::TableauRequest& request);

  // One maintenance pass over the append described by `delta` (for the
  // Create batch, old_n == 0 and every anchor is new).
  void ProcessBatch(const series::CumulativeSeries::AppendResult& delta);

  void ResetAllAnchorStates();
  void GrowStateArrays(int64_t n);

  // Per-algorithm delta generation. Each updates the candidate store for
  // the anchors it touches and records changes via UpdateCandidate.
  void ProcessAreaBased(const series::CumulativeSeries::AppendResult& delta,
                        int64_t dirty_begin);
  void ProcessAreaBasedOpt(
      const series::CumulativeSeries::AppendResult& delta,
      int64_t dirty_begin);
  void ProcessExhaustive(const series::CumulativeSeries::AppendResult& delta,
                         int64_t dirty_begin);
  void ProcessNonAreaBased(
      const series::CumulativeSeries::AppendResult& delta);

  // Stores anchor's candidate for this batch: `other` is the interval end
  // that is not the anchor, 0 for no candidate.
  void UpdateCandidate(int64_t anchor, int64_t other, double conf);

  // Runs the shared cover over the live candidates and rebuilds tableau_.
  void RunCover();

  core::TableauRequest request_;
  interval::GeneratorOptions gen_options_;  // request mirror, sequential
  // Held by pointer: eval_ keeps the series address, which must survive
  // moves of the discoverer.
  std::unique_ptr<series::CumulativeSeries> series_;
  std::unique_ptr<core::ConfidenceEvaluator> eval_;

  double prev_delta_ = 0.0;
  bool fail_type_ = false;

  // 1-based per-anchor state (index 0 unused); only the request's
  // algorithm's vector is populated. Exhaustive and NAB keep none: their
  // resume state is the candidate store.
  std::vector<AbState> ab_;
  std::vector<interval::internal::AbOptState> abopt_;
  // The breakpoint list AB and AB-opt fold. Kept across batches: scratch
  // allocated per batch slowed serving's apply (perfbench serve_fresh).
  interval::internal::AbOptScratch abopt_scratch_;

  // 1-based per-anchor candidate store. For left-anchored algorithms the
  // anchor is the interval begin and cand_other_ its end; for NAB the
  // anchor is the end and cand_other_ its begin. 0 means no candidate.
  std::vector<int64_t> cand_other_;
  std::vector<double> cand_conf_;

  core::Tableau tableau_;
  IncrStats stats_;
};

}  // namespace conservation::incr

#endif  // CONSERVATION_INCR_INCREMENTAL_H_
