// TenantRegistry: per-tenant stream state for the serving daemon.
//
// Each tenant is one (a,b) count-pair stream identified by a u64 id. The
// registry owns, per tenant:
//
//   * the canonical raw append log (every tick ever accepted, post
//     dominance filtering) — the source of truth a hot session is
//     (re)constructed from;
//   * an online dominance filter mirroring series::EnforceDominance
//     bitwise, so arbitrary client counts become a valid B-dominates-A
//     stream before they ever reach the discoverer (the incremental
//     engine's soundness assumption, incr/incremental.h);
//   * the pending queue: accepted-but-unapplied ticks awaiting a
//     scheduler dispatch;
//   * the HOT state, when resident: a StreamSession (incremental
//     discoverer + streaming monitor) over the full raw log, running in
//     append-only mode so the batches one dispatch applies defer their
//     cover work to one RefreshCover at the end of that dispatch;
//   * the COLD state, after eviction: no session, only the raw log and
//     the dominance filter. Fault-up rebuilds the session from the raw
//     log; by the incremental engine's exactness contract the refreshed
//     tableau after re-fault is bit-identical to one maintained hot the
//     whole time.
//
// Thread-safety: NONE — the registry is a plain data structure. The daemon
// (serve/daemon.h) serializes all access under its own mutex and uses the
// in_flight flag to pin a tenant while a dispatched batch runs outside the
// lock (ApplyBatch, then RefreshCover). Eviction skips in-flight tenants
// for the same reason.

#ifndef CONSERVATION_SERVE_TENANT_REGISTRY_H_
#define CONSERVATION_SERVE_TENANT_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/tableau.h"
#include "incr/stream_session.h"
#include "stream/streaming_monitor.h"
#include "util/status.h"

namespace conservation::serve {

// Admission check on a batch of counts. The session's arithmetic assumes
// every count is finite and non-negative: a NaN or infinite count poisons
// the dominance filter's running totals (every later tick would filter to
// b = 0 and abort the streaming monitor), and a negative one breaks
// dominance filtering. All of `a` is checked before any of `b`.
enum class CountCheck { kValid, kNonFinite, kNegative };
CountCheck CheckCounts(const double* a, const double* b, int64_t m);

// Streaming mirror of series::EnforceDominance: feeding ticks one at a
// time produces exactly the batch function's outputs (same carried
// cumulative state, same min/max/rounding guards), so a tenant's filtered
// log is independent of how its appends were batched.
class DominanceFilter {
 public:
  // Filters one raw tick in place.
  void Apply(double* a, double* b) {
    raw_a_cum_ += *a;
    raw_b_cum_ += *b;
    const double a_cum = raw_a_cum_ < raw_b_cum_ ? raw_a_cum_ : raw_b_cum_;
    const double b_cum = raw_a_cum_ < raw_b_cum_ ? raw_b_cum_ : raw_a_cum_;
    const double da = a_cum - prev_a_cum_;
    const double db = b_cum - prev_b_cum_;
    *a = da > 0.0 ? da : 0.0;
    *b = db > 0.0 ? db : 0.0;
    prev_a_cum_ = a_cum;
    prev_b_cum_ = b_cum;
  }

  bool operator==(const DominanceFilter&) const = default;

 private:
  double prev_a_cum_ = 0.0;
  double prev_b_cum_ = 0.0;
  double raw_a_cum_ = 0.0;
  double raw_b_cum_ = 0.0;
};

struct TenantConfig {
  // Tableau request shared by every tenant (per-tenant requests are a
  // non-goal: a fleet monitors one rule family). It must pass
  // core::ValidateTableauRequest, and stop_on_full_cover must be false
  // (incremental engine restriction); the registry checks both when it is
  // constructed.
  core::TableauRequest request;
  stream::StreamOptions stream;
  // Unread: sessions always defer their cover to RefreshCover
  // (incr/incremental.h SetAppendOnly). Like GeneratorStats::anchors_pruned
  // and LaneOccupancy() (interval/generator.h), it stays only because the
  // frozen benchmark harness (perfbench/perfbench.cc) assigns it.
  bool append_only = true;
  // Label each tenant's monitor metrics ({tenant=...} children). Off by
  // default: past the 64-labelset family cap every extra tenant funnels
  // into the overflow child, which is noise at fleet scale.
  bool label_tenants = false;
  // Hot-tenant bound: after a dispatch completes, if more than this many
  // tenants hold live sessions the least-recently-dispatched idle ones are
  // evicted (their sessions dropped). 0 = unbounded.
  int64_t max_hot = 0;
};

struct Tenant {
  uint64_t id = 0;

  // Canonical post-filter append log. Kept even while hot: the cumulative
  // columns inside the session cannot reconstruct the exact count vectors
  // (subtraction reintroduces rounding), and fault-up needs them.
  std::vector<double> log_a;
  std::vector<double> log_b;
  DominanceFilter filter;

  // Accepted ticks not yet applied to the session.
  std::vector<double> pend_a;
  std::vector<double> pend_b;

  // Hot state; null while cold or before the first valid prefix (a
  // session needs a CountSequence, which rejects all-zero inputs — such
  // tenants stay pending-only until a nonzero tick arrives).
  std::unique_ptr<incr::StreamSession> session;

  // Scheduler bookkeeping (owned by the daemon, stored here for eviction
  // ordering): set while a dispatched batch for this tenant runs outside
  // the registry lock.
  bool in_flight = false;
  // Monotone dispatch clock position of the last dispatch (LRU key).
  uint64_t last_dispatch_seq = 0;

  int64_t applied_ticks() const {
    return static_cast<int64_t>(log_a.size() - pend_a.size());
  }
};

class TenantRegistry {
 public:
  explicit TenantRegistry(const TenantConfig& config);

  // Looks up or creates the tenant.
  Tenant& GetOrCreate(uint64_t id);
  Tenant* Find(uint64_t id);

  // Filters and appends m raw ticks to the tenant's log + pending queue.
  // The whole batch is validated first (CheckCounts): a batch holding any
  // NaN, infinite or negative count returns InvalidArgument and leaves the
  // filter, the log and the queue untouched.
  util::Status Enqueue(Tenant& tenant, const double* a, const double* b,
                       int64_t m);

  // Dispatch is split so the expensive half can run outside the daemon's
  // mutex while readers keep appending to the same tenant:
  //
  //   * PrepareDispatch (call LOCKED) snapshots the work — swaps the
  //     pending ticks into *a/*b, or, when the tenant has no session yet,
  //     copies the full raw log (the session's initial batch subsumes the
  //     pending ticks) and sets *fault. Clears the pending queue; returns
  //     the number of pending ticks consumed.
  //   * ApplyBatch (call UNLOCKED, tenant pinned via in_flight) feeds the
  //     snapshot to the session, creating it first on the fault path. Only
  //     tenant.session is touched — a field readers never access. The
  //     cover stays stale until RefreshCover.
  int64_t PrepareDispatch(Tenant& tenant, std::vector<double>* a,
                          std::vector<double>* b, bool* fault);
  void ApplyBatch(Tenant& tenant, bool fault, const std::vector<double>& a,
                  const std::vector<double>& b);

  // Convenience for single-threaded callers (tests): Prepare + Apply.
  int64_t ApplyPending(Tenant& tenant);

  // Refreshes the deferred cover of a hot tenant whose discoverer reports
  // cover_stale(); no-op otherwise. Call unlocked with the tenant pinned.
  // Returns true when a refresh ran.
  bool RefreshCover(Tenant& tenant);

  // Demotes the tenant to cold: drops the session (the raw log stays for
  // fault-up, which rebuilds the tableau). Call unlocked with the tenant
  // pinned; ticks that arrive during the eviction stay pending and fault
  // the tenant right back up on their dispatch.
  void Evict(Tenant& tenant);

  // Ids of hot, idle (not in_flight, no pending) tenants ordered by
  // last_dispatch_seq ascending — the eviction scan's candidate order.
  std::vector<uint64_t> HotIdleByLru() const;

  const TenantConfig& config() const { return config_; }
  int64_t size() const { return static_cast<int64_t>(tenants_.size()); }
  // Atomics: bumped by ApplyBatch/Evict, which run outside the daemon
  // mutex.
  int64_t hot_count() const {
    return hot_count_.load(std::memory_order_relaxed);
  }
  int64_t faults() const { return faults_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  // Iteration for drain checks.
  std::unordered_map<uint64_t, std::unique_ptr<Tenant>>& tenants() {
    return tenants_;
  }

 private:
  // (Re)creates tenant.session from a raw-log snapshot. Returns false when
  // the snapshot is not yet a valid CountSequence (all-zero so far).
  bool FaultUp(Tenant& tenant, const std::vector<double>& a,
               const std::vector<double>& b);

  TenantConfig config_;
  std::unordered_map<uint64_t, std::unique_ptr<Tenant>> tenants_;
  std::atomic<int64_t> hot_count_{0};
  std::atomic<int64_t> faults_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace conservation::serve

#endif  // CONSERVATION_SERVE_TENANT_REGISTRY_H_
