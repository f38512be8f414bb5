// Greedy PARTIAL SET COVER for intervals — phase 2 of tableau discovery.
//
// Given candidate intervals over the tick universe {1..n} and a support
// requirement s_hat, choose a subcollection whose union covers at least
// ceil(s_hat * n) ticks, greedily picking at each step the interval covering
// the most not-yet-covered ticks (the algorithm of Golab et al., PVLDB'09
// [12], which the paper reuses unchanged). Greedy partial set cover yields a
// tableau at most a small constant factor larger than optimal.
//
// Implementation: LAZY greedy (CELF-style). Marginal coverage is monotone
// non-increasing as the covered set grows, so a max-heap of cached gains
// stays sound even when entries go stale: the popped top is re-evaluated,
// and only if its cached gain is still current is it the true argmax —
// otherwise it is pushed back with the refreshed (smaller) gain. This
// removes the per-round O(n + k) rescan of the original implementation:
//   - marginal gains are O(log n) point queries against a Fenwick tree over
//     the covered indicator,
//   - marking a chosen interval walks a "next-uncovered" skip-pointer array
//     (union-find with path halving), so the total marking cost across all
//     picks is O(n alpha(n)) instead of O(total chosen length),
//   - the initial k gains are seeded in parallel on the shared ThreadPool
//     (CoverOptions::num_threads; the heap itself is built sequentially).
// The chosen set is bit-identical to the naive rescan for both tie-break
// modes (tests/reference_cover.h keeps the naive code as the differential
// oracle). Complexity: O(k + n alpha(n) + (rounds + stale) log k) pops plus
// O((k + newly covered) log n) Fenwick traffic, vs O(rounds * (n + k)).

#ifndef CONSERVATION_COVER_PARTIAL_SET_COVER_H_
#define CONSERVATION_COVER_PARTIAL_SET_COVER_H_

#include <cstdint>
#include <vector>

#include "interval/interval.h"

namespace conservation::cover {

// Observability for one cover run. Pure diagnostics: none of these feed
// back into the algorithm. Counter fields are deterministic for a given
// input; the timing fields vary run to run.
struct CoverStats {
  // Greedy rounds = number of chosen intervals.
  int64_t rounds = 0;
  // Heap pops during selection (>= rounds; the excess is retired
  // zero-gain entries plus stale re-evaluations).
  int64_t heap_pops = 0;
  // Pops whose cached gain had decayed and were re-pushed with the
  // refreshed gain (the CELF "lazy" work).
  int64_t stale_reevaluations = 0;
  // Skip-pointer advances while marking chosen intervals. Bounded by
  // O((n + rounds) alpha(n)) — NOT by the total chosen length; asserted in
  // tests/cover_lazy_differential_test.cc on nested adversarial inputs.
  int64_t tick_visits = 0;
  // Heap size high-water mark (== k after seeding; re-pushes never grow it).
  int64_t peak_heap_size = 0;
  // Wall time of the parallel gain seeding (heap build included).
  double seed_seconds = 0.0;
  // Wall time of the pop/re-evaluate/mark selection loop.
  double select_seconds = 0.0;
};

struct CoverResult {
  // Chosen intervals, sorted by position (the canonical tableau order).
  std::vector<interval::Interval> chosen;
  // For each chosen[r], the index into the input `candidates` it came from
  // (lets callers join chosen intervals back to per-candidate metadata,
  // e.g. the confidences carried out of generation).
  std::vector<size_t> chosen_indices;
  // Ticks covered by the chosen union.
  int64_t covered = 0;
  // Ticks required: ceil(s_hat * n).
  int64_t required = 0;
  // False when even the union of all candidates cannot reach `required`;
  // `chosen` then covers as much as the candidates allow.
  bool satisfied = false;
  CoverStats stats;
};

struct CoverOptions {
  // Fraction of {1..n} that must be covered, in [0, 1].
  double s_hat = 1.0;
  // When true (default), ties on marginal coverage are broken toward the
  // earliest-starting interval, making results deterministic and stable.
  bool deterministic_tie_break = true;
  // Threads for seeding the initial gains (1 = sequential, 0 = hardware
  // concurrency). The chosen set is identical for every setting.
  int num_threads = 1;
};

// Covered-tick bookkeeping for greedy interval cover over {1..n}. A
// Fenwick (binary indexed) tree over the covered indicator turns an
// interval's marginal gain into two O(log n) prefix lookups. Marking walks a
// next-uncovered skip-pointer array (union-find with path halving; n + 1 is
// the self-looping "past the end" sentinel), so each tick is visited
// O(alpha(n)) amortized across ALL marks instead of once per covering pick.
// GreedyPartialSetCover and the incremental engine's warm cover
// (incr/incremental.h) both run on it, so their gains match bit for bit.
class CoverageTracker {
 public:
  explicit CoverageTracker(int64_t n);

  // Ticks of `iv` not yet covered. Read-only: safe to call concurrently.
  int64_t Gain(const interval::Interval& iv) const {
    return iv.length() - (Covered(iv.end) - Covered(iv.begin - 1));
  }

  // Covers every tick of `iv`; returns how many were newly covered.
  int64_t Mark(const interval::Interval& iv);

  // Skip-pointer advances made by Mark so far (CoverStats::tick_visits).
  int64_t tick_visits() const { return tick_visits_; }

 private:
  // Covered ticks in [1, t].
  int64_t Covered(int64_t t) const {
    int64_t sum = 0;
    for (; t > 0; t -= t & -t) sum += tree_[static_cast<size_t>(t)];
    return sum;
  }

  // Smallest uncovered tick >= t (n + 1 when none).
  int64_t FindUncovered(int64_t t);

  int64_t n_;
  std::vector<int64_t> tree_;
  std::vector<int64_t> next_uncovered_;
  int64_t tick_visits_ = 0;
};

// Runs greedy partial set cover over `candidates` on the universe {1..n}.
// Candidates must satisfy 1 <= begin <= end <= n.
CoverResult GreedyPartialSetCover(const std::vector<interval::Interval>& candidates,
                                  int64_t n, const CoverOptions& options);

}  // namespace conservation::cover

#endif  // CONSERVATION_COVER_PARTIAL_SET_COVER_H_
