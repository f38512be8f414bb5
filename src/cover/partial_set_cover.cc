#include "cover/partial_set_cover.h"

#include <algorithm>
#include <cmath>

#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace conservation::cover {

namespace {

// Registry mirror of CoverStats (which stays the API-stable per-run view);
// these counters accumulate across runs. Batch-published after selection.
struct CoverMetrics {
  obs::Counter& rounds;
  obs::Counter& heap_pops;
  obs::Counter& stale_reevaluations;
  obs::Counter& tick_visits;
  obs::Histogram& seed_seconds;
  obs::Histogram& select_seconds;
  // Labeled mirror of the two phase histograms under one family
  // ("cover.phase_seconds"), so the scrape side can select on
  // {phase="seed"|"select"} like the other phase families.
  obs::Histogram& seed_phase;
  obs::Histogram& select_phase;

  static CoverMetrics& Get() {
    static CoverMetrics* metrics = [] {
      obs::Registry& registry = obs::Registry::Global();
      const std::vector<double> bounds = {1e-5, 1e-4, 1e-3, 1e-2,
                                          0.1,  1.0,  10.0};
      obs::HistogramFamily& phases =
          obs::LabeledHistogram("cover.phase_seconds", bounds);
      return new CoverMetrics{registry.Counter("cover.rounds"),
                              registry.Counter("cover.heap_pops"),
                              registry.Counter("cover.stale_reevaluations"),
                              registry.Counter("cover.tick_visits"),
                              registry.Histogram("cover.seed_seconds", bounds),
                              registry.Histogram("cover.select_seconds",
                                                 bounds),
                              phases.With({{"phase", "seed"}}),
                              phases.With({{"phase", "select"}})};
    }();
    return *metrics;
  }
};

struct HeapEntry {
  // Cached marginal gain: an upper bound on the true gain (coverage only
  // grows, so gains only decay after caching).
  int64_t gain = 0;
  size_t index = 0;
};

// "Worse-than" order for std::push_heap/pop_heap: the popped top must be
// the interval the naive linear scan would have selected, i.e. the argmax
// under (gain desc, ByPosition asc when deterministic, input index asc).
// The index component reproduces the scan's first-hit-wins behaviour for
// duplicate intervals (deterministic mode) and for equal gains
// (non-deterministic mode).
struct WorseThan {
  const std::vector<interval::Interval>* candidates;
  bool deterministic;

  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (deterministic) {
      const interval::Interval& ia = (*candidates)[a.index];
      const interval::Interval& ib = (*candidates)[b.index];
      if (ia != ib) return interval::ByPosition(ib, ia);
    }
    return a.index > b.index;
  }
};

}  // namespace

CoverageTracker::CoverageTracker(int64_t n)
    : n_(n),
      tree_(static_cast<size_t>(n) + 1, 0),
      next_uncovered_(static_cast<size_t>(n) + 2) {
  for (size_t t = 0; t < next_uncovered_.size(); ++t) {
    next_uncovered_[t] = static_cast<int64_t>(t);
  }
}

int64_t CoverageTracker::FindUncovered(int64_t t) {
  while (next_uncovered_[static_cast<size_t>(t)] != t) {
    ++tick_visits_;
    next_uncovered_[static_cast<size_t>(t)] =
        next_uncovered_[static_cast<size_t>(
            next_uncovered_[static_cast<size_t>(t)])];
    t = next_uncovered_[static_cast<size_t>(t)];
  }
  return t;
}

int64_t CoverageTracker::Mark(const interval::Interval& iv) {
  int64_t marked = 0;
  for (int64_t t = FindUncovered(iv.begin); t <= iv.end;
       t = FindUncovered(t + 1)) {
    for (int64_t u = t; u <= n_; u += u & -u) ++tree_[static_cast<size_t>(u)];
    next_uncovered_[static_cast<size_t>(t)] = t + 1;
    ++marked;
  }
  return marked;
}

CoverResult GreedyPartialSetCover(
    const std::vector<interval::Interval>& candidates, int64_t n,
    const CoverOptions& options) {
  CR_CHECK(n >= 1);
  CR_CHECK(options.s_hat >= 0.0 && options.s_hat <= 1.0);
  for (const interval::Interval& iv : candidates) {
    CR_CHECK(iv.begin >= 1 && iv.begin <= iv.end && iv.end <= n);
  }

  CoverResult result;
  result.required = static_cast<int64_t>(
      std::ceil(options.s_hat * static_cast<double>(n)));
  if (result.required <= 0 || candidates.empty()) {
    result.satisfied = result.covered >= result.required;
    return result;
  }

  CoverageTracker coverage(n);
  CoverStats& stats = result.stats;

  // Seed the initial gains in parallel (read-only Fenwick queries into
  // disjoint slots), then heapify once. With nothing covered yet every gain
  // equals the interval length, but routing through the tracker keeps the
  // seeding correct for any future warm-start coverage.
  util::Stopwatch seed_timer;
  std::vector<HeapEntry> heap(candidates.size());
  const WorseThan worse{&candidates, options.deterministic_tie_break};
  {
    CR_TRACE_SPAN_ARGS("cover.seed", "k",
                       static_cast<int64_t>(candidates.size()));
    util::ParallelFor(
        static_cast<int64_t>(candidates.size()), options.num_threads,
        [&heap, &coverage, &candidates](int64_t k) {
          heap[static_cast<size_t>(k)] =
              HeapEntry{coverage.Gain(candidates[static_cast<size_t>(k)]),
                        static_cast<size_t>(k)};
        });
    std::make_heap(heap.begin(), heap.end(), worse);
  }
  stats.seed_seconds = seed_timer.ElapsedSeconds();
  stats.peak_heap_size = static_cast<int64_t>(heap.size());

  // Span ends at function exit; the post-loop result assembly it also
  // covers is O(rounds log rounds) — noise next to the selection loop.
  CR_TRACE_SPAN_ARGS("cover.select", "required", result.required);
  util::Stopwatch select_timer;
  std::vector<size_t> picked;
  while (result.covered < result.required && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    const HeapEntry top = heap.back();
    heap.pop_back();
    ++stats.heap_pops;
    // High-volume: emitted only at --trace_verbosity=2.
    CR_TRACE_INSTANT_V2("cover.heap_pop");

    const int64_t gain = coverage.Gain(candidates[top.index]);
    CR_CHECK(gain <= top.gain);  // gains are monotone non-increasing
    if (gain <= 0) continue;     // fully covered by earlier picks; retire
    if (gain < top.gain) {
      // Stale cache: refresh and re-insert. Correct because every cached
      // gain is an upper bound — when the top's cache IS current, no entry
      // below it can beat it (anything with a higher true gain would have a
      // higher cached gain and sit above the top).
      ++stats.stale_reevaluations;
      heap.push_back(HeapEntry{gain, top.index});
      std::push_heap(heap.begin(), heap.end(), worse);
      continue;
    }

    ++stats.rounds;
    picked.push_back(top.index);
    result.covered += coverage.Mark(candidates[top.index]);
  }
  stats.tick_visits = coverage.tick_visits();
  stats.select_seconds = select_timer.ElapsedSeconds();

  // Mirror the per-run CoverStats into the process-wide registry (one
  // batched add per counter; the selection loop itself stays untouched).
  CoverMetrics& metrics = CoverMetrics::Get();
  metrics.rounds.Add(static_cast<uint64_t>(stats.rounds));
  metrics.heap_pops.Add(static_cast<uint64_t>(stats.heap_pops));
  metrics.stale_reevaluations.Add(
      static_cast<uint64_t>(stats.stale_reevaluations));
  metrics.tick_visits.Add(static_cast<uint64_t>(stats.tick_visits));
  metrics.seed_seconds.Record(stats.seed_seconds);
  metrics.select_seconds.Record(stats.select_seconds);
  metrics.seed_phase.Record(stats.seed_seconds);
  metrics.select_phase.Record(stats.select_seconds);

  result.satisfied = result.covered >= result.required;
  // Chosen intervals are pairwise distinct (a duplicate of a pick never has
  // positive gain again), so ByPosition totally orders them.
  std::sort(picked.begin(), picked.end(), [&candidates](size_t a, size_t b) {
    return interval::ByPosition(candidates[a], candidates[b]);
  });
  result.chosen.reserve(picked.size());
  result.chosen_indices.reserve(picked.size());
  for (const size_t index : picked) {
    result.chosen.push_back(candidates[index]);
    result.chosen_indices.push_back(index);
  }
  return result;
}

}  // namespace conservation::cover
