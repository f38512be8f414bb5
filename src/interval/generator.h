// Candidate interval generation — phase 1 of TABLEAU DISCOVERY (paper §III).
//
// The CANDIDATE INTERVAL GENERATION PROBLEM (Definition 5): for each anchor,
// find the longest interval satisfying the confidence predicate
//   hold: conf(I) >= c_hat        fail: conf(I) <= c_hat.
// The exhaustive generator solves it exactly in Theta(n^2). The approximate
// generators trade the threshold for speed: they return, per anchor, the
// longest tested interval with
//   hold: conf(I) >= c_hat / (1 + epsilon)
//   fail: conf(I) <= c_hat * (1 + epsilon)
// and guarantee (Theorems 2, 3, 6, 8, 9) that the returned interval is at
// least as long as the exact per-anchor optimum, so no optimal tableau
// interval is missed ("no false negatives").

#ifndef CONSERVATION_INTERVAL_GENERATOR_H_
#define CONSERVATION_INTERVAL_GENERATOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/confidence.h"
#include "core/model.h"
#include "interval/interval.h"

namespace conservation::interval {

enum class AlgorithmKind {
  // Tests all Theta(n^2) intervals; exact, no epsilon relaxation.
  kExhaustive,
  // Area-based (AB, paper §III): anchored at left endpoints, sparse right
  // endpoints chosen by geometric growth of area_B (hold) / area_A (fail).
  // Supports all three models. O((n/eps) * log(area/Delta)).
  kAreaBased,
  // AB-opt (paper §VI): like AB, but endpoints found by per-anchor binary
  // search so that consecutive tested areas differ by a factor ~(1+eps),
  // eliminating duplicate tests at the cost of a log factor per step.
  kAreaBasedOpt,
  // Non-area-based (NAB, paper §V): anchored at right endpoints, sparse left
  // endpoints chosen by geometric growth of interval *length*; running time
  // independent of the area under the curves. Balance model only.
  kNonAreaBased,
  // NAB-opt (paper §VI): NAB with the recursive length schedule
  // len := min(len + 1, floor((1+eps) * len)), which skips the duplicate
  // lengths that plain NAB tests when (1+eps)^h grows slower than 1 per step.
  kNonAreaBasedOpt,
};

const char* AlgorithmKindName(AlgorithmKind kind);

// The paper's theory sets Delta to the minimum positive count; the paper's
// own implementation fixed Delta = 1 (§IV). Both are supported for ablation.
enum class DeltaMode {
  kMinPositiveCount,
  kOne,
};

struct GeneratorOptions {
  core::TableauType type = core::TableauType::kHold;
  // Confidence threshold c_hat in [0, 1].
  double c_hat = 0.9;
  // Approximation knob; must be > 0 for the approximate generators.
  double epsilon = 0.01;
  DeltaMode delta_mode = DeltaMode::kMinPositiveCount;
  // §VI optimizations, both off by default to match the paper's experiments:
  //
  // Stop the anchor loop as soon as an emitted candidate spans [1, n] — the
  // greedy cover then needs nothing else. Used by the Fig. 7 benchmark.
  bool stop_on_full_cover = false;
  // Per anchor, test candidate intervals longest-first and stop at the first
  // one satisfying the (relaxed) threshold; shorter qualifying intervals are
  // subsumed. Supported by the per-anchor generators (AB-opt, NAB, NAB-opt).
  bool largest_first_early_exit = false;
  // Anchor-sharded parallel generation: the anchor range is split into
  // many fine-grained contiguous chunks (interval/shard.h) that workers
  // claim dynamically off an atomic cursor; each chunk runs the unmodified
  // sequential sweep with its own amortization state (level pointers /
  // schedule cursor), and per-chunk outputs are concatenated in anchor
  // order — results are identical to the sequential run for every
  // algorithm/model/tableau-type combination and every thread count.
  // 1 = sequential (default), 0 = hardware concurrency.
  int num_threads = 1;
};

// Per-worker accounting from one sharded run. Pure observability: none of
// these values feed back into generation, and (unlike the candidate output)
// they are timing-dependent, so they vary run to run.
struct ShardWork {
  // Summed in-chunk work time of this worker (excludes claim overhead and
  // idle time).
  double seconds = 0.0;
  // Chunks this worker pulled off the claim cursor.
  uint64_t chunks_claimed = 0;
  // Chunks claimed beyond the static fair share ceil(chunks / workers) —
  // work this worker effectively took over from slower workers. 0 everywhere
  // means static partitioning would have balanced just as well.
  uint64_t steals = 0;
};

struct GeneratorStats {
  // Number of confidence evaluations ("iterations" in paper Figs. 7-10).
  uint64_t intervals_tested = 0;
  // Endpoint-search work: pointer advances (AB/NAB) or binary-search probes
  // (AB-opt). Chunked runs re-base their level pointers per chunk (one
  // O(log n) search per level per chunk), so this can exceed the sequential
  // count slightly.
  uint64_t endpoint_steps = 0;
  // Batch kernel calls issued (interval/kernel_simd.h). Unlike
  // intervals_tested this is allowed to vary with batching policy — it
  // measures how well the sweeps amortize dispatch, not logical work.
  uint64_t batches = 0;
  // Number of candidate intervals emitted.
  uint64_t candidates = 0;
  // Anchors skipped without testing. Every generator visits every anchor,
  // so this is always 0. Like LaneOccupancy() below, it stays only because
  // the frozen benchmark harness (perfbench/perfbench.cc) reports it as
  // interval.prune_ratio.
  static constexpr uint64_t anchors_pruned = 0;
  // Total work time: summed across workers. Equals wall_seconds for a
  // sequential run; approaches shards * wall_seconds under perfect scaling.
  double seconds = 0.0;
  // End-to-end elapsed time of GenerateCandidates — the number to plot for
  // parallel scaling. Set by internal::RunSharded, and reset at the end of
  // the call by a generator that reorders RunSharded's output (NAB); never
  // merged.
  double wall_seconds = 0.0;
  // Workers the driver dispatched (1 for sequential runs).
  int shards = 1;
  // Scheduler chunks the anchor range was cut into (1 for sequential runs).
  int64_t chunks = 1;
  // One entry per worker (index = worker id). Empty until the driver fills
  // it; sequential runs get a single entry.
  std::vector<ShardWork> shard_work;

  // Accumulates per-chunk (or per-shard) counters into this one: counters
  // and work seconds add. wall_seconds, shards, chunks, and shard_work
  // describe the whole run and are owned by the execution driver — Merge
  // leaves them untouched.
  void Merge(const GeneratorStats& shard) {
    intervals_tested += shard.intervals_tested;
    endpoint_steps += shard.endpoint_steps;
    batches += shard.batches;
    candidates += shard.candidates;
    seconds += shard.seconds;
  }

  // Fraction of SIMD walk-lane slots that carried a live probe. No
  // generator runs a cross-anchor lane scheduler, so this is always 0.0.
  // It stays because the benchmark harness (perfbench/perfbench.cc) reports
  // it as interval.lane_occupancy, and that harness is frozen between
  // benchmark revisions.
  double LaneOccupancy() const { return 0.0; }

  // Shard-level observability, derived from shard_work. Workers that
  // claimed no chunk (they reached the cursor after exhaustion) are
  // excluded: they did no work by design, not from imbalance.
  double MinShardSeconds() const;
  double MedianShardSeconds() const;
  double MaxShardSeconds() const;
  // Max/mean work seconds over participating workers; 1.0 when fewer than
  // two workers participated. 1.0 is perfect balance; the contiguous-block
  // scheduler this replaced measured ~1.9 at 8 workers on triangular work.
  double ImbalanceRatio() const;
  uint64_t TotalSteals() const;
};

// A candidate interval together with the confidence value that admitted it.
// The generators evaluate conf(interval) anyway while testing endpoints;
// carrying it out lets tableau assembly (core/tableau.cc) skip re-evaluating
// every chosen row. Kernel arithmetic is bit-identical to
// core::ConfidenceEvaluator (interval/kernel.h), so the carried value equals
// what a rescan would produce.
struct Candidate {
  Interval interval;
  double confidence = 0.0;

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

class CandidateGenerator {
 public:
  virtual ~CandidateGenerator() = default;

  // Produces the per-anchor longest qualifying intervals, each paired with
  // its confidence, sorted by position. `stats` may be null.
  virtual std::vector<Candidate> GenerateCandidates(
      const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
      GeneratorStats* stats) const = 0;

  // Interval-only view of GenerateCandidates, for callers that do not need
  // the confidences.
  std::vector<Interval> Generate(const core::ConfidenceEvaluator& eval,
                                 const GeneratorOptions& options,
                                 GeneratorStats* stats) const;

  virtual AlgorithmKind kind() const = 0;
};

// Factory for all five algorithms.
std::unique_ptr<CandidateGenerator> MakeGenerator(AlgorithmKind kind);

// Resolves Delta per `options.delta_mode`.
double ResolveDelta(const series::CumulativeSeries& series,
                    const GeneratorOptions& options);

// Number of workers a generator should dispatch for n anchors: clamps
// options.num_threads (0 = hardware concurrency) to [1, n].
int ResolveNumShards(int64_t n, const GeneratorOptions& options);

// The relaxed acceptance predicate used by the approximate generators, and
// the exact one (epsilon = 0) used by the exhaustive generator.
bool PassesRelaxedThreshold(double conf, const GeneratorOptions& options);
bool PassesExactThreshold(double conf, const GeneratorOptions& options);

}  // namespace conservation::interval

#endif  // CONSERVATION_INTERVAL_GENERATOR_H_
