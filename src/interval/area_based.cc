#include "interval/area_based.h"

#include <algorithm>
#include <cmath>

#include "interval/kernel.h"
#include "interval/prune.h"
#include "interval/shard.h"
#include "interval/walk.h"

namespace conservation::interval {

namespace internal {

double SparsificationArea(const core::ConfidenceEvaluator& eval,
                          core::TableauType type, int64_t i, int64_t j) {
  if (type == core::TableauType::kHold) return eval.AreaB(i, j);
  // Fail tableaux sparsify on the numerator area. In the credit model the
  // baseline A_{i-1} - S_i is not monotone, so the algorithm reuses the
  // balance-model breakpoints (paper §III.D, Theorems 5-6).
  if (eval.model() == core::ConfidenceModel::kCredit) {
    return eval.AreaABalance(i, j);
  }
  return eval.AreaA(i, j);
}

}  // namespace internal

std::vector<Candidate> AreaBasedGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  CR_CHECK(options.epsilon > 0.0);
  const int64_t n = eval.n();
  const core::TableauType type = options.type;
  const double delta = ResolveDelta(eval.series(), options);
  const double growth = 1.0 + options.epsilon;

  // Upper bound on the number of levels: area(i, n) <= Sum(1, n) because all
  // baselines are >= 0 (A is non-negative and, for debit, S_i >= 0).
  const double max_area = type == core::TableauType::kHold
                              ? eval.series().SumB(1, n)
                              : eval.series().SumA(1, n);
  int64_t num_levels = 0;
  if (max_area > delta) {
    num_levels =
        static_cast<int64_t>(std::ceil(std::log(max_area / delta) /
                                       std::log(growth))) +
        1;
  }

  // Level thresholds T_l = Delta * (1+eps)^l. For fail tableaux a "zero
  // level" T = 0 is prepended to catch confidence-0 intervals.
  std::vector<double> thresholds;
  if (type == core::TableauType::kFail) thresholds.push_back(0.0);
  double t_value = delta;
  for (int64_t l = 0; l <= num_levels; ++l) {
    thresholds.push_back(t_value);
    t_value *= growth;
  }

  // Credit-model fail tableaux need extra care beyond the paper's zero
  // level: within the prefix where the balance numerator area is 0, the
  // credit confidence (len * S_i) / area_B is not 0 and not monotone, so the
  // single zero-level breakpoint may overshoot past every qualifying j.
  // Testing length-geometric endpoints inside that prefix restores the
  // guarantee: len' <= (1+eps) len* and area_B(i,j') >= area_B(i,j*) give
  // conf_c(i,j') <= (1+eps) conf_c(i,j*).
  const bool credit_fail = type == core::TableauType::kFail &&
                           eval.model() == core::ConfidenceModel::kCredit;
  std::vector<int64_t> zero_prefix_lengths;
  if (credit_fail) {
    double power = 1.0;
    while (static_cast<int64_t>(power) < n) {
      zero_prefix_lengths.push_back(static_cast<int64_t>(power));
      power *= growth;
    }
    zero_prefix_lengths.push_back(n);
  }

  // Sketch anchor screen (relaxed threshold), shared read-only by every
  // chunk. Skipping a pruned anchor is safe here because the level pointers
  // are pure amortization state: the breakpoint for (i, level) is a
  // function of the series alone, and the pointers never retreat, so later
  // anchors simply walk them forward from wherever the last unpruned
  // anchor left them.
  const internal::ScopedSketchScreen scoped(
      eval, options, /*relaxed=*/true);
  const internal::SketchScreen* screen = scoped.get();

  // Per-chunk anchor sweep. The level pointers are never-retreating within
  // a chunk (Lemma 3) and the breakpoint t is a function of (i, level)
  // alone — the pointer only amortizes the search for it — so re-basing the
  // pointers per chunk changes no output. A naive re-base (walk from the
  // chunk start) would re-sweep up to a whole level per chunk; instead the
  // first touch of a level inside a chunk locates its breakpoint by binary
  // search over the nondecreasing area (O(log n) per level per chunk), and
  // the walk proceeds linearly from there as in the sequential run.
  //
  // The inner sweep runs on the flat-array kernel: the cumulative series is
  // resolved to __restrict pointers once per chunk and the anchor baselines
  // H_i^A / H_i^B are hoisted out of the endpoint loop (bit-identical
  // arithmetic; see interval/kernel.h).
  auto block = [&, n, type, delta, growth](int64_t i_begin, int64_t i_end,
                                           GeneratorStats* chunk_stats) {
    internal::ConfidenceKernel kernel(eval, type);
    // One never-retreating pointer per level; 0 = not yet located in this
    // chunk (anchors and breakpoints are always >= 1). The pointers are
    // part of the walks' resumable state: checkpointing an AB walk means
    // checkpointing this vector with it (interval/walk.h).
    std::vector<int64_t> pointer(thresholds.size(), 0);

    internal::AbWalkContext ctx;
    ctx.n = n;
    ctx.delta = delta;
    ctx.growth = growth;
    ctx.thresholds = &thresholds;
    ctx.pointer = &pointer;
    ctx.options = &options;
    ctx.fail_type = type == core::TableauType::kFail;
    ctx.credit_fail = credit_fail;
    ctx.zero_prefix_lengths = &zero_prefix_lengths;

    internal::AbWalkScratch scratch;
    internal::WalkStepCounters counters;
    internal::AbWalkState walk;

    std::vector<Candidate> out;
    out.reserve(static_cast<size_t>(i_end - i_begin + 1));
    uint64_t walks_started = 0;
    uint64_t walk_steps = 0;
    uint64_t pruned = 0;
    uint64_t sketch_blocks = 0;

    for (int64_t i = i_begin; i <= i_end; ++i) {
      if (screen != nullptr && !screen->MayEmit(i, &sketch_blocks)) {
        ++pruned;
        continue;
      }
      kernel.BeginAnchor(i);
      walk.Begin(i, kernel, ctx);
      ++walks_started;
      while (!walk.done()) {
        walk.Step(kernel, ctx, &scratch, &counters);
        ++walk_steps;
      }
      if (walk.best_j() >= i) {
        out.push_back(Candidate{Interval{i, walk.best_j()}, walk.best_conf()});
        if (options.stop_on_full_cover && i == 1 && walk.best_j() == n) break;
      }
    }

    chunk_stats->intervals_tested = counters.tested;
    chunk_stats->endpoint_steps = counters.steps;
    chunk_stats->batches = counters.batches;
    chunk_stats->walks = walks_started;
    chunk_stats->walk_rounds = walk_steps;
    chunk_stats->anchors_pruned = pruned;
    chunk_stats->sketch_blocks = sketch_blocks;
    return out;
  };

  auto result = internal::RunSharded(n, options, stats, block);
  if (stats != nullptr) stats->sketch_blocks += scoped.construction_blocks();
  return result;
}

}  // namespace conservation::interval
