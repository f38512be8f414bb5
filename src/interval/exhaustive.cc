#include "interval/exhaustive.h"

#include <algorithm>

#include "interval/kernel.h"
#include "interval/prune.h"
#include "interval/shard.h"

namespace conservation::interval {

std::vector<Candidate> ExhaustiveGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  const int64_t n = eval.n();

  // Sketch anchor screen (exact threshold — this generator applies no
  // epsilon relaxation), shared read-only by every chunk. A pruned anchor
  // provably has no qualifying endpoint, so skipping it emits nothing and
  // contributes nothing to intervals_tested.
  const internal::ScopedSketchScreen scoped(
      eval, options, /*relaxed=*/false);
  const internal::SketchScreen* screen = scoped.get();

  // The dense endpoint sweep [i, n] is the ideal batch-kernel shape:
  // contiguous endpoints, no early exit, every j logically tested. Each
  // anchor sweeps in kBatch-wide ConfidenceBatch blocks, then scans the
  // block backwards for its last qualifying endpoint — same winner as the
  // scalar forward scan (last qualifying j overall), and the carried
  // confidence is bit-identical to eval.Confidence by the kernel contract.
  auto block = [&eval, &options, n, screen](int64_t i_begin, int64_t i_end,
                                            GeneratorStats* shard_stats) {
    internal::ConfidenceKernel kernel(eval, options.type);
    constexpr int64_t kBatch = 512;
    double conf[kBatch];
    uint8_t valid[kBatch];
    std::vector<Candidate> out;
    uint64_t tested = 0;
    uint64_t batches = 0;
    uint64_t pruned = 0;
    uint64_t sketch_blocks = 0;
    for (int64_t i = i_begin; i <= i_end; ++i) {
      if (screen != nullptr && !screen->MayEmit(i, &sketch_blocks)) {
        ++pruned;
        continue;
      }
      kernel.BeginAnchor(i);
      int64_t best_j = 0;
      double best_conf = 0.0;
      for (int64_t j0 = i; j0 <= n; j0 += kBatch) {
        const int64_t j1 = std::min<int64_t>(n, j0 + kBatch - 1);
        kernel.ConfidenceBatch(j0, j1, conf, valid);
        ++batches;
        for (int64_t k = j1 - j0; k >= 0; --k) {
          if (valid[k] && PassesExactThreshold(conf[k], options)) {
            best_j = j0 + k;
            best_conf = conf[k];
            break;
          }
        }
      }
      tested += static_cast<uint64_t>(n - i + 1);
      if (best_j >= i) {
        out.push_back(Candidate{Interval{i, best_j}, best_conf});
        if (options.stop_on_full_cover && i == 1 && best_j == n) break;
      }
    }
    shard_stats->intervals_tested = tested;
    shard_stats->batches = batches;
    shard_stats->anchors_pruned = pruned;
    shard_stats->sketch_blocks = sketch_blocks;
    return out;
  };

  auto out = internal::RunSharded(n, options, stats, block);
  if (stats != nullptr) stats->sketch_blocks += scoped.construction_blocks();
  return out;
}

}  // namespace conservation::interval
