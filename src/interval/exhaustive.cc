#include "interval/exhaustive.h"

#include <algorithm>

#include "interval/kernel.h"
#include "interval/shard.h"

namespace conservation::interval {

namespace internal {

uint64_t ScanLastQualifying(const ConfidenceKernel& kernel,
                            const GeneratorOptions& options, int64_t from,
                            int64_t n, int64_t* best_j, double* best_conf) {
  constexpr int64_t kBatch = 512;
  double conf[kBatch];
  uint8_t valid[kBatch];
  uint64_t batches = 0;
  for (int64_t j0 = from; j0 <= n; j0 += kBatch) {
    const int64_t j1 = std::min<int64_t>(n, j0 + kBatch - 1);
    kernel.ConfidenceBatch(j0, j1, conf, valid);
    ++batches;
    for (int64_t k = j1 - j0; k >= 0; --k) {
      if (valid[k] && PassesExactThreshold(conf[k], options)) {
        *best_j = j0 + k;
        *best_conf = conf[k];
        break;
      }
    }
  }
  return batches;
}

}  // namespace internal

std::vector<Candidate> ExhaustiveGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  const int64_t n = eval.n();

  // The dense endpoint sweep [i, n] is the ideal batch-kernel shape:
  // contiguous endpoints, no early exit, every j logically tested. The
  // carried confidence is bit-identical to eval.Confidence by the kernel
  // contract.
  auto block = [&eval, &options, n](int64_t i_begin, int64_t i_end,
                                    GeneratorStats* shard_stats) {
    internal::ConfidenceKernel kernel(eval, options.type);
    std::vector<Candidate> out;
    uint64_t tested = 0;
    uint64_t batches = 0;
    for (int64_t i = i_begin; i <= i_end; ++i) {
      kernel.BeginAnchor(i);
      int64_t best_j = 0;
      double best_conf = 0.0;
      batches += internal::ScanLastQualifying(kernel, options, i, n, &best_j,
                                              &best_conf);
      tested += static_cast<uint64_t>(n - i + 1);
      if (best_j >= i) {
        out.push_back(Candidate{Interval{i, best_j}, best_conf});
        if (options.stop_on_full_cover && i == 1 && best_j == n) break;
      }
    }
    shard_stats->intervals_tested = tested;
    shard_stats->batches = batches;
    return out;
  };

  return internal::RunSharded(n, options, stats, block);
}

}  // namespace conservation::interval
