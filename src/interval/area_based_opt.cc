#include "interval/area_based_opt.h"

#include <algorithm>

#include "interval/area_based.h"
#include "interval/kernel.h"
#include "interval/shard.h"

namespace conservation::interval {

std::vector<Candidate> AreaBasedOptGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  CR_CHECK(options.epsilon > 0.0);
  const int64_t n = eval.n();
  const core::TableauType type = options.type;
  const double delta = ResolveDelta(eval.series(), options);
  const double growth = 1.0 + options.epsilon;

  // See AreaBasedGenerator: credit-model fail tableaux additionally probe
  // length-geometric endpoints inside the zero-area prefix, where the
  // credit confidence is nonzero and non-monotone.
  const bool credit_fail = type == core::TableauType::kFail &&
                           eval.model() == core::ConfidenceModel::kCredit;
  const std::vector<int64_t> zero_prefix_lengths =
      credit_fail ? internal::ZeroPrefixLengths(n, growth)
                  : std::vector<int64_t>{};

  // AB-opt carries no cross-anchor state (each anchor's breakpoints come
  // from its own endpoint searches), so anchor chunks parallelize directly.
  // Inner sweeps run on the flat-array kernel (interval/kernel.h).
  auto block = [&, n, delta, growth](int64_t i_begin, int64_t i_end,
                                     GeneratorStats* chunk_stats) {
    internal::ConfidenceKernel kernel(eval, type);
    std::vector<Candidate> out;
    out.reserve(static_cast<size_t>(i_end - i_begin + 1));
    uint64_t tested = 0;
    uint64_t probes = 0;
    uint64_t batches = 0;
    std::vector<int64_t> breakpoints;
    std::vector<double> conf;
    std::vector<uint8_t> valid;
    for (int64_t i = i_begin; i <= i_end; ++i) {
      kernel.BeginAnchor(i);
      breakpoints.clear();

      if (credit_fail) {
        const int64_t zero_area_end =
            kernel.LargestEndpointWithin(i, n, 1, 0.0, &probes);
        for (const int64_t len : zero_prefix_lengths) {
          const int64_t j = i + len - 1;
          if (j >= zero_area_end) break;  // zero_area_end is a breakpoint
          breakpoints.push_back(j);
        }
        if (zero_area_end >= i) breakpoints.push_back(zero_area_end);
      }

      // Initial area breakpoint: the largest j whose area is within the
      // base unit Delta; if even [i, i] exceeds it, start at i (forced).
      // For fail tableaux this also covers the zero-area (confidence 0)
      // special case, since the zero-area prefix lies below Delta.
      int64_t cur = kernel.LargestEndpointWithin(i, n, 1, delta, &probes);
      if (cur < i) cur = i;
      if (breakpoints.empty() || breakpoints.back() < cur) {
        breakpoints.push_back(cur);
      }

      // Consecutive breakpoint steps change slowly (each area target is
      // (1+eps)x the last), so each search starts one previous step past
      // cur. The guess only sets where the search starts, never its result.
      int64_t step = 1;
      while (cur < n) {
        const double cur_area = kernel.SparseArea(cur);
        const double target = std::max(cur_area, delta) * growth;
        int64_t next =
            kernel.LargestEndpointWithin(cur + 1, n, step, target, &probes);
        if (next < cur + 1) next = cur + 1;  // forced advance
        breakpoints.push_back(next);
        step = next - cur;
        cur = next;
      }

      conf.resize(breakpoints.size());
      valid.resize(breakpoints.size());
      double best_conf = 0.0;
      const int64_t best = internal::LongestQualifying<16>(
          static_cast<int64_t>(breakpoints.size()), options,
          [&](int64_t begin, int64_t end) {
            kernel.ConfidenceIndexBatch(breakpoints.data() + begin,
                                        end - begin, conf.data() + begin,
                                        valid.data() + begin);
          },
          conf.data(), valid.data(), &best_conf, &tested, &batches);
      if (best >= 0) {
        const int64_t best_j = breakpoints[static_cast<size_t>(best)];
        out.push_back(Candidate{Interval{i, best_j}, best_conf});
        if (options.stop_on_full_cover && i == 1 && best_j == n) break;
      }
    }

    chunk_stats->intervals_tested = tested;
    chunk_stats->endpoint_steps = probes;
    chunk_stats->batches = batches;
    return out;
  };

  return internal::RunSharded(n, options, stats, block);
}

}  // namespace conservation::interval
