#include "interval/area_based.h"

#include <algorithm>
#include <cmath>

#include "interval/kernel.h"
#include "interval/shard.h"

namespace conservation::interval {

namespace internal {

std::vector<double> AbThresholds(const series::CumulativeSeries& series,
                                 core::TableauType type, double delta,
                                 double growth) {
  // Upper bound on the number of levels: area(i, n) <= Sum(1, n) because all
  // baselines are >= 0 (A is non-negative and, for debit, S_i >= 0).
  const int64_t n = series.n();
  const double max_area = type == core::TableauType::kHold
                              ? series.SumB(1, n)
                              : series.SumA(1, n);
  int64_t num_levels = 0;
  if (max_area > delta) {
    num_levels =
        static_cast<int64_t>(std::ceil(std::log(max_area / delta) /
                                       std::log(growth))) +
        1;
  }
  // The zero level catches confidence-0 intervals of fail tableaux.
  std::vector<double> thresholds;
  if (type == core::TableauType::kFail) thresholds.push_back(0.0);
  double t_value = delta;
  for (int64_t l = 0; l <= num_levels; ++l) {
    thresholds.push_back(t_value);
    t_value *= growth;
  }
  return thresholds;
}

size_t AbFirstLevel(double anchor_area, double delta, double growth,
                    bool fail_type) {
  size_t first_level = fail_type ? 1 : 0;
  if (anchor_area > delta) {
    const double levels_below =
        std::log(anchor_area / delta) / std::log(growth);
    first_level += static_cast<size_t>(std::max(0.0, levels_below - 1.0));
  }
  return first_level;
}

std::vector<int64_t> ZeroPrefixLengths(int64_t n, double growth) {
  std::vector<int64_t> lengths;
  double power = 1.0;
  while (static_cast<int64_t>(power) < n) {
    lengths.push_back(static_cast<int64_t>(power));
    power *= growth;
  }
  lengths.push_back(n);
  return lengths;
}

}  // namespace internal

std::vector<Candidate> AreaBasedGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  CR_CHECK(options.epsilon > 0.0);
  const int64_t n = eval.n();
  const core::TableauType type = options.type;
  const bool fail_type = type == core::TableauType::kFail;
  const double delta = ResolveDelta(eval.series(), options);
  const double growth = 1.0 + options.epsilon;
  const std::vector<double> thresholds =
      internal::AbThresholds(eval.series(), type, delta, growth);

  // Credit-model fail tableaux also test length-geometric endpoints inside
  // the prefix where the balance numerator area is 0. There the credit
  // confidence len * S_i / sum_l (B_l - A_{i-1}) is nonzero but, B being
  // nondecreasing, nonincreasing in j: the zero-level breakpoint qualifies
  // whenever a shorter probe does, up to rounding, so the probes never
  // change the candidate. They only add tests (intervals_tested).
  const bool credit_fail =
      fail_type && eval.model() == core::ConfidenceModel::kCredit;
  const std::vector<int64_t> zero_prefix_lengths =
      credit_fail ? internal::ZeroPrefixLengths(n, growth)
                  : std::vector<int64_t>{};

  // Per-chunk anchor sweep. The level pointers are never-retreating within
  // a chunk (Lemma 3) and the breakpoint t is a function of (i, level)
  // alone — the pointer only amortizes the search for it — so re-basing the
  // pointers per chunk changes no output. A naive re-base (walk from the
  // chunk start) would re-sweep up to a whole level per chunk; instead the
  // first touch of a level inside a chunk locates its breakpoint with
  // LargestEndpointWithin over the nondecreasing area (O(log n) per level
  // per chunk), and the walk proceeds linearly from there as in the
  // sequential run.
  //
  // The inner sweep runs on the flat-array kernel: the cumulative series is
  // resolved to __restrict pointers once per chunk and the anchor baselines
  // H_i^A / H_i^B are hoisted out of the endpoint loop (bit-identical
  // arithmetic; see interval/kernel.h).
  auto block = [&, n, fail_type, delta, growth](int64_t i_begin, int64_t i_end,
                                                GeneratorStats* chunk_stats) {
    internal::ConfidenceKernel kernel(eval, type);
    // One never-retreating pointer per level; 0 = not yet located in this
    // chunk (anchors and breakpoints are always >= 1).
    std::vector<int64_t> pointer(thresholds.size(), 0);
    constexpr int64_t kMaxWalk = 256;
    double area_buf[kMaxWalk];
    std::vector<int64_t> zp_js;
    std::vector<double> zp_conf;
    std::vector<uint8_t> zp_valid;

    std::vector<Candidate> out;
    out.reserve(static_cast<size_t>(i_end - i_begin + 1));
    uint64_t tested = 0;
    uint64_t steps = 0;
    uint64_t batches = 0;

    for (int64_t i = i_begin; i <= i_end; ++i) {
      kernel.BeginAnchor(i);
      const size_t first_level = internal::AbFirstLevel(
          kernel.SparseArea(i), delta, growth, fail_type);
      int64_t best_j = 0;
      double best_conf = 0.0;
      int64_t zero_area_end = 0;

      size_t level = fail_type ? 0 : first_level;
      while (level < thresholds.size()) {
        const double threshold = thresholds[level];
        int64_t& level_pointer = pointer[level];
        int64_t t;
        if (level_pointer == 0) {
          // First touch in this chunk: the largest endpoint in [i, n] whose
          // area is within the threshold (t = i when even [i, i] exceeds
          // it, matching the walk's no-advance case).
          t = std::max(
              i, kernel.LargestEndpointWithin(i, n, 1, threshold, &steps));
        } else {
          t = std::max(level_pointer, i);
          // Batched linear walk: evaluate the next window of areas in one
          // SparseAreaBatch call and advance through its within-threshold
          // prefix. Stops at the same breakpoint as the scalar walk (the
          // area is evaluated for every advanced endpoint plus the first
          // failing one — extra lanes are speculative and side-effect
          // free), and `steps` still counts only actual advances.
          int64_t window = 4;
          while (t + 1 <= n) {
            const int64_t j1 = std::min<int64_t>(n, t + window);
            const int64_t len = j1 - t;
            kernel.SparseAreaBatch(t + 1, j1, area_buf);
            ++batches;
            int64_t advanced = 0;
            while (advanced < len && area_buf[advanced] <= threshold) {
              ++advanced;
            }
            t += advanced;
            steps += static_cast<uint64_t>(advanced);
            if (advanced < len) break;  // hit the first endpoint past T
            window = std::min<int64_t>(window * 2, kMaxWalk);
          }
        }
        level_pointer = t;
        const bool exists = kernel.SparseArea(t) <= threshold;
        if (exists) {
          if (threshold == 0.0) zero_area_end = t;
          double conf;
          ++tested;
          if (kernel.Confidence(t, &conf) &&
              PassesRelaxedThreshold(conf, options) && t > best_j) {
            best_j = t;
            best_conf = conf;
          }
        }
        // Once the breakpoint reaches n, higher levels produce the same
        // interval; the paper's level count L_i = ceil(log(area(i,n)/Delta))
        // stops here too.
        if (exists && t == n) break;
        ++level;
        if (level == 1 && first_level > 1) level = first_level;  // after zero
      }

      if (credit_fail && zero_area_end > i) {
        // Zero-prefix probes, batched through the index-list kernel.
        // Duplicate lengths (floor((1+eps)^h) repeats for small eps) are
        // kept: each counts as a test, and a duplicate j can never displace
        // itself (j > best_j).
        zp_js.clear();
        for (const int64_t len : zero_prefix_lengths) {
          const int64_t j = i + len - 1;
          if (j >= zero_area_end) break;  // zero_area_end itself was tested
          zp_js.push_back(j);
        }
        if (!zp_js.empty()) {
          zp_conf.resize(zp_js.size());
          zp_valid.resize(zp_js.size());
          kernel.ConfidenceIndexBatch(zp_js.data(),
                                      static_cast<int64_t>(zp_js.size()),
                                      zp_conf.data(), zp_valid.data());
          ++batches;
          tested += zp_js.size();
          for (size_t k = 0; k < zp_js.size(); ++k) {
            if (zp_valid[k] && PassesRelaxedThreshold(zp_conf[k], options) &&
                zp_js[k] > best_j) {
              best_j = zp_js[k];
              best_conf = zp_conf[k];
            }
          }
        }
      }

      if (best_j >= i) {
        out.push_back(Candidate{Interval{i, best_j}, best_conf});
        if (options.stop_on_full_cover && i == 1 && best_j == n) break;
      }
    }

    chunk_stats->intervals_tested = tested;
    chunk_stats->endpoint_steps = steps;
    chunk_stats->batches = batches;
    return out;
  };

  return internal::RunSharded(n, options, stats, block);
}

}  // namespace conservation::interval
