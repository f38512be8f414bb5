// Flat-array confidence kernels for the generator inner sweeps.
//
// The generators evaluate areas and confidences hundreds of millions of
// times per run. Routing every evaluation through ConfidenceEvaluator costs,
// per call: two pointer hops into the series object, a recomputation of the
// per-anchor baselines H_i^A / H_i^B (A(i-1) and SuffixMinGap(i) lookups and
// a model branch), and an std::optional round trip. ConfidenceKernel
// resolves the cumulative arrays (A, SA, SB, S) to __restrict pointers once
// per chunk and hoists the anchor baselines out of the endpoint loop, so the
// inner sweep touches only flat arrays and registers.
//
// Bit-identity contract: every expression below reproduces the evaluator's
// arithmetic with the same operand values and the same evaluation order
// (see core/confidence.h), so kernel results are bit-identical to evaluator
// results — the sharded drivers rely on this to keep parallel output equal
// to the sequential run.
//
// Batch APIs: the *Batch methods evaluate a run (or index list) of
// endpoints in one call through the loops in kernel_simd.h. Only
// ConfidenceFromBatch has a second (AVX2) body, chosen once per kernel from
// the process-wide, CPU-detected backend; both bodies honour the same
// bit-identity contract, so batch outputs equal a loop over the scalar
// calls byte for byte — including out_conf == 0.0 on invalid lanes.

#ifndef CONSERVATION_INTERVAL_KERNEL_H_
#define CONSERVATION_INTERVAL_KERNEL_H_

#include <algorithm>
#include <cstdint>

#include "core/confidence.h"
#include "core/model.h"
#include "interval/generator.h"
#include "interval/kernel_simd.h"

namespace conservation::interval::internal {

class ConfidenceKernel {
 public:
  ConfidenceKernel(const core::ConfidenceEvaluator& eval,
                   core::TableauType type)
      : a_(eval.series().a_data()),
        sa_(eval.series().sa_data()),
        sb_(eval.series().sb_data()),
        s_(eval.series().suffix_min_gap_data()),
        model_(eval.model()),
        hold_(type == core::TableauType::kHold),
        // Fail tableaux sparsify on the numerator area; in the credit model
        // the baseline A_{i-1} - S_i is not monotone, so the algorithm
        // reuses the balance-model breakpoints (paper §III.D, Theorems 5-6).
        sparse_balance_(!hold_ &&
                        eval.model() == core::ConfidenceModel::kCredit) {}

  // --- Left-anchored sweeps (AB, AB-opt): fix anchor i, vary endpoint j ---

  void BeginAnchor(int64_t i) {
    i_ = i;
    const double prev = a_[i - 1];
    const double gap = s_[i];
    h_a_ = model_ == core::ConfidenceModel::kCredit ? prev - gap : prev;
    h_b_ = model_ == core::ConfidenceModel::kDebit ? prev + gap : prev;
    sa_prev_ = sa_[i - 1];
    sb_prev_ = sb_[i - 1];
    sp_ = hold_ ? sb_ : sa_;
    sp_prev_ = hold_ ? sb_prev_ : sa_prev_;
    h_sp_ = hold_ ? h_b_ : (sparse_balance_ ? prev : h_a_);
  }

  // The sparsification area of [i_, j]: area_B for hold, area_A for fail
  // (balance-model area_A when the model is credit).
  double SparseArea(int64_t j) const {
    const double raw = (sp_[j] - sp_prev_) -
                       static_cast<double>(j - i_ + 1) * h_sp_;
    return raw < 0.0 ? 0.0 : raw;
  }

  // Largest j in [lo, hi] with SparseArea(j) <= threshold, or lo - 1 if even
  // SparseArea(lo) exceeds it, adding one to *probes per area evaluated.
  // AB-opt's walk passes its previous chain step as the guess and 1 for
  // its zero and init searches (AbOptWalk); AB's first touch of a level
  // passes 1.
  int64_t LargestEndpointWithin(int64_t lo, int64_t hi, int64_t guess,
                                double threshold, uint64_t* probes) const {
    return LargestEndpointWithin(lo, hi, guess, threshold, probes,
                                 [this](int64_t j) { return SparseArea(j); });
  }

  // The search itself, over any nondecreasing area(j) (the overload above
  // passes SparseArea; tests pass plain arrays). It first probes
  // lo + guess - 1, clamped into [lo, hi], gallops away from it by doubling
  // steps until the answer is bracketed, then bisects the bracket: at most
  // 2 ceil(log2(|answer - first probe| + 2)) probes, against log2(hi - lo)
  // for a bisection of the whole range. Because the area is nondecreasing,
  // the result depends on neither guess nor how far past the answer hi
  // lies.
  template <typename AreaFn>
  static int64_t LargestEndpointWithin(
      int64_t lo, int64_t hi, int64_t guess, double threshold,
      uint64_t* probes, const AreaFn& area) {
    if (lo > hi) return lo - 1;
    // Invariant once bracketed: within <= answer < beyond, where `within`
    // is lo - 1 or an endpoint whose area passed and `beyond` is hi + 1 or
    // one whose area failed.
    const int64_t first = lo + std::clamp<int64_t>(guess, 1, hi - lo + 1) - 1;
    int64_t within = lo - 1;
    int64_t beyond = hi + 1;
    ++*probes;
    if (area(first) <= threshold) {
      within = first;
      for (int64_t step = 1; within < hi; step *= 2) {
        const int64_t j = std::min(hi, within + step);
        ++*probes;
        if (area(j) > threshold) {
          beyond = j;
          break;
        }
        within = j;
      }
    } else {
      beyond = first;
      for (int64_t step = 1; beyond > lo; step *= 2) {
        const int64_t j = std::max(lo, beyond - step);
        ++*probes;
        if (area(j) <= threshold) {
          within = j;
          break;
        }
        beyond = j;
      }
    }
    while (beyond - within > 1) {
      const int64_t mid = within + (beyond - within) / 2;
      ++*probes;
      if (area(mid) <= threshold) {
        within = mid;
      } else {
        beyond = mid;
      }
    }
    return within;
  }

  // conf(i_, j); false when the denominator is not positive (undefined).
  bool Confidence(int64_t j, double* conf) const {
    const double len = static_cast<double>(j - i_ + 1);
    const double den_raw = (sb_[j] - sb_prev_) - len * h_b_;
    const double den = den_raw < 0.0 ? 0.0 : den_raw;
    if (den <= 0.0) return false;
    const double num_raw = (sa_[j] - sa_prev_) - len * h_a_;
    const double num = num_raw < 0.0 ? 0.0 : num_raw;
    *conf = num / den;
    return true;
  }

  // SparseArea(j) for every j in [j0, j1]; out[k] holds j0 + k.
  void SparseAreaBatch(int64_t j0, int64_t j1, double* out) const {
    SparseAreaBatchScalar({sp_, sp_prev_, h_sp_, i_}, j0, j1, out);
  }

  // Confidence(j) for every j in [j0, j1]; lane k holds j0 + k.
  // out_valid[k] is 1 iff the denominator is positive; out_conf[k] is the
  // confidence when valid and exactly 0.0 otherwise.
  void ConfidenceBatch(int64_t j0, int64_t j1, double* out_conf,
                       uint8_t* out_valid) const {
    ConfidenceBatchScalar({sa_, sb_, sa_prev_, sb_prev_, h_a_, h_b_, i_}, j0,
                          j1, out_conf, out_valid);
  }

  // Confidence(js[k]) for an ascending endpoint list (AB-opt breakpoint
  // probes); same output contract as ConfidenceBatch.
  void ConfidenceIndexBatch(const int64_t* js, int64_t count,
                            double* out_conf, uint8_t* out_valid) const {
    ConfidenceIndexBatchScalar(
        {sa_, sb_, sa_prev_, sb_prev_, h_a_, h_b_, i_}, js, count, out_conf,
        out_valid);
  }

  // --- Right-anchored sweeps (NAB): fix endpoint j, vary anchor i ---

  void BeginRightAnchor(int64_t j) {
    j_ = j;
    sa_end_ = sa_[j];
    sb_end_ = sb_[j];
  }

  // conf(i, j_); false when the denominator is not positive.
  bool ConfidenceFrom(int64_t i, double* conf) const {
    const double prev = a_[i - 1];
    const double gap = s_[i];
    const double h_a =
        model_ == core::ConfidenceModel::kCredit ? prev - gap : prev;
    const double h_b =
        model_ == core::ConfidenceModel::kDebit ? prev + gap : prev;
    const double len = static_cast<double>(j_ - i + 1);
    const double den_raw = (sb_end_ - sb_[i - 1]) - len * h_b;
    const double den = den_raw < 0.0 ? 0.0 : den_raw;
    if (den <= 0.0) return false;
    const double num_raw = (sa_end_ - sa_[i - 1]) - len * h_a;
    const double num = num_raw < 0.0 ? 0.0 : num_raw;
    *conf = num / den;
    return true;
  }

  // ConfidenceFrom(is[k]) for an anchor list (NAB level probes); same
  // output contract as ConfidenceBatch.
  void ConfidenceFromBatch(const int64_t* is, int64_t count,
                           double* out_conf, uint8_t* out_valid) const {
    const RightAnchorBatchArgs args{a_,      s_,      sa_, sb_,
                                    sa_end_, sb_end_, j_,  model_};
#if CONSERVATION_KERNEL_HAVE_AVX2
    if (backend_ == SimdBackend::kAvx2) {
      avx2::ConfidenceFromBatch(args, is, count, out_conf, out_valid);
      return;
    }
#endif
    ConfidenceFromBatchScalar(args, is, count, out_conf, out_valid);
  }

 private:
  const double* __restrict a_;
  const double* __restrict sa_;
  const double* __restrict sb_;
  const double* __restrict s_;
  const core::ConfidenceModel model_;
  const bool hold_;
  const bool sparse_balance_;
  // Resolved once per kernel so the per-batch dispatch is a predictable
  // branch on a register, not an atomic load.
  const SimdBackend backend_ = ActiveSimdBackend();

  // Left-anchor state (BeginAnchor).
  int64_t i_ = 0;
  double h_a_ = 0.0;
  double h_b_ = 0.0;
  double sa_prev_ = 0.0;
  double sb_prev_ = 0.0;
  const double* __restrict sp_ = nullptr;
  double sp_prev_ = 0.0;
  double h_sp_ = 0.0;

  // Right-anchor state (BeginRightAnchor).
  int64_t j_ = 0;
  double sa_end_ = 0.0;
  double sb_end_ = 0.0;
};

// Confidence-probes `count` intervals that grow longer with the index
// (AB-opt's ascending breakpoints, NAB's descending left anchors) and
// returns the index of the longest one passing the relaxed threshold, or
// -1, with its confidence in *best_conf. batch(begin, end) must evaluate
// lanes [begin, end) into conf[] / valid[] at the same indices. Under
// largest_first_early_exit the lanes go in reverse blocks of kBlock and the
// scan stops at the first qualifying one; lanes past it are speculative and
// uncounted, so *tested equals a one-at-a-time scan. Otherwise one batch
// evaluates every lane.
template <int64_t kBlock, typename BatchFn>
int64_t LongestQualifying(int64_t count, const GeneratorOptions& options,
                          BatchFn&& batch, const double* conf,
                          const uint8_t* valid, double* best_conf,
                          uint64_t* tested, uint64_t* batches) {
  if (!options.largest_first_early_exit) {
    batch(0, count);
    ++*batches;
    *tested += static_cast<uint64_t>(count);
    for (int64_t k = count; k-- > 0;) {
      if (valid[k] && PassesRelaxedThreshold(conf[k], options)) {
        *best_conf = conf[k];
        return k;
      }
    }
    return -1;
  }
  for (int64_t end = count; end > 0;) {
    const int64_t begin = std::max<int64_t>(0, end - kBlock);
    batch(begin, end);
    ++*batches;
    for (int64_t k = end; k-- > begin;) {
      ++*tested;
      if (valid[k] && PassesRelaxedThreshold(conf[k], options)) {
        *best_conf = conf[k];
        return k;
      }
    }
    end = begin;
  }
  return -1;
}

}  // namespace conservation::interval::internal

#endif  // CONSERVATION_INTERVAL_KERNEL_H_
