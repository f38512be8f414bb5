// ConfidenceEvaluator: O(1) interval confidence for all three models.
//
// Implements Definitions 2-4 of the paper via the closed forms of Theorem 1:
//   area_A(i,j) = (SA_j - SA_{i-1}) - (j-i+1) * H_i^A
//   area_B(i,j) = (SB_j - SB_{i-1}) - (j-i+1) * H_i^B
//   conf(i,j)   = area_A(i,j) / area_B(i,j)       (if the denominator > 0)
// where the baselines are (S_i = min_{k>=i}(B_k - A_k)):
//   balance: H_i^A = H_i^B = A_{i-1}
//   credit : H_i^A = A_{i-1} - S_i,   H_i^B = A_{i-1}
//   debit  : H_i^A = A_{i-1},         H_i^B = A_{i-1} + S_i

#ifndef CONSERVATION_CORE_CONFIDENCE_H_
#define CONSERVATION_CORE_CONFIDENCE_H_

#include <cstdint>
#include <optional>

#include "core/model.h"
#include "series/cumulative.h"
#include "util/check.h"

namespace conservation::core {

class ConfidenceEvaluator {
 public:
  // Does not take ownership: `series` must outlive the evaluator. Requires
  // B to dominate A (run series::EnforceDominance first if unsure).
  ConfidenceEvaluator(const series::CumulativeSeries* series,
                      ConfidenceModel model)
      : series_(series), model_(model) {
    CR_CHECK(series != nullptr);
  }

  ConfidenceModel model() const { return model_; }
  const series::CumulativeSeries& series() const { return *series_; }
  int64_t n() const { return series_->n(); }

  // Baselines H_i^A / H_i^B for 1 <= i <= n.
  double BaselineA(int64_t i) const {
    const double prev = series_->A(i - 1);
    return model_ == ConfidenceModel::kCredit
               ? prev - series_->SuffixMinGap(i)
               : prev;
  }
  double BaselineB(int64_t i) const {
    const double prev = series_->A(i - 1);
    return model_ == ConfidenceModel::kDebit
               ? prev + series_->SuffixMinGap(i)
               : prev;
  }

  // Model-dependent numerator/denominator areas for 1 <= i <= j <= n.
  // Non-negative when B dominates A (values are clamped at 0 to shed
  // floating-point noise).
  double AreaA(int64_t i, int64_t j) const {
    const double raw =
        series_->SumA(i, j) - static_cast<double>(j - i + 1) * BaselineA(i);
    return raw < 0.0 ? 0.0 : raw;
  }
  double AreaB(int64_t i, int64_t j) const {
    const double raw =
        series_->SumB(i, j) - static_cast<double>(j - i + 1) * BaselineB(i);
    return raw < 0.0 ? 0.0 : raw;
  }

  // conf(i,j); nullopt when the denominator is not positive (the paper
  // leaves the confidence undefined there).
  std::optional<double> Confidence(int64_t i, int64_t j) const {
    const double denom = AreaB(i, j);
    if (denom <= 0.0) return std::nullopt;
    return AreaA(i, j) / denom;
  }

 private:
  const series::CumulativeSeries* series_;
  ConfidenceModel model_;
};

}  // namespace conservation::core

#endif  // CONSERVATION_CORE_CONFIDENCE_H_
