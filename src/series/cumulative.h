// CumulativeSeries: the linear-time preprocessing layer of the paper (§III).
//
// From a CountSequence it derives, in O(n):
//   A_l = sum_{k<=l} a_k,  B_l = sum_{k<=l} b_k        (cumulative counts)
//   SA_l = sum_{k<=l} A_k, SB_l = sum_{k<=l} B_k       (prefix sums of those)
//   S_i = min_{i<=k<=n} (B_k - A_k)                    (suffix minimum gaps)
//   Delta = minimum positive a_i or b_i
//
// With these, every area/confidence query used by the candidate-generation
// algorithms is O(1):
//   sum_{l=i..j} A_l = SA_j - SA_{i-1}
//   area_A(i,j)      = (SA_j - SA_{i-1}) - (j-i+1) * H_i^A      (Theorem 1)
//
// All indices are 1-based per the paper; A(0) == B(0) == 0.

#ifndef CONSERVATION_SERIES_CUMULATIVE_H_
#define CONSERVATION_SERIES_CUMULATIVE_H_

#include <cstdint>
#include <vector>

#include "series/sequence.h"
#include "util/check.h"

namespace conservation::series {

class CumulativeSeries {
 public:
  // Builds all derived arrays in O(n).
  explicit CumulativeSeries(const CountSequence& counts);

  int64_t n() const { return n_; }

  // Result of an in-place Append: which prefix state survived the batch.
  struct AppendResult {
    int64_t old_n = 0;
    // Smallest index i <= old_n whose suffix-min gap S_i changed bitwise
    // (old_n + 1 when every old S_i is unchanged). Appends can only lower a
    // suffix of the old gaps, so [first_changed_s, old_n] is exactly the
    // dirty anchor range for the credit/debit models.
    int64_t first_changed_s = 0;
    // True when a new tick introduced a smaller positive count, lowering
    // delta(). The area-based algorithms' threshold ladders depend on
    // delta, so incremental maintenance must rebuild when this fires.
    bool delta_decreased = false;
  };

  // Appends m ticks (a[k], b[k] for k in [0, m)) in place, extending every
  // derived array with the constructor's exact recurrences so the result is
  // bitwise identical to rebuilding from the concatenated counts. The
  // suffix-min gaps are recomputed downward with a bitwise-equality early
  // stop, so the cost is O(m + changed suffix). Counts must be
  // non-negative.
  AppendResult Append(const double* a, const double* b, int64_t m);

  // Cumulative counts; valid for 0 <= l <= n. A(0) == B(0) == 0.
  double A(int64_t l) const { return a_data()[l]; }
  double B(int64_t l) const { return b_data()[l]; }

  // sum_{l=i..j} A_l for 1 <= i <= j <= n (and 0 when i > j).
  double SumA(int64_t i, int64_t j) const {
    if (i > j) return 0.0;
    return sa_data()[j] - sa_data()[i - 1];
  }
  double SumB(int64_t i, int64_t j) const {
    if (i > j) return 0.0;
    return sb_data()[j] - sb_data()[i - 1];
  }

  // S_i = min_{i<=k<=n} (B_k - A_k), for 1 <= i <= n. This is the "credit"
  // applied when discounting unmatched history (paper Definitions 3-4);
  // using the suffix minimum rather than B_{i-1}-A_{i-1} guarantees that the
  // shifted B still dominates the shifted A.
  double SuffixMinGap(int64_t i) const { return suffix_min_gap_data()[i]; }

  // The minimum positive a_i or b_i. The approximation algorithms use it as
  // the base area unit: the smallest non-zero area of any interval is >= Delta.
  double delta() const { return delta_; }

  // Raw flat views for the generators' inner-loop kernels
  // (interval/kernel.h): contiguous arrays indexed exactly like the
  // accessors above (a_data()[l] == A(l), valid for 0 <= l <= n;
  // suffix_min_gap_data()[i] == SuffixMinGap(i), valid for 1 <= i <= n+1).
  const double* a_data() const { return A_.data(); }
  const double* b_data() const { return B_.data(); }
  const double* sa_data() const { return SA_.data(); }
  const double* sb_data() const { return SB_.data(); }
  const double* suffix_min_gap_data() const { return suffix_min_gap_.data(); }

  // True when B dominates A (B_l >= A_l for all l), the standing assumption
  // of the paper. A small negative tolerance absorbs floating-point noise.
  bool Dominates(double tolerance = 1e-9) const;

  // Total conservation delay sum_{l=1..n} (B_l - A_l): by Lemma 2 this is
  // the delay of every rightward perfect matching (after topping A up to B).
  double TotalDelay() const { return sb_data()[n_] - sa_data()[n_]; }

 private:
  int64_t n_ = 0;
  std::vector<double> A_;               // size n+1
  std::vector<double> B_;               // size n+1
  std::vector<double> SA_;              // size n+1, SA_[l] = sum_{k<=l} A_k
  std::vector<double> SB_;              // size n+1
  std::vector<double> suffix_min_gap_;  // size n+2; [n+1] = +infinity sentinel
  double delta_ = 0.0;
};

}  // namespace conservation::series

#endif  // CONSERVATION_SERIES_CUMULATIVE_H_
