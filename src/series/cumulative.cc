#include "series/cumulative.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace conservation::series {

CumulativeSeries::CumulativeSeries(const CountSequence& counts)
    : n_(counts.n()) {
  const size_t size = static_cast<size_t>(n_) + 1;
  A_.resize(size);
  B_.resize(size);
  SA_.resize(size);
  SB_.resize(size);
  A_[0] = B_[0] = SA_[0] = SB_[0] = 0.0;

  delta_ = std::numeric_limits<double>::infinity();
  for (int64_t l = 1; l <= n_; ++l) {
    const double a = counts.a(l);
    const double b = counts.b(l);
    const size_t k = static_cast<size_t>(l);
    A_[k] = A_[k - 1] + a;
    B_[k] = B_[k - 1] + b;
    SA_[k] = SA_[k - 1] + A_[k];
    SB_[k] = SB_[k - 1] + B_[k];
    if (a > 0.0) delta_ = std::min(delta_, a);
    if (b > 0.0) delta_ = std::min(delta_, b);
  }
  // CountSequence::Create guarantees at least one positive count.
  CR_CHECK(delta_ < std::numeric_limits<double>::infinity());

  suffix_min_gap_.resize(size + 1);
  suffix_min_gap_[size] = std::numeric_limits<double>::infinity();
  for (int64_t i = n_; i >= 1; --i) {
    const size_t k = static_cast<size_t>(i);
    suffix_min_gap_[k] = std::min(suffix_min_gap_[k + 1], B_[k] - A_[k]);
  }
  if (!suffix_min_gap_.empty()) {
    suffix_min_gap_[0] = suffix_min_gap_[std::min<size_t>(1, size - 1)];
  }
}

CumulativeSeries::AppendResult CumulativeSeries::Append(const double* a,
                                                        const double* b,
                                                        int64_t m) {
  CR_CHECK(m >= 0);
  AppendResult result;
  result.old_n = n_;
  const int64_t new_n = n_ + m;
  const size_t new_size = static_cast<size_t>(new_n) + 1;
  A_.resize(new_size);
  B_.resize(new_size);
  SA_.resize(new_size);
  SB_.resize(new_size);
  for (int64_t l = 1; l <= m; ++l) {
    const double av = a[l - 1];
    const double bv = b[l - 1];
    CR_CHECK(av >= 0.0 && bv >= 0.0);
    const size_t k = static_cast<size_t>(n_ + l);
    A_[k] = A_[k - 1] + av;
    B_[k] = B_[k - 1] + bv;
    SA_[k] = SA_[k - 1] + A_[k];
    SB_[k] = SB_[k - 1] + B_[k];
    if (av > 0.0) delta_ = std::min(delta_, av);
    if (bv > 0.0) delta_ = std::min(delta_, bv);
  }

  // Recompute the suffix minima downward from the new tail. Once an old
  // entry's recomputed value matches its stored bits, every entry below it
  // is fed identical inputs by the recurrence and is already correct, so
  // the walk stops. Bitwise (not ==) comparison keeps the early stop exact
  // across -0.0/+0.0.
  suffix_min_gap_.resize(new_size + 1);
  suffix_min_gap_[new_size] = std::numeric_limits<double>::infinity();
  result.first_changed_s = new_n + 1;
  for (int64_t i = new_n; i >= 1; --i) {
    const size_t k = static_cast<size_t>(i);
    const double v = std::min(suffix_min_gap_[k + 1], B_[k] - A_[k]);
    if (i <= result.old_n) {
      uint64_t new_bits;
      uint64_t old_bits;
      std::memcpy(&new_bits, &v, sizeof(new_bits));
      std::memcpy(&old_bits, &suffix_min_gap_[k], sizeof(old_bits));
      if (new_bits == old_bits) break;
    }
    suffix_min_gap_[k] = v;
    result.first_changed_s = i;
  }
  suffix_min_gap_[0] = suffix_min_gap_[std::min<size_t>(1, new_size - 1)];

  n_ = new_n;
  return result;
}

bool CumulativeSeries::Dominates(double tolerance) const {
  for (int64_t l = 1; l <= n_; ++l) {
    if (B(l) - A(l) < -tolerance) return false;
  }
  return true;
}

}  // namespace conservation::series
