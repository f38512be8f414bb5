// AreaBasedGenerator (AB): the approximation algorithm of paper §III.
//
// For each left anchor i it tests only the sparse right endpoints
//   r_il = largest j >= i with area(i, j) <= Delta * (1 + eps)^l
// where `area` is area_B for hold tableaux and area_A for fail tableaux
// (balance-model area_A for the credit model, §III.D). Because the baselines
// H_i are monotone nondecreasing in i (Lemmas 4-5 and Theorem 5), the r_il
// are nondecreasing in i for each level l, so one never-retreating pointer
// per level finds all of them in O(n) amortized time per level:
// O(n log_{1+eps}(area(1,n)/Delta)) total.
//
// Guarantees (Theorems 2, 3, 6): every emitted interval passes the relaxed
// threshold, and for each anchor with an exact-threshold interval [i, j*]
// the emitted interval [i, j'] has j' >= j*.
//
// Fail tableaux additionally run a "zero level" (T = 0) that finds the
// largest j with area_A(i, j) = 0 — such intervals have confidence exactly 0
// and would otherwise be missed (the easy special case the paper notes in
// §III.C-D).

#ifndef CONSERVATION_INTERVAL_AREA_BASED_H_
#define CONSERVATION_INTERVAL_AREA_BASED_H_

#include <vector>

#include "interval/generator.h"

namespace conservation::interval {

class AreaBasedGenerator : public CandidateGenerator {
 public:
  std::vector<Candidate> GenerateCandidates(
      const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
      GeneratorStats* stats) const override;

  AlgorithmKind kind() const override { return AlgorithmKind::kAreaBased; }
};

namespace internal {

// AB's level thresholds T_l = delta * growth^l, l = 0..L, with L bounded by
// area(1, n) <= Sum(1, n); fail tableaux get a zero level T = 0 prepended.
// Shared by AB and the incremental engine (incr/incremental.h).
std::vector<double> AbThresholds(const series::CumulativeSeries& series,
                                 core::TableauType type, double delta,
                                 double growth);

// The first threshold index AB sweeps for an anchor whose own area(i, i) is
// `anchor_area`: levels below it have no breakpoint and are skipped, keeping
// one level of margin against rounding. For fail tableaux the zero level
// (index 0) is still swept before this one.
size_t AbFirstLevel(double anchor_area, double delta, double growth,
                    bool fail_type);

// Credit-model fail tableaux: the interval lengths floor(growth^h) < n,
// then n, that AB and AB-opt probe inside an anchor's zero-area prefix
// (area_based.cc explains why). Duplicates are kept.
std::vector<int64_t> ZeroPrefixLengths(int64_t n, double growth);

}  // namespace internal

}  // namespace conservation::interval

#endif  // CONSERVATION_INTERVAL_AREA_BASED_H_
