// NonAreaBasedGenerator (NAB / NAB-opt): the improved algorithms of paper §V.
//
// AB's running time carries a log(area/Delta) factor. NAB removes the area
// dependence entirely by (1) anchoring intervals at *right* endpoints j and
// (2) sparsifying the *left* endpoints by geometric growth of interval
// length:
//   l_jh = smallest i <= j with j - i + 1 <= (1+eps)^h.
// Fixing the right endpoint is what makes length-based sparsification sound:
// the proofs of Theorems 8-9 bound the area contributed by the extra prefix
// [l_jk, i*-1] using the monotonicity of A and B, which fails for
// length-sparsified right endpoints. Balance model only (the credit/debit
// baselines break the proof's rewrite of area(l_jk, j)).
//
// Guarantees: hold (Thm 8) — per anchor j, if an interval [i*, j] of
// confidence >= c_hat exists, an interval [i', j] with i' <= i* and
// confidence >= c_hat/(1+eps) is produced. Fail (Thm 9) — the produced
// [i', j] has length >= (length of [i*, j]) / (1+eps).
//
// Two length schedules:
//   kGeometric: lengths floor((1+eps)^h), h = 0, 1, 2, ... — the plain NAB
//     of §V; when eps is small, many consecutive h give the same length and
//     the same interval is tested repeatedly.
//   kRecursive: len := max(len + 1, floor((1+eps) * len)) — the §VI
//     optimization (NAB-opt) that visits each length at most once. (The
//     paper prints this with `min`, which would never advance; `max` is the
//     evident intent and preserves the Theorem 8/9 guarantees: either the
//     step is +1, in which case the target length is tested exactly, or it
//     is a factor <= 1+eps.)

#ifndef CONSERVATION_INTERVAL_NON_AREA_BASED_H_
#define CONSERVATION_INTERVAL_NON_AREA_BASED_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "interval/generator.h"

namespace conservation::interval {

class NonAreaBasedGenerator : public CandidateGenerator {
 public:
  enum class LengthSchedule {
    kGeometric,  // plain NAB
    kRecursive,  // NAB-opt
  };

  explicit NonAreaBasedGenerator(LengthSchedule schedule)
      : schedule_(schedule) {}

  std::vector<Candidate> GenerateCandidates(
      const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
      GeneratorStats* stats) const override;

  AlgorithmKind kind() const override {
    return schedule_ == LengthSchedule::kGeometric
               ? AlgorithmKind::kNonAreaBased
               : AlgorithmKind::kNonAreaBasedOpt;
  }

  // The tested interval lengths, ascending, covering 1..max_length. Exposed
  // for tests and for the Fig. 9 analysis of duplicate tests.
  static std::vector<int64_t> MakeLengthSchedule(LengthSchedule schedule,
                                                 double epsilon,
                                                 int64_t max_length);

 private:
  LengthSchedule schedule_;
};

namespace internal {

class ConfidenceKernel;

// Reusable buffers for ProbeRightAnchor.
struct NabProbeScratch {
  std::vector<int64_t> level_is;
  std::vector<double> conf;
  std::vector<uint8_t> valid;
};

// One right anchor's NAB probe: right-anchors `kernel` at j, tests the left
// anchors max(1, j + 1 - len) for every schedule length below j plus the
// first one >= j (which clamps to i = 1), and returns the smallest
// qualifying left anchor with its confidence (0 when none qualifies).
// *tested and *batches accumulate. `lengths` is MakeLengthSchedule's output
// for some max_length >= j. Shared by NonAreaBasedGenerator and the
// incremental engine.
std::pair<int64_t, double> ProbeRightAnchor(
    int64_t j, const std::vector<int64_t>& lengths,
    const GeneratorOptions& options, ConfidenceKernel* kernel,
    NabProbeScratch* scratch, uint64_t* tested, uint64_t* batches);

}  // namespace internal

}  // namespace conservation::interval

#endif  // CONSERVATION_INTERVAL_NON_AREA_BASED_H_
