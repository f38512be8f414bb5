// ExhaustiveGenerator: the Theta(n^2) exact baseline of paper §III.
//
// For each left endpoint i it scans every right endpoint j and returns the
// largest j such that [i, j] satisfies the exact confidence predicate.
// Confidence is not monotone in j, so the full scan is necessary for
// exactness. Serves as the ground truth for the approximation-guarantee
// tests and as the "naive" competitor in the Fig. 6 benchmark.

#ifndef CONSERVATION_INTERVAL_EXHAUSTIVE_H_
#define CONSERVATION_INTERVAL_EXHAUSTIVE_H_

#include <cstdint>
#include <vector>

#include "interval/generator.h"

namespace conservation::interval {

class ExhaustiveGenerator : public CandidateGenerator {
 public:
  std::vector<Candidate> GenerateCandidates(
      const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
      GeneratorStats* stats) const override;

  AlgorithmKind kind() const override { return AlgorithmKind::kExhaustive; }
};

namespace internal {

class ConfidenceKernel;

// Scans the kernel's current anchor over the endpoints [from, n] in
// ConfidenceBatch blocks, each read backwards for its last qualifying
// endpoint; a later block's hit overwrites an earlier one's, so
// (*best_j, *best_conf) ends at the largest qualifying j in [from, n] and is
// untouched when none qualifies. Returns the ConfidenceBatch calls made.
// Shared by ExhaustiveGenerator and the incremental engine, which resumes
// an old anchor at from = old_n + 1.
uint64_t ScanLastQualifying(const ConfidenceKernel& kernel,
                            const GeneratorOptions& options, int64_t from,
                            int64_t n, int64_t* best_j, double* best_conf);

}  // namespace internal

}  // namespace conservation::interval

#endif  // CONSERVATION_INTERVAL_EXHAUSTIVE_H_
