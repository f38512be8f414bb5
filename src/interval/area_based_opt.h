// AreaBasedOptGenerator (AB-opt): the improved area-based variant of §VI.
//
// Plain AB insists on the absolute thresholds Delta*(1+eps)^l, so when eps is
// small many consecutive levels share the same breakpoint and the same
// interval is tested repeatedly. AB-opt instead finds, per anchor, each next
// breakpoint by a search over the nondecreasing area so that consecutive
// tested areas grow by a factor as close as possible to (1+eps):
//   r_{l} = largest j with area(i, j) <= (1+eps) * max(area(i, r_{l-1}), Delta)
// (forced to advance by at least one position). Every breakpoint is distinct,
// so no interval is tested twice. The paper binary-searches each breakpoint
// and pays a log(n) factor per breakpoint, which is why it finds AB-opt
// slower than NAB-opt (Fig. 10). Here each search starts one previous step
// past r_{l-1} and gallops (ConfidenceKernel::LargestEndpointWithin): the
// step changes slowly along the chain, so a breakpoint costs about
// 2 log2(|step change| + 2) area probes instead of log2(n).
//
// The approximation guarantee is preserved: any j* falls in some
// (r_{l-1}, r_l], and either area(i, r_l) <= (1+eps) * area(i, j*) holds via
// monotonicity, or the advance was forced and then r_l == j* exactly.
//
// The per-anchor walk (internal::AbOptWalk) is also the incremental engine's
// (incr/incremental.h): a fresh run advances each anchor once from a fresh
// AbOptState, a batch advances each anchor on from where its state stopped.

#ifndef CONSERVATION_INTERVAL_AREA_BASED_OPT_H_
#define CONSERVATION_INTERVAL_AREA_BASED_OPT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "interval/generator.h"
#include "interval/kernel.h"

namespace conservation::interval {

class AreaBasedOptGenerator : public CandidateGenerator {
 public:
  std::vector<Candidate> GenerateCandidates(
      const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
      GeneratorStats* stats) const override;

  AlgorithmKind kind() const override { return AlgorithmKind::kAreaBasedOpt; }
};

namespace internal {

// One anchor's place in the walk: the zero-area search (credit-fail only),
// the initial search against Delta, then the breakpoint chain. A search
// result below n settles for good (the area is nondecreasing in j, so
// area(result + 1) > threshold survives every append); a result at n parks
// the anchor on that search until a later call re-runs it.
struct AbOptState {
  enum Search : uint8_t { kZero = 0, kInit = 1, kChain = 2 };
  uint8_t search = kZero;  // where the next call starts
  bool parked = false;
  int64_t cur = 0;  // the last settled chain breakpoint
  // The caller's fold of the settled breakpoints' confidence tests (the
  // incremental engine's candidate); the walk itself ignores it.
  int64_t best_j = 0;
  double best_conf = 0.0;
};

// The breakpoint list a walk fills and its confidence-test lanes. Callers
// that walk again and again keep one, so that no walk allocates.
struct AbOptScratch {
  std::vector<int64_t> breakpoints;
  std::vector<double> conf;
  std::vector<uint8_t> valid;
};

// The walk over a series of length n with its constants and counters; one
// per thread.
struct AbOptWalk {
  AbOptWalk(const core::ConfidenceEvaluator& eval,
            const GeneratorOptions& options, double delta,
            AbOptScratch* scratch);

  // Advances *state at anchor i (and positions the kernel there). Every
  // search runs: a result below n settles and a result at n parks. Fills
  // scratch.breakpoints ascending and returns the index of the first
  // tentative one, the parked search's, which the next call finds again
  // with all that follow it. From a fresh state this is the anchor's whole
  // walk, with guesses 1 for the zero and init searches and the previous
  // step along the chain. In a call that resumes a parked anchor every
  // search probes n first: one probe while the anchor stays parked.
  size_t Advance(int64_t i, AbOptState* state);

  // Tests scratch.breakpoints[begin, end), past *best_j, through
  // LongestQualifying and moves (*best_j, *best_conf) to the longest one
  // passing the relaxed threshold, if any.
  void FoldLongestQualifying(size_t begin, size_t end, int64_t* best_j,
                             double* best_conf);

  const GeneratorOptions& options;
  ConfidenceKernel kernel;
  const int64_t n;
  const double delta;
  const double growth;
  // Credit-fail only (empty otherwise, which skips the zero search).
  const std::vector<int64_t> zero_prefix_lengths;
  AbOptScratch& scratch;
  uint64_t probes = 0;  // endpoint_steps
  uint64_t tested = 0;
  uint64_t batches = 0;
};

}  // namespace internal

}  // namespace conservation::interval

#endif  // CONSERVATION_INTERVAL_AREA_BASED_OPT_H_
