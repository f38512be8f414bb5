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

#ifndef CONSERVATION_INTERVAL_AREA_BASED_OPT_H_
#define CONSERVATION_INTERVAL_AREA_BASED_OPT_H_

#include <vector>

#include "interval/generator.h"

namespace conservation::interval {

class AreaBasedOptGenerator : public CandidateGenerator {
 public:
  std::vector<Candidate> GenerateCandidates(
      const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
      GeneratorStats* stats) const override;

  AlgorithmKind kind() const override { return AlgorithmKind::kAreaBasedOpt; }
};

}  // namespace conservation::interval

#endif  // CONSERVATION_INTERVAL_AREA_BASED_OPT_H_
