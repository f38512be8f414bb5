// Shared helpers for generating random dominated integer count data in
// tests. Integer counts with minimum positive value 1 keep the paper's
// "smallest nonzero area >= Delta" fact exact, so the approximation
// guarantees are testable without tolerance games.

#ifndef CONSERVATION_TESTS_TEST_DATA_H_
#define CONSERVATION_TESTS_TEST_DATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "series/cumulative.h"
#include "series/sequence.h"
#include "util/check.h"
#include "util/random.h"

namespace conservation::testing_util {

// Random dominated integer sequences of length n: inbound ~ Poisson(mean),
// outbound drains a random share of the accumulated slack, with occasional
// dry spells (zero outbound) so confidence varies widely.
inline series::CountSequence RandomDominatedCounts(uint64_t seed, int64_t n,
                                                   double mean = 5.0) {
  util::Rng rng(seed);
  std::vector<double> a;
  std::vector<double> b;
  a.reserve(static_cast<size_t>(n));
  b.reserve(static_cast<size_t>(n));
  double slack = 0.0;
  bool dry = false;
  for (int64_t t = 0; t < n; ++t) {
    if (rng.Bernoulli(0.1)) dry = !dry;  // toggle dry spells
    const double inbound = static_cast<double>(rng.Poisson(mean));
    const double available = slack + inbound;
    double outbound = 0.0;
    if (!dry && available > 0.0) {
      outbound = static_cast<double>(
          rng.UniformInt(0, static_cast<int64_t>(available)));
    }
    a.push_back(outbound);
    b.push_back(inbound);
    slack += inbound - outbound;
  }
  // Guarantee at least one positive count.
  if (slack == 0.0 && a.empty()) b.push_back(1.0);
  auto counts = series::CountSequence::Create(std::move(a), std::move(b));
  CR_CHECK(counts.ok());
  return std::move(counts).value();
}

// Adversarial series families for the generators, each pushing one part of
// the confidence range or the kernels to an extreme:
//   low_conf_hold - b is a fat Poisson stream, a only a few isolated
//                   spikes: hold confidence is tiny everywhere, so a high
//                   c_hat leaves no qualifying interval at all.
//   uniform_pass  - a == b, confidence is exactly 1 everywhere: every
//                   interval holds, and none fails at a low c_hat.
//   mixed         - random dominated counts; qualifying and empty anchors
//                   interleave.
//   saturated     - outbound spikes above the inbound baseline: raw areas
//                   go negative and the kernel clamps saturate.
//   constant      - a == b == const: exactly linear cumulative curves and
//                   an all-zero suffix-min gap.
inline constexpr const char* kAdversarialFamilies[] = {
    "low_conf_hold", "uniform_pass", "mixed", "saturated", "constant"};

inline series::CountSequence AdversarialCounts(const std::string& family,
                                               int64_t n) {
  if (family == "mixed") return RandomDominatedCounts(11, n);
  std::vector<double> a(static_cast<size_t>(n), 0.0);
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  util::Rng rng(29);
  for (int64_t t = 0; t < n; ++t) {
    const size_t k = static_cast<size_t>(t);
    if (family == "low_conf_hold") {
      b[k] = 2.0 + static_cast<double>(rng.Poisson(6.0));
      if (t % 97 == 13) a[k] = 1.0;
    } else if (family == "uniform_pass") {
      a[k] = b[k] = 1.0 + static_cast<double>(rng.Poisson(3.0));
    } else if (family == "saturated") {
      b[k] = 1.0;
      a[k] = rng.Bernoulli(0.15) ? static_cast<double>(rng.UniformInt(4, 16))
                                 : 0.0;
    } else if (family == "constant") {
      a[k] = b[k] = 3.0;
    } else {
      CR_UNREACHABLE();
    }
  }
  auto counts = series::CountSequence::Create(std::move(a), std::move(b));
  CR_CHECK(counts.ok());
  return std::move(counts).value();
}

}  // namespace conservation::testing_util

#endif  // CONSERVATION_TESTS_TEST_DATA_H_
