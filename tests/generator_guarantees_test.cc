// Parameterized validation of the paper's approximation guarantees
// (Theorems 2, 3, 6, 8, 9) against brute-force per-anchor optima, on random
// dominated integer data and on the adversarial families of test_data.h.
// Only applicable cases are instantiated: the NAB generators run the
// balance model alone (paper §V), and plain AB has no largest-first early
// exit.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <tuple>

#include "core/confidence.h"
#include "interval/generator.h"
#include "series/preprocess.h"
#include "tests/test_data.h"

namespace conservation::interval {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;

struct GuaranteeCase {
  AlgorithmKind algorithm;
  ConfidenceModel model;
  TableauType type;
  double c_hat;
  double epsilon;
  uint64_t seed;
};

class GeneratorGuarantees
    : public ::testing::TestWithParam<
          std::tuple<AlgorithmKind, ConfidenceModel, TableauType, double,
                     double, uint64_t>> {
 protected:
  GuaranteeCase Case() const {
    const auto& [algorithm, model, type, c_hat, epsilon, seed] = GetParam();
    return GuaranteeCase{algorithm, model, type, c_hat, epsilon, seed};
  }
};

// The largest-first early-exit check, instantiated only for the generators
// that support it (AB-opt, NAB, NAB-opt).
class GeneratorEarlyExit : public GeneratorGuarantees {};

// Checks one generator run against brute force over every anchor of an
// n-tick series: no produced interval misses the relaxed threshold, and
// every anchor with an exact-threshold optimum is covered as the theorems
// promise.
void ExpectGuarantees(AlgorithmKind algorithm, const ConfidenceEvaluator& eval,
                      int64_t n, const GeneratorOptions& options) {
  const auto generator = MakeGenerator(algorithm);
  GeneratorStats stats;
  const std::vector<Interval> produced =
      generator->Generate(eval, options, &stats);

  // --- No false positives (Theorems 2.1, 3.1, 6.1, 8.1, 9.1): every
  // produced interval satisfies the relaxed threshold.
  for (const Interval& iv : produced) {
    const std::optional<double> conf = eval.Confidence(iv.begin, iv.end);
    ASSERT_TRUE(conf.has_value()) << iv.ToString();
    EXPECT_TRUE(PassesRelaxedThreshold(*conf, options))
        << iv.ToString() << " conf=" << *conf;
  }

  // Index the produced intervals by anchor.
  std::map<int64_t, int64_t> end_by_begin;    // AB-style anchors
  std::map<int64_t, int64_t> begin_by_end;    // NAB-style anchors
  for (const Interval& iv : produced) {
    auto [it, inserted] = end_by_begin.emplace(iv.begin, iv.end);
    if (!inserted) it->second = std::max(it->second, iv.end);
    auto [it2, inserted2] = begin_by_end.emplace(iv.end, iv.begin);
    if (!inserted2) it2->second = std::min(it2->second, iv.begin);
  }

  const bool left_anchored = algorithm == AlgorithmKind::kAreaBased ||
                             algorithm == AlgorithmKind::kAreaBasedOpt;

  // --- No false negatives. Ground truth per anchor by brute force.
  if (left_anchored) {
    // Theorems 2.2 / 3.2 / 6.2: for each i with exact-threshold optimum
    // [i, j*], the algorithm produced [i, j'] with j' >= j*.
    for (int64_t i = 1; i <= n; ++i) {
      int64_t j_star = 0;
      for (int64_t j = i; j <= n; ++j) {
        const std::optional<double> conf = eval.Confidence(i, j);
        if (conf.has_value() && PassesExactThreshold(*conf, options)) {
          j_star = j;
        }
      }
      if (j_star == 0) continue;
      const auto it = end_by_begin.find(i);
      ASSERT_NE(it, end_by_begin.end())
          << "anchor " << i << " missing (j*=" << j_star << ")";
      EXPECT_GE(it->second, j_star) << "anchor " << i;
    }
  } else {
    for (int64_t j = 1; j <= n; ++j) {
      int64_t i_star = 0;
      for (int64_t i = j; i >= 1; --i) {
        const std::optional<double> conf = eval.Confidence(i, j);
        if (conf.has_value() && PassesExactThreshold(*conf, options)) {
          i_star = i;
        }
      }
      if (i_star == 0) continue;
      const auto it = begin_by_end.find(j);
      ASSERT_NE(it, begin_by_end.end())
          << "anchor j=" << j << " missing (i*=" << i_star << ")";
      if (options.type == TableauType::kHold) {
        // Theorem 8.2: i' <= i*.
        EXPECT_LE(it->second, i_star) << "anchor j=" << j;
      } else {
        // Theorem 9.2: the produced interval is at most (1+eps) shorter.
        const double produced_len = static_cast<double>(j - it->second + 1);
        const double optimal_len = static_cast<double>(j - i_star + 1);
        EXPECT_GE(produced_len * (1.0 + options.epsilon), optimal_len - 1e-9)
            << "anchor j=" << j;
      }
    }
  }
}

TEST_P(GeneratorGuarantees, NoFalsePositivesAndNoFalseNegatives) {
  const GuaranteeCase c = Case();
  const int64_t n = 80;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(c.seed, n);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, c.model);

  GeneratorOptions options;
  options.type = c.type;
  options.c_hat = c.c_hat;
  options.epsilon = c.epsilon;
  ExpectGuarantees(c.algorithm, eval, n, options);
}

// The same guarantees on each adversarial family × tableau type, for every
// generator and every model it supports, at a tight and a loose epsilon.
// The theorems assume B dominates A, so the series is first made dominated
// as DiscoverTableau does (a no-op for every family but saturated).
class AdversarialGuarantees
    : public ::testing::TestWithParam<std::tuple<const char*, TableauType>> {};

TEST_P(AdversarialGuarantees, NoFalsePositivesAndNoFalseNegatives) {
  const auto& [family, type] = GetParam();
  const int64_t n = 700;
  const series::CumulativeSeries cumulative(
      series::EnforceDominance(testing_util::AdversarialCounts(family, n)));
  ASSERT_TRUE(cumulative.Dominates());
  const AlgorithmKind algorithms[] = {
      AlgorithmKind::kAreaBased, AlgorithmKind::kAreaBasedOpt,
      AlgorithmKind::kNonAreaBased, AlgorithmKind::kNonAreaBasedOpt};
  for (const ConfidenceModel model :
       {ConfidenceModel::kBalance, ConfidenceModel::kCredit,
        ConfidenceModel::kDebit}) {
    const ConfidenceEvaluator eval(&cumulative, model);
    for (const AlgorithmKind algorithm : algorithms) {
      const bool left_anchored = algorithm == AlgorithmKind::kAreaBased ||
                                 algorithm == AlgorithmKind::kAreaBasedOpt;
      if (!left_anchored && model != ConfidenceModel::kBalance) continue;
      for (const double epsilon : {0.05, 0.5}) {
        GeneratorOptions options;
        options.type = type;
        options.c_hat = type == TableauType::kHold ? 0.9 : 0.3;
        options.epsilon = epsilon;
        SCOPED_TRACE(std::string(AlgorithmKindName(algorithm)) + " model=" +
                     core::ConfidenceModelName(model) +
                     " eps=" + std::to_string(epsilon));
        ExpectGuarantees(algorithm, eval, n, options);
      }
    }
  }
}

TEST_P(GeneratorEarlyExit, PreservesQualifyingOutput) {
  const GuaranteeCase c = Case();
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(c.seed + 17, 60);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, c.model);

  GeneratorOptions options;
  options.type = c.type;
  options.c_hat = c.c_hat;
  options.epsilon = c.epsilon;

  const auto generator = MakeGenerator(c.algorithm);
  GeneratorStats full_stats;
  const std::vector<Interval> full =
      generator->Generate(eval, options, &full_stats);

  options.largest_first_early_exit = true;
  GeneratorStats early_stats;
  const std::vector<Interval> early =
      generator->Generate(eval, options, &early_stats);

  // Early exit returns exactly the same per-anchor longest intervals...
  EXPECT_EQ(full, early);
  // ... with no more confidence tests.
  EXPECT_LE(early_stats.intervals_tested, full_stats.intervals_tested);
}

// The sweep over the given algorithms and models, crossed with every
// tableau type, c_hat, epsilon and seed.
template <typename Algorithms, typename Models>
auto Sweep(Algorithms algorithms, Models models) {
  return ::testing::Combine(
      algorithms, models,
      ::testing::Values(TableauType::kHold, TableauType::kFail),
      ::testing::Values(0.3, 0.7, 0.95),  // c_hat
      ::testing::Values(0.01, 0.2, 1.0),  // epsilon
      ::testing::Values(11u, 29u));       // seed
}

const auto kAllModels = ::testing::Values(
    ConfidenceModel::kBalance, ConfidenceModel::kCredit,
    ConfidenceModel::kDebit);
const auto kBalanceOnly = ::testing::Values(ConfidenceModel::kBalance);
const auto kNonAreaBased = ::testing::Values(
    AlgorithmKind::kNonAreaBased, AlgorithmKind::kNonAreaBasedOpt);

INSTANTIATE_TEST_SUITE_P(
    AreaBased, GeneratorGuarantees,
    Sweep(::testing::Values(AlgorithmKind::kAreaBased,
                            AlgorithmKind::kAreaBasedOpt),
          kAllModels));
INSTANTIATE_TEST_SUITE_P(NonAreaBased, GeneratorGuarantees,
                         Sweep(kNonAreaBased, kBalanceOnly));
INSTANTIATE_TEST_SUITE_P(
    AreaBasedOpt, GeneratorEarlyExit,
    Sweep(::testing::Values(AlgorithmKind::kAreaBasedOpt), kAllModels));
INSTANTIATE_TEST_SUITE_P(NonAreaBased, GeneratorEarlyExit,
                         Sweep(kNonAreaBased, kBalanceOnly));
INSTANTIATE_TEST_SUITE_P(
    Sweep, AdversarialGuarantees,
    ::testing::Combine(
        ::testing::ValuesIn(testing_util::kAdversarialFamilies),
        ::testing::Values(TableauType::kHold, TableauType::kFail)));

}  // namespace
}  // namespace conservation::interval
