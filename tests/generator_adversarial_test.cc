// Generators on the adversarial series families of test_data.h: every
// generator × model × epsilon emits the same candidates, confidence bits
// included, at every thread count and with or without the largest-first
// early exit; and the families' confidence extremes produce the outputs
// they must (nothing when no interval qualifies, every anchor when every
// interval does).
//
// This suite also runs under the ASan/TSan ctest configurations
// (tools/sanitizer_smoke.sh) to cover sharded generation over saturated
// kernel clamps, degenerate gaps and the +infinity suffix sentinel.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/confidence.h"
#include "core/model.h"
#include "interval/generator.h"
#include "tests/test_data.h"

namespace conservation::interval {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;

constexpr int64_t kN = 700;

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

GeneratorOptions BaseOptions(TableauType type) {
  GeneratorOptions options;
  options.type = type;
  options.c_hat = type == TableauType::kHold ? 0.9 : 0.3;
  options.epsilon = 0.05;
  return options;
}

void ExpectSameCandidates(const std::vector<Candidate>& got,
                          const std::vector<Candidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].interval, want[k].interval) << "k=" << k;
    ASSERT_EQ(Bits(got[k].confidence), Bits(want[k].confidence)) << "k=" << k;
  }
}

bool SupportsEarlyExit(AlgorithmKind kind) {
  return kind == AlgorithmKind::kAreaBasedOpt ||
         kind == AlgorithmKind::kNonAreaBased ||
         kind == AlgorithmKind::kNonAreaBasedOpt;
}

class AdversarialDifferential
    : public ::testing::TestWithParam<std::tuple<const char*, TableauType>> {};

TEST_P(AdversarialDifferential, CandidatesIdenticalAcrossThreadsAndEarlyExit) {
  const auto& [family, type] = GetParam();
  const series::CumulativeSeries cumulative(
      testing_util::AdversarialCounts(family, kN));
  const bool dominated = cumulative.Dominates();
  EXPECT_EQ(dominated, std::string(family) != "saturated");

  const AlgorithmKind kinds[] = {
      AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
      AlgorithmKind::kAreaBasedOpt, AlgorithmKind::kNonAreaBased,
      AlgorithmKind::kNonAreaBasedOpt};
  for (const ConfidenceModel model :
       {ConfidenceModel::kBalance, ConfidenceModel::kCredit,
        ConfidenceModel::kDebit}) {
    const ConfidenceEvaluator eval(&cumulative, model);
    for (const AlgorithmKind kind : kinds) {
      if (model != ConfidenceModel::kBalance &&
          (kind == AlgorithmKind::kNonAreaBased ||
           kind == AlgorithmKind::kNonAreaBasedOpt)) {
        continue;
      }
      const auto generator = MakeGenerator(kind);
      for (const double epsilon : {0.05, 0.5}) {
        GeneratorOptions options = BaseOptions(type);
        options.epsilon = epsilon;
        SCOPED_TRACE(std::string(AlgorithmKindName(kind)) + " model=" +
                     core::ConfidenceModelName(model) +
                     " eps=" + std::to_string(epsilon));

        GeneratorStats baseline_stats;
        const std::vector<Candidate> baseline =
            generator->GenerateCandidates(eval, options, &baseline_stats);
        EXPECT_EQ(baseline_stats.candidates, baseline.size());
        EXPECT_EQ(baseline_stats.anchors_pruned, 0u);

        for (const int threads : {2, 3}) {
          options.num_threads = threads;
          GeneratorStats stats;
          ExpectSameCandidates(
              generator->GenerateCandidates(eval, options, &stats), baseline);
          // On dominated series the confidence tests are a function of the
          // anchors alone. Without dominance (saturated) the per-level
          // endpoint pointers are not monotone, so a chunk that re-bases
          // them may test a different number of intervals; the output
          // must still match.
          if (dominated) {
            EXPECT_EQ(stats.intervals_tested, baseline_stats.intervals_tested)
                << "threads=" << threads;
          }
        }
        options.num_threads = 1;

        if (SupportsEarlyExit(kind)) {
          // Largest-first early exit keeps each anchor's longest qualifying
          // interval, so the emitted intervals are unchanged.
          options.largest_first_early_exit = true;
          GeneratorStats early_stats;
          const std::vector<Candidate> early =
              generator->GenerateCandidates(eval, options, &early_stats);
          ASSERT_EQ(early.size(), baseline.size());
          for (size_t k = 0; k < early.size(); ++k) {
            ASSERT_EQ(early[k].interval, baseline[k].interval) << "k=" << k;
          }
          EXPECT_LE(early_stats.intervals_tested,
                    baseline_stats.intervals_tested);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdversarialDifferential,
    ::testing::Combine(
        ::testing::ValuesIn(testing_util::kAdversarialFamilies),
        ::testing::Values(TableauType::kHold, TableauType::kFail)));

// --- Confidence extremes ----------------------------------------------------

const AlgorithmKind kBalanceGenerators[] = {
    AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
    AlgorithmKind::kAreaBasedOpt, AlgorithmKind::kNonAreaBased,
    AlgorithmKind::kNonAreaBasedOpt};

// Hold confidence is tiny everywhere, so at c_hat 0.9 no generator may
// emit anything, at any thread count.
TEST(AdversarialExtremes, LowConfidenceHoldEmitsNothing) {
  const series::CumulativeSeries cumulative(
      testing_util::AdversarialCounts("low_conf_hold", kN));
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  for (const AlgorithmKind kind : kBalanceGenerators) {
    for (const int threads : {1, 3}) {
      GeneratorOptions options = BaseOptions(TableauType::kHold);
      options.num_threads = threads;
      EXPECT_TRUE(MakeGenerator(kind)->Generate(eval, options, nullptr).empty())
          << AlgorithmKindName(kind) << " threads=" << threads;
    }
  }
}

// Confidence is exactly 1 everywhere, so every hold anchor's optimum spans
// to the far end of the series: [i, n] for left anchors, [1, j] for right
// anchors.
TEST(AdversarialExtremes, UniformPassHoldReachesTheFarEndFromEveryAnchor) {
  const series::CumulativeSeries cumulative(
      testing_util::AdversarialCounts("uniform_pass", kN));
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  for (const AlgorithmKind kind : kBalanceGenerators) {
    const bool right_anchored = kind == AlgorithmKind::kNonAreaBased ||
                                kind == AlgorithmKind::kNonAreaBasedOpt;
    const std::vector<Interval> out = MakeGenerator(kind)->Generate(
        eval, BaseOptions(TableauType::kHold), nullptr);
    ASSERT_EQ(out.size(), static_cast<size_t>(kN)) << AlgorithmKindName(kind);
    std::vector<bool> seen(static_cast<size_t>(kN) + 1, false);
    for (const Interval& iv : out) {
      const int64_t anchor = right_anchored ? iv.end : iv.begin;
      EXPECT_EQ(right_anchored ? iv.begin : iv.end, right_anchored ? 1 : kN)
          << AlgorithmKindName(kind) << " " << iv.ToString();
      ASSERT_FALSE(seen[static_cast<size_t>(anchor)])
          << AlgorithmKindName(kind) << " " << iv.ToString();
      seen[static_cast<size_t>(anchor)] = true;
    }
  }
}

// The same series has no failing interval at c_hat 0.3: every generator
// comes back empty.
TEST(AdversarialExtremes, UniformPassFailEmitsNothing) {
  const series::CumulativeSeries cumulative(
      testing_util::AdversarialCounts("uniform_pass", kN));
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  for (const AlgorithmKind kind : kBalanceGenerators) {
    EXPECT_TRUE(MakeGenerator(kind)
                    ->Generate(eval, BaseOptions(TableauType::kFail), nullptr)
                    .empty())
        << AlgorithmKindName(kind);
  }
}

}  // namespace
}  // namespace conservation::interval
