// Edge-case and adversarial inputs for the candidate generators: the
// degenerate shapes that motivate the paper's design choices, including the
// §VII counterexample showing why overlapping-interval similarity (the
// assumption behind the sequential-dependency algorithm of [12]) fails for
// conservation rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/confidence.h"
#include "interval/generator.h"
#include "series/cumulative.h"
#include "series/sequence.h"

namespace conservation::interval {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;
using series::CountSequence;
using series::CumulativeSeries;

std::vector<Interval> RunGen(const CountSequence& counts, AlgorithmKind kind,
                          TableauType type, ConfidenceModel model,
                          double c_hat, double epsilon = 0.1) {
  const CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, model);
  GeneratorOptions options;
  options.type = type;
  options.c_hat = c_hat;
  options.epsilon = epsilon;
  return MakeGenerator(kind)->Generate(eval, options, nullptr);
}

constexpr AlgorithmKind kAllKinds[] = {
    AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
    AlgorithmKind::kAreaBasedOpt, AlgorithmKind::kNonAreaBased,
    AlgorithmKind::kNonAreaBasedOpt};

TEST(GeneratorEdgeCases, SingleTick) {
  auto counts = CountSequence::Create({3}, {3});
  ASSERT_TRUE(counts.ok());
  for (const AlgorithmKind kind : kAllKinds) {
    const auto hold = RunGen(*counts, kind, TableauType::kHold,
                          ConfidenceModel::kBalance, 0.9);
    ASSERT_EQ(hold.size(), 1u) << AlgorithmKindName(kind);
    EXPECT_EQ(hold[0], (Interval{1, 1})) << AlgorithmKindName(kind);
    const auto fail = RunGen(*counts, kind, TableauType::kFail,
                          ConfidenceModel::kBalance, 0.5);
    EXPECT_TRUE(fail.empty()) << AlgorithmKindName(kind);  // conf = 1
  }
}

TEST(GeneratorEdgeCases, AllOutboundZero) {
  // Total loss: every interval has confidence 0.
  auto counts = CountSequence::Create({0, 0, 0, 0}, {2, 3, 1, 4});
  ASSERT_TRUE(counts.ok());
  for (const AlgorithmKind kind : kAllKinds) {
    const auto hold = RunGen(*counts, kind, TableauType::kHold,
                          ConfidenceModel::kBalance, 0.5);
    EXPECT_TRUE(hold.empty()) << AlgorithmKindName(kind);
    const auto fail = RunGen(*counts, kind, TableauType::kFail,
                          ConfidenceModel::kBalance, 0.5);
    // The whole range fails; every anchor produces a candidate reaching n.
    ASSERT_FALSE(fail.empty()) << AlgorithmKindName(kind);
    int64_t latest = 0;
    for (const Interval& iv : fail) latest = std::max(latest, iv.end);
    EXPECT_EQ(latest, 4) << AlgorithmKindName(kind);
  }
}

TEST(GeneratorEdgeCases, PerfectConservation) {
  auto counts = CountSequence::Create({5, 5, 5, 5, 5}, {5, 5, 5, 5, 5});
  ASSERT_TRUE(counts.ok());
  for (const AlgorithmKind kind : kAllKinds) {
    const auto hold = RunGen(*counts, kind, TableauType::kHold,
                          ConfidenceModel::kBalance, 1.0);
    ASSERT_FALSE(hold.empty()) << AlgorithmKindName(kind);
    // Some candidate spans everything.
    bool full = false;
    for (const Interval& iv : hold) full |= iv == Interval{1, 5};
    EXPECT_TRUE(full) << AlgorithmKindName(kind);
  }
}

TEST(GeneratorEdgeCases, Section7Counterexample) {
  // §VII: "take any interval and add a single arbitrarily large b_i with a
  // corresponding a_i = 0" — two highly-overlapping intervals of similar
  // size then have wildly different confidences, which is why the
  // interval-finding machinery of [12] cannot be reused.
  std::vector<double> a(20, 10.0);
  std::vector<double> b(20, 10.0);
  b[10] = 10000.0;  // tick 11: inbound burst, no outbound
  a[10] = 0.0;
  auto counts = CountSequence::Create(a, b);
  ASSERT_TRUE(counts.ok());
  const CumulativeSeries cumulative(*counts);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  const double before = *eval.Confidence(1, 10);
  const double with_burst = *eval.Confidence(1, 11);
  EXPECT_GT(before, 0.9);
  EXPECT_LT(with_burst, 0.2);
  // And the generators still satisfy their guarantees around the spike:
  for (const AlgorithmKind kind :
       {AlgorithmKind::kAreaBased, AlgorithmKind::kAreaBasedOpt}) {
    const auto hold = RunGen(*counts, kind, TableauType::kHold,
                          ConfidenceModel::kBalance, 0.9, 0.01);
    // Anchor 1's exact optimum is [1, 10]; approximate output must reach it.
    const auto anchored =
        std::find_if(hold.begin(), hold.end(),
                     [](const Interval& iv) { return iv.begin == 1; });
    ASSERT_NE(anchored, hold.end()) << AlgorithmKindName(kind);
    EXPECT_GE(anchored->end, 10) << AlgorithmKindName(kind);
  }
}

TEST(GeneratorEdgeCases, LongZeroPlateausDoNotBreakFailGeneration) {
  // Inbound and outbound both flat-zero in the middle: areas stall, which
  // stresses the breakpoint logic (undefined confidences, zero levels).
  std::vector<double> a = {4, 4, 0, 0, 0, 0, 0, 0, 4, 4};
  std::vector<double> b = {4, 4, 0, 0, 0, 0, 0, 0, 4, 4};
  auto counts = CountSequence::Create(a, b);
  ASSERT_TRUE(counts.ok());
  for (const AlgorithmKind kind : kAllKinds) {
    for (const ConfidenceModel model :
         {ConfidenceModel::kBalance, ConfidenceModel::kCredit,
          ConfidenceModel::kDebit}) {
      const bool nab = kind == AlgorithmKind::kNonAreaBased ||
                       kind == AlgorithmKind::kNonAreaBasedOpt;
      if (nab && model != ConfidenceModel::kBalance) continue;
      const auto fail = RunGen(*counts, kind, TableauType::kFail, model, 0.4);
      // Perfect conservation: nothing fails at 0.4 (confidence is 1 or
      // undefined everywhere).
      EXPECT_TRUE(fail.empty())
          << AlgorithmKindName(kind) << "/" << ConfidenceModelName(model);
    }
  }
}

TEST(GeneratorEdgeCases, CreditFailZeroAreaPrefixIsCovered) {
  // Regression test for the credit-model fail special case: within the
  // zero-balance-area prefix the credit confidence is nonzero (it falls as
  // j grows, since B is nondecreasing), so the zero level must not be read
  // as confidence 0. Construct a flat-A prefix with a growing gap so
  // intermediate lengths qualify.
  std::vector<double> a = {1, 0, 0, 0, 0, 0, 0, 0, 0, 9};
  std::vector<double> b = {2, 3, 1, 4, 2, 3, 1, 2, 3, 1};
  auto counts = CountSequence::Create(a, b);
  ASSERT_TRUE(counts.ok());
  const CumulativeSeries cumulative(*counts);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kCredit);

  GeneratorOptions options;
  options.type = TableauType::kFail;
  options.c_hat = 0.5;
  options.epsilon = 0.05;

  // Exhaustive ground truth per anchor.
  const auto exact = MakeGenerator(AlgorithmKind::kExhaustive)
                         ->Generate(eval, options, nullptr);
  for (const AlgorithmKind kind :
       {AlgorithmKind::kAreaBased, AlgorithmKind::kAreaBasedOpt}) {
    const auto approx = MakeGenerator(kind)->Generate(eval, options, nullptr);
    for (const Interval& optimal : exact) {
      const auto anchored = std::find_if(
          approx.begin(), approx.end(),
          [&](const Interval& iv) { return iv.begin == optimal.begin; });
      ASSERT_NE(anchored, approx.end())
          << AlgorithmKindName(kind) << " missing anchor "
          << optimal.begin;
      EXPECT_GE(anchored->end, optimal.end) << AlgorithmKindName(kind);
    }
  }
}

TEST(GeneratorEdgeCases, StopOnFullCoverShortCircuits) {
  auto counts = CountSequence::Create({5, 5, 5, 5, 5, 5, 5, 5},
                                      {5, 5, 5, 5, 5, 5, 5, 5});
  ASSERT_TRUE(counts.ok());
  const CumulativeSeries cumulative(*counts);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = TableauType::kHold;
  options.c_hat = 0.99;
  options.epsilon = 0.1;
  options.stop_on_full_cover = true;
  for (const AlgorithmKind kind : kAllKinds) {
    GeneratorStats stats;
    const auto out = MakeGenerator(kind)->Generate(eval, options, &stats);
    ASSERT_EQ(out.size(), 1u) << AlgorithmKindName(kind);
    EXPECT_EQ(out[0], (Interval{1, 8})) << AlgorithmKindName(kind);
  }
}

TEST(GeneratorEdgeCases, FractionalCounts) {
  // Non-integer data (credit-card-like); generators must remain exact with
  // respect to their guarantees even when Delta is fractional.
  auto counts = CountSequence::Create({0.25, 1.75, 0.5, 2.0},
                                      {1.0, 1.5, 1.0, 1.0});
  ASSERT_TRUE(counts.ok());
  for (const AlgorithmKind kind : kAllKinds) {
    const auto hold = RunGen(*counts, kind, TableauType::kHold,
                          ConfidenceModel::kBalance, 0.5, 0.01);
    for (const Interval& iv : hold) {
      const CumulativeSeries cumulative(*counts);
      const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
      const auto conf = eval.Confidence(iv.begin, iv.end);
      ASSERT_TRUE(conf.has_value());
      EXPECT_GE(*conf, 0.5 / 1.01) << AlgorithmKindName(kind);
    }
  }
}

TEST(GeneratorEdgeCases, CandidatesLeaveInPositionOrder) {
  // GenerateCandidates returns candidates strictly increasing by position
  // at every thread count. NAB probes right anchors and reorders its output
  // by begin; a delayed outbound prefix makes many anchors share begin 1,
  // so that reorder must also keep ends ascending within one begin.
  std::vector<double> a(600, 4.0);
  std::vector<double> b(600, 4.0);
  std::fill(a.begin(), a.begin() + 200, 0.0);
  a[200] = 4.0 * 201;  // the delayed responses all arrive at tick 201
  for (size_t t = 300; t < 600; t += 7) a[t] = 1.0;
  auto counts = CountSequence::Create(a, b);
  ASSERT_TRUE(counts.ok());
  const CumulativeSeries cumulative(*counts);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  for (const AlgorithmKind kind : kAllKinds) {
    for (const TableauType type : {TableauType::kHold, TableauType::kFail}) {
      for (const int threads : {1, 3}) {
        GeneratorOptions options;
        options.type = type;
        options.c_hat = type == TableauType::kHold ? 0.9 : 0.6;
        options.epsilon = 0.1;
        options.num_threads = threads;
        const std::vector<Interval> out =
            MakeGenerator(kind)->Generate(eval, options, nullptr);
        ASSERT_FALSE(out.empty()) << AlgorithmKindName(kind);
        const auto unordered = std::adjacent_find(
            out.begin(), out.end(), [](const Interval& x, const Interval& y) {
              return !ByPosition(x, y);
            });
        EXPECT_EQ(unordered, out.end())
            << AlgorithmKindName(kind) << " threads=" << threads << " at "
            << unordered->ToString();
        const bool right_anchored = kind == AlgorithmKind::kNonAreaBased ||
                                    kind == AlgorithmKind::kNonAreaBasedOpt;
        if (right_anchored && type == TableauType::kFail) {
          EXPECT_GE(std::count_if(out.begin(), out.end(),
                                  [](const Interval& iv) {
                                    return iv.begin == 1;
                                  }),
                    2)
              << AlgorithmKindName(kind);
        }
      }
    }
  }
}

}  // namespace
}  // namespace conservation::interval
