#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/conservation_rule.h"
#include "core/tableau.h"
#include "tests/test_data.h"

namespace conservation::core {
namespace {

TEST(TableauTest, RejectsBadThresholds) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(1, 30);
  auto rule = ConservationRule::Create(counts);
  ASSERT_TRUE(rule.ok());

  TableauRequest request;
  request.c_hat = 1.5;
  EXPECT_FALSE(rule->DiscoverTableau(request).ok());
  request.c_hat = 0.8;
  request.s_hat = -0.1;
  EXPECT_FALSE(rule->DiscoverTableau(request).ok());
  request.s_hat = 0.5;
  request.epsilon = 0.0;
  EXPECT_FALSE(rule->DiscoverTableau(request).ok());

  // A NaN compares false against every bound, so a range check written as
  // `x < lo || x > hi` lets it through; NaN and ±Inf must each be refused
  // with a message naming the field.
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    for (const std::string field : {"c_hat", "s_hat", "epsilon"}) {
      TableauRequest bad_request;
      if (field == "c_hat") bad_request.c_hat = bad;
      if (field == "s_hat") bad_request.s_hat = bad;
      if (field == "epsilon") bad_request.epsilon = bad;
      const util::Status status = ValidateTableauRequest(bad_request);
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
          << field << " = " << bad;
      EXPECT_NE(status.message().find(field), std::string::npos)
          << status.message();
      EXPECT_FALSE(rule->DiscoverTableau(bad_request).ok()) << field;
    }
  }
}

TEST(TableauTest, ToGeneratorOptionsCopiesEveryGeneratorField) {
  // Every field differs from its default, so a field the copy drops shows.
  TableauRequest request;
  request.type = TableauType::kFail;
  request.c_hat = 0.37;
  request.epsilon = 0.125;
  request.delta_mode = interval::DeltaMode::kOne;
  request.stop_on_full_cover = true;
  request.largest_first_early_exit = true;
  request.num_threads = 3;
  const interval::GeneratorOptions options = ToGeneratorOptions(request);
  EXPECT_EQ(options.type, TableauType::kFail);
  EXPECT_EQ(options.c_hat, 0.37);
  EXPECT_EQ(options.epsilon, 0.125);
  EXPECT_EQ(options.delta_mode, interval::DeltaMode::kOne);
  EXPECT_TRUE(options.stop_on_full_cover);
  EXPECT_TRUE(options.largest_first_early_exit);
  EXPECT_EQ(options.num_threads, 3);
}

TEST(TableauTest, RejectsNabWithNonBalanceModel) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(2, 30);
  auto rule = ConservationRule::Create(counts);
  ASSERT_TRUE(rule.ok());

  TableauRequest request;
  request.algorithm = interval::AlgorithmKind::kNonAreaBased;
  request.model = ConfidenceModel::kCredit;
  auto result = rule->DiscoverTableau(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TableauTest, ExhaustiveIgnoresEpsilonValidation) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(3, 30);
  auto rule = ConservationRule::Create(counts);
  ASSERT_TRUE(rule.ok());
  TableauRequest request;
  request.algorithm = interval::AlgorithmKind::kExhaustive;
  request.epsilon = 0.0;
  EXPECT_TRUE(rule->DiscoverTableau(request).ok());
  request.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(rule->DiscoverTableau(request).ok());
}

TEST(TableauTest, HoldTableauOnPerfectDataIsOneInterval) {
  auto rule = ConservationRule::Create({5, 5, 5, 5}, {5, 5, 5, 5});
  ASSERT_TRUE(rule.ok());
  TableauRequest request;
  request.type = TableauType::kHold;
  request.c_hat = 0.99;
  request.s_hat = 1.0;
  auto tableau = rule->DiscoverTableau(request);
  ASSERT_TRUE(tableau.ok());
  ASSERT_EQ(tableau->size(), 1u);
  EXPECT_EQ(tableau->rows[0].interval, (interval::Interval{1, 4}));
  EXPECT_DOUBLE_EQ(tableau->rows[0].confidence, 1.0);
  EXPECT_TRUE(tableau->support_satisfied);
  EXPECT_EQ(tableau->covered, 4);
}

TEST(TableauTest, FailTableauFlagsLossPeriod) {
  // Outbound dies at ticks 5..8.
  std::vector<double> a = {9, 9, 9, 9, 0, 0, 0, 0, 9, 9, 9, 9};
  std::vector<double> b = {9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  auto rule = ConservationRule::Create(a, b);
  ASSERT_TRUE(rule.ok());
  TableauRequest request;
  request.type = TableauType::kFail;
  request.c_hat = 0.2;
  request.s_hat = 0.25;  // needs 3 ticks
  auto tableau = rule->DiscoverTableau(request);
  ASSERT_TRUE(tableau.ok());
  EXPECT_TRUE(tableau->support_satisfied);
  ASSERT_GE(tableau->size(), 1u);
  // The chosen intervals must lie within/around the dead zone.
  for (const TableauRow& row : tableau->rows) {
    EXPECT_GE(row.interval.begin, 5);
    EXPECT_LE(row.confidence, 0.2 * (1.0 + request.epsilon) + 1e-12);
  }
}

TEST(TableauTest, SupportUnsatisfiableIsReported) {
  auto rule = ConservationRule::Create({5, 5, 5, 5}, {5, 5, 5, 5});
  ASSERT_TRUE(rule.ok());
  TableauRequest request;
  request.type = TableauType::kFail;  // nothing fails on perfect data
  request.c_hat = 0.1;
  request.s_hat = 0.5;
  auto tableau = rule->DiscoverTableau(request);
  ASSERT_TRUE(tableau.ok());
  EXPECT_FALSE(tableau->support_satisfied);
  EXPECT_EQ(tableau->covered, 0);
}

TEST(TableauTest, AllAlgorithmsAgreeOnCleanData) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(7, 120);
  auto rule = ConservationRule::Create(counts);
  ASSERT_TRUE(rule.ok());

  TableauRequest request;
  request.type = TableauType::kHold;
  request.c_hat = 0.7;
  request.s_hat = 0.4;
  request.epsilon = 0.01;

  std::optional<int64_t> covered;
  for (const auto algorithm :
       {interval::AlgorithmKind::kExhaustive,
        interval::AlgorithmKind::kAreaBased,
        interval::AlgorithmKind::kAreaBasedOpt,
        interval::AlgorithmKind::kNonAreaBased,
        interval::AlgorithmKind::kNonAreaBasedOpt}) {
    request.algorithm = algorithm;
    auto tableau = rule->DiscoverTableau(request);
    ASSERT_TRUE(tableau.ok()) << interval::AlgorithmKindName(algorithm);
    // Coverage satisfaction must agree across algorithms (the approximate
    // ones can only produce intervals at least as long).
    if (!covered.has_value()) {
      covered = tableau->covered;
    } else {
      EXPECT_GE(tableau->covered + 2, *covered)
          << interval::AlgorithmKindName(algorithm);
    }
  }
}

TEST(TableauTest, RowConfidencesMatchRescan) {
  // Row confidences are carried out of candidate generation (no per-row
  // rescan in DiscoverTableau); the kernel contract says they must equal
  // what the evaluator computes for the same interval, bit for bit.
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(11, 150);
  auto rule = ConservationRule::Create(counts);
  ASSERT_TRUE(rule.ok());

  for (const auto model : {ConfidenceModel::kBalance, ConfidenceModel::kCredit,
                           ConfidenceModel::kDebit}) {
    for (const auto algorithm :
         {interval::AlgorithmKind::kExhaustive,
          interval::AlgorithmKind::kAreaBased,
          interval::AlgorithmKind::kAreaBasedOpt,
          interval::AlgorithmKind::kNonAreaBased,
          interval::AlgorithmKind::kNonAreaBasedOpt}) {
      const bool non_area_based =
          algorithm == interval::AlgorithmKind::kNonAreaBased ||
          algorithm == interval::AlgorithmKind::kNonAreaBasedOpt;
      if (non_area_based && model != ConfidenceModel::kBalance) continue;
      TableauRequest request;
      request.type = TableauType::kFail;
      request.model = model;
      request.algorithm = algorithm;
      request.c_hat = 0.6;
      request.s_hat = 0.5;
      auto tableau = rule->DiscoverTableau(request);
      ASSERT_TRUE(tableau.ok()) << interval::AlgorithmKindName(algorithm);
      for (const TableauRow& row : tableau->rows) {
        const std::optional<double> rescan =
            rule->Confidence(model, row.interval.begin, row.interval.end);
        ASSERT_TRUE(rescan.has_value());
        EXPECT_EQ(row.confidence, *rescan)
            << interval::AlgorithmKindName(algorithm) << " "
            << row.interval.ToString();
      }
    }
  }
}

TEST(TableauTest, CoverStatsPopulated) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(12, 200);
  auto rule = ConservationRule::Create(counts);
  ASSERT_TRUE(rule.ok());
  TableauRequest request;
  request.type = TableauType::kFail;
  request.c_hat = 0.6;
  request.s_hat = 0.5;
  request.num_threads = 2;  // exercises sharded candidate generation
  auto tableau = rule->DiscoverTableau(request);
  ASSERT_TRUE(tableau.ok());
  EXPECT_EQ(tableau->cover_stats.rounds,
            static_cast<int64_t>(tableau->rows.size()));
  EXPECT_GE(tableau->cover_stats.heap_pops, tableau->cover_stats.rounds);
  if (!tableau->rows.empty()) {
    EXPECT_GT(tableau->cover_stats.peak_heap_size, 0);
  }
}

TEST(TableauTest, ToStringMentionsTypeAndModel) {
  auto rule = ConservationRule::Create({5, 5}, {5, 5});
  ASSERT_TRUE(rule.ok());
  TableauRequest request;
  request.type = TableauType::kHold;
  request.model = ConfidenceModel::kDebit;
  request.c_hat = 0.5;
  request.s_hat = 1.0;
  auto tableau = rule->DiscoverTableau(request);
  ASSERT_TRUE(tableau.ok());
  const std::string text = tableau->ToString();
  EXPECT_NE(text.find("hold"), std::string::npos);
  EXPECT_NE(text.find("debit"), std::string::npos);
}

TEST(ConservationRuleTest, CreateEnforcesDominance) {
  // a exceeds b at the start; Create must preprocess.
  auto rule = ConservationRule::Create({5, 0}, {0, 5});
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(rule->cumulative().Dominates());

  ConservationRule::Options options;
  options.enforce_dominance = false;
  auto strict = ConservationRule::Create({5.0, 0.0}, {0.0, 5.0}, options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(ConservationRuleTest, ConfidenceDelegates) {
  auto rule = ConservationRule::Create({2, 0, 1, 1, 2}, {3, 1, 1, 2, 0});
  ASSERT_TRUE(rule.ok());
  EXPECT_DOUBLE_EQ(*rule->Confidence(ConfidenceModel::kBalance, 2, 4), 0.3);
  EXPECT_DOUBLE_EQ(*rule->Confidence(ConfidenceModel::kCredit, 2, 4), 0.6);
  EXPECT_DOUBLE_EQ(*rule->Confidence(ConfidenceModel::kDebit, 2, 4),
                   3.0 / 7.0);
  EXPECT_DOUBLE_EQ(rule->Delay().total_delay, 9.0);
  EXPECT_TRUE(rule->OverallConfidence(ConfidenceModel::kBalance).has_value());
}

TEST(ConservationRuleTest, SurvivesMove) {
  auto rule = ConservationRule::Create({1, 2, 3}, {3, 2, 1});
  ASSERT_TRUE(rule.ok());
  ConservationRule moved = std::move(rule).value();
  EXPECT_EQ(moved.n(), 3);
  EXPECT_TRUE(moved.OverallConfidence(ConfidenceModel::kBalance).has_value());
}

}  // namespace
}  // namespace conservation::core
