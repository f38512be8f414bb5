#include <gtest/gtest.h>

#include "core/diagnose.h"
#include "core/multi_resolution.h"
#include "datagen/intersection.h"

namespace conservation {
namespace {

TEST(IntersectionTest, ShapeAndDominance) {
  const datagen::IntersectionData data = datagen::GenerateIntersection();
  EXPECT_EQ(data.counts.n(), 2880);
  const series::CumulativeSeries cumulative(data.counts);
  EXPECT_TRUE(cumulative.Dominates());
  // Two rush windows per day.
  EXPECT_EQ(data.rush_windows.size(), 2u);
}

TEST(IntersectionTest, RushHoursDepressConfidence) {
  const datagen::IntersectionData data = datagen::GenerateIntersection();
  auto rule = core::ConservationRule::Create(data.counts);
  ASSERT_TRUE(rule.ok());
  // An off-peak stretch conserves tightly; rush windows sit clearly below
  // it (congestion stretches transit from ~1 to ~7 ticks).
  const auto quiet =
      rule->Confidence(core::ConfidenceModel::kBalance, 1, 600);
  ASSERT_TRUE(quiet.has_value());
  EXPECT_GT(*quiet, 0.99);
  for (const auto& [begin, end] : data.rush_windows) {
    const auto rush_conf =
        rule->Confidence(core::ConfidenceModel::kBalance, begin, end);
    ASSERT_TRUE(rush_conf.has_value());
    EXPECT_LT(*rush_conf, *quiet - 0.03);
  }
}

TEST(IntersectionTest, RushIsDelayNotLoss) {
  const datagen::IntersectionData data = datagen::GenerateIntersection();
  const series::CumulativeSeries cumulative(data.counts);
  const auto& [begin, end] = data.rush_windows.front();
  const core::ViolationDiagnosis diagnosis =
      core::DiagnoseViolation(cumulative, {begin, end});
  EXPECT_NE(diagnosis.kind, core::ViolationKind::kLoss);
  EXPECT_GT(diagnosis.recovered_fraction, 0.5);
}

TEST(IntersectionTest, SensorOutageIsLossBoundedInTime) {
  datagen::IntersectionParams params;
  params.outage_begin_tick = 1200;
  params.outage_end_tick = 1400;
  const datagen::IntersectionData data =
      datagen::GenerateIntersection(params);
  const series::CumulativeSeries cumulative(data.counts);
  const core::ViolationDiagnosis diagnosis =
      core::DiagnoseViolation(cumulative, {1200, 1400});
  EXPECT_EQ(diagnosis.kind, core::ViolationKind::kLoss);
  EXPECT_GT(diagnosis.missing_mass, 100.0);
}

TEST(MultiResolutionTest, CoarseningAbsorbsShortDelays) {
  // Rush-hour delay is ~7 ticks; at a 64-tick resolution the fail tableau
  // should see far less (or nothing), while native resolution flags the
  // rush windows.
  const datagen::IntersectionData data = datagen::GenerateIntersection();
  core::TableauRequest request;
  request.type = core::TableauType::kFail;
  request.model = core::ConfidenceModel::kBalance;
  request.c_hat = 0.7;
  request.s_hat = 0.02;
  auto scan =
      core::MultiResolutionScan(data.counts, request, {1, 8, 64, 512});
  ASSERT_TRUE(scan.ok());
  ASSERT_GE(scan->size(), 3u);

  // Native resolution flags the sub-bucket congestion pockets; by the
  // 64-tick resolution they are fully absorbed (the violations last ~7
  // ticks), so nothing fails any more.
  EXPECT_GT((*scan).front().covered_native_ticks, 0);
  EXPECT_EQ((*scan)[2].factor, 64);
  EXPECT_EQ((*scan)[2].covered_native_ticks, 0);
  EXPECT_EQ((*scan).back().covered_native_ticks, 0);
}

TEST(MultiResolutionTest, RejectsBadFactors) {
  const datagen::IntersectionData data = datagen::GenerateIntersection();
  core::TableauRequest request;
  auto scan = core::MultiResolutionScan(data.counts, request, {0});
  EXPECT_FALSE(scan.ok());
}

TEST(MultiResolutionTest, SkipsOverlyCoarseFactors) {
  auto counts = series::CountSequence::Create({1, 1, 1, 1}, {1, 1, 1, 1});
  ASSERT_TRUE(counts.ok());
  core::TableauRequest request;
  request.type = core::TableauType::kHold;
  request.c_hat = 0.5;
  auto scan = core::MultiResolutionScan(*counts, request, {1, 2, 3, 100});
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 2u);  // factors 1 and 2; 3 and 100 > n/2
}

}  // namespace
}  // namespace conservation
