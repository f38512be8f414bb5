// Golden regression tests: pin the headline reproduction numbers produced
// by the deterministic, seeded generators. If a generator or algorithm
// change shifts these, EXPERIMENTS.md needs re-validation — this test makes
// that visible instead of silent.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "core/conservation_rule.h"
#include "datagen/credit_card.h"
#include "datagen/job_log.h"
#include "datagen/power_grid.h"
#include "datagen/router.h"
#include "interval/generator.h"
#include "io/timeline.h"
#include "series/preprocess.h"

namespace conservation {
namespace {

TEST(GoldenRegression, CreditCardFailTableauIsSevenHolidaySeasons) {
  const datagen::CreditCardData data = datagen::GenerateCreditCard();
  auto rule = core::ConservationRule::Create(data.counts);
  ASSERT_TRUE(rule.ok());
  core::TableauRequest request;
  request.type = core::TableauType::kFail;
  request.c_hat = 0.7;
  request.s_hat = 0.04;
  request.epsilon = 0.01;
  auto tableau = rule->DiscoverTableau(request);
  ASSERT_TRUE(tableau.ok());

  // The Fig. 3 reproduction: exactly the Nov-Dec seasons of 2001-2007.
  ASSERT_EQ(tableau->size(), 7u);
  const io::MonthTimeline timeline(1981, 1);
  int expected_year = 2001;
  for (const core::TableauRow& row : tableau->rows) {
    EXPECT_EQ(timeline.MonthOf(row.interval.begin), 11);
    EXPECT_EQ(timeline.MonthOf(row.interval.end), 12);
    EXPECT_EQ(timeline.YearOf(row.interval.begin), expected_year);
    ++expected_year;
  }
  // And the overall confidence the experiment reports.
  EXPECT_NEAR(*rule->OverallConfidence(core::ConfidenceModel::kBalance),
              0.9988, 5e-4);
}

TEST(GoldenRegression, Router7HoldTableauStartsNearActivation) {
  const std::vector<datagen::RouterData> fleet =
      datagen::GenerateRouterFleet(0, 3800, 20120402);
  const datagen::RouterData* router7 = nullptr;
  for (const auto& router : fleet) {
    if (router.name == "Router-7") router7 = &router;
  }
  ASSERT_NE(router7, nullptr);
  ASSERT_EQ(router7->params.activation_tick, 3610);

  auto rule = core::ConservationRule::Create(router7->counts);
  ASSERT_TRUE(rule.ok());
  core::TableauRequest request;
  request.type = core::TableauType::kHold;
  request.model = core::ConfidenceModel::kDebit;
  request.c_hat = 0.9;
  request.s_hat = 0.04;
  request.epsilon = 0.001;
  auto tableau = rule->DiscoverTableau(request);
  ASSERT_TRUE(tableau.ok());
  ASSERT_GE(tableau->size(), 1u);
  // The Table III reproduction: the hold interval begins within ~25 ticks
  // of the hidden link's activation and runs to the end.
  EXPECT_NEAR(static_cast<double>(tableau->rows.front().interval.begin),
              3610.0, 25.0);
  EXPECT_EQ(tableau->rows.back().interval.end, 3800);
}

TEST(GoldenRegression, WorkedExampleConstantsNeverDrift) {
  // Section III.A numbers that docs/ALGORITHMS.md §4 cites.
  auto counts = series::CountSequence::Create(
      {5, 8, 6, 8, 7, 4, 3, 20, 11, 7}, {10, 8, 11, 13, 6, 6, 5, 9, 12, 6});
  ASSERT_TRUE(counts.ok());
  const series::CumulativeSeries cumulative(*counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  EXPECT_DOUBLE_EQ(eval.AreaB(3, 7), 167.0);
  EXPECT_DOUBLE_EQ(eval.AreaB(3, 9), 289.0);
  EXPECT_DOUBLE_EQ(eval.AreaB(3, 10), 362.0);
  EXPECT_NEAR(*eval.Confidence(3, 10), 0.7376, 5e-5);
}

// --- AB-opt candidates pinned across endpoint-search changes ---------------
//
// The values below were computed while every AB-opt breakpoint still came
// from a plain binary search over [cur + 1, n]. Any search that brackets the
// largest within-threshold endpoint of the nondecreasing area must reproduce
// them exactly: the candidate count, intervals_tested (one per breakpoint,
// since early exit is off) and an FNV-1a hash over each candidate's begin,
// end and confidence bits. Do not regenerate them to make a change pass.

series::CountSequence GoldenDataset(const std::string& name) {
  constexpr int64_t kTicks = 5000;
  series::CountSequence counts = [&] {
    if (name == "joblog") {
      datagen::JobLogParams params;
      params.num_ticks = kTicks;
      return datagen::GenerateJobLog(params).counts;
    }
    if (name == "router") {
      datagen::RouterParams params;
      params.num_ticks = kTicks;
      return datagen::GenerateRouter(params).counts;
    }
    CR_CHECK(name == "powergrid_theft");
    datagen::PowerGridParams params;
    params.num_ticks = kTicks;
    params.theft_start_tick = kTicks / 3;
    return datagen::GeneratePowerGrid(params).counts;
  }();
  return series::EnforceDominance(counts);
}

uint64_t Fnv1a(uint64_t hash, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t CandidateHash(const std::vector<interval::Candidate>& candidates) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const interval::Candidate& c : candidates) {
    hash = Fnv1a(hash, static_cast<uint64_t>(c.interval.begin));
    hash = Fnv1a(hash, static_cast<uint64_t>(c.interval.end));
    hash = Fnv1a(hash, std::bit_cast<uint64_t>(c.confidence));
  }
  return hash;
}

struct AbOptGolden {
  const char* dataset;
  core::TableauType type;
  core::ConfidenceModel model;
  size_t candidates;
  uint64_t intervals_tested;
  uint64_t endpoint_steps;
  uint64_t hash;
  bool largest_first_early_exit = false;
};

std::string GoldenLabel(const AbOptGolden& golden) {
  return std::string(golden.dataset) + "_" +
         core::TableauTypeName(golden.type) + "_" +
         core::ConfidenceModelName(golden.model) +
         (golden.largest_first_early_exit ? "_early_exit" : "");
}

std::string GoldenName(const ::testing::TestParamInfo<AbOptGolden>& info) {
  return GoldenLabel(info.param);
}

// Names the case in test listings instead of dumping the struct's bytes.
void PrintTo(const AbOptGolden& golden, std::ostream* os) {
  *os << GoldenLabel(golden);
}

class AbOptGoldenTest : public ::testing::TestWithParam<AbOptGolden> {};

TEST_P(AbOptGoldenTest, CandidatesMatchPinnedValues) {
  const AbOptGolden& golden = GetParam();
  const series::CountSequence counts = GoldenDataset(golden.dataset);
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative, golden.model);
  interval::GeneratorOptions options;
  options.type = golden.type;
  options.c_hat = golden.type == core::TableauType::kHold ? 0.9 : 0.5;
  options.epsilon = 0.01;
  options.largest_first_early_exit = golden.largest_first_early_exit;
  interval::GeneratorStats stats;
  const std::vector<interval::Candidate> candidates =
      interval::MakeGenerator(interval::AlgorithmKind::kAreaBasedOpt)
          ->GenerateCandidates(eval, options, &stats);
  EXPECT_EQ(candidates.size(), golden.candidates);
  EXPECT_EQ(stats.intervals_tested, golden.intervals_tested);
  EXPECT_EQ(stats.endpoint_steps, golden.endpoint_steps);
  EXPECT_EQ(CandidateHash(candidates), golden.hash)
      << "0x" << std::hex << CandidateHash(candidates);
}

using core::ConfidenceModel;
using core::TableauType;

INSTANTIATE_TEST_SUITE_P(
    Pinned, AbOptGoldenTest,
    ::testing::Values(
        AbOptGolden{"joblog", TableauType::kHold,
                    ConfidenceModel::kBalance, 4592, 3666145, 6545628,
                    0x6fa6f43c2d2327d3ull},
        AbOptGolden{"joblog", TableauType::kHold,
                    ConfidenceModel::kCredit, 4980, 3666145, 6545628,
                    0xec08368613db2881ull},
        AbOptGolden{"joblog", TableauType::kHold,
                    ConfidenceModel::kDebit, 4898, 3705243, 6577470,
                    0x525ccfa43edbf315ull},
        AbOptGolden{"joblog", TableauType::kFail,
                    ConfidenceModel::kBalance, 5000, 3757411, 6632991,
                    0xcdce5696e8f73e7full},
        AbOptGolden{"joblog", TableauType::kFail,
                    ConfidenceModel::kCredit, 3045, 3843047, 6642033,
                    0xfbb64ef80bfa814dull},
        AbOptGolden{"joblog", TableauType::kFail,
                    ConfidenceModel::kDebit, 4965, 3757411, 6632991,
                    0x7a7a989b4f9fc24full},
        AbOptGolden{"router", TableauType::kHold,
                    ConfidenceModel::kBalance, 4969, 3724575, 6571099,
                    0x95572c3179d3c212ull},
        AbOptGolden{"router", TableauType::kHold,
                    ConfidenceModel::kCredit, 5000, 3724575, 6571099,
                    0x1f9e1af77c98fd81ull},
        AbOptGolden{"router", TableauType::kHold,
                    ConfidenceModel::kDebit, 5000, 3728691, 6574129,
                    0xb5663c39c8d044b5ull},
        AbOptGolden{"router", TableauType::kFail,
                    ConfidenceModel::kBalance, 3082, 3729001, 6574386,
                    0xe6529bee455c8652ull},
        AbOptGolden{"router", TableauType::kFail,
                    ConfidenceModel::kCredit, 0, 3729001, 6579386,
                    0xcbf29ce484222325ull},
        AbOptGolden{"router", TableauType::kFail,
                    ConfidenceModel::kDebit, 0, 3729001, 6574386,
                    0xcbf29ce484222325ull},
        AbOptGolden{"powergrid_theft", TableauType::kHold,
                    ConfidenceModel::kBalance, 1969, 3419721, 6227538,
                    0x41d9f4d023634dc2ull},
        AbOptGolden{"powergrid_theft", TableauType::kHold,
                    ConfidenceModel::kCredit, 5000, 3419721, 6227538,
                    0xfa0df52ebe671849ull},
        AbOptGolden{"powergrid_theft", TableauType::kHold,
                    ConfidenceModel::kDebit, 5000, 3727893, 6582288,
                    0xfa77558aa4f6f802ull},
        AbOptGolden{"powergrid_theft", TableauType::kFail,
                    ConfidenceModel::kBalance, 4965, 3725197, 6577455,
                    0x37cd8667283b3210ull},
        AbOptGolden{"powergrid_theft", TableauType::kFail,
                    ConfidenceModel::kCredit, 0, 3725197, 6582455,
                    0xcbf29ce484222325ull},
        AbOptGolden{"powergrid_theft", TableauType::kFail,
                    ConfidenceModel::kDebit, 0, 3725197, 6577455,
                    0xcbf29ce484222325ull},
        AbOptGolden{"joblog", TableauType::kHold,
                    ConfidenceModel::kBalance, 4592, 88029, 6545628,
                    0x6fa6f43c2d2327d3ull, true},
        AbOptGolden{"joblog", TableauType::kHold,
                    ConfidenceModel::kCredit, 4980, 7480, 6545628,
                    0xec08368613db2881ull, true},
        AbOptGolden{"joblog", TableauType::kHold,
                    ConfidenceModel::kDebit, 4898, 12096, 6577470,
                    0x525ccfa43edbf315ull, true},
        AbOptGolden{"joblog", TableauType::kFail,
                    ConfidenceModel::kBalance, 5000, 3518240, 6632991,
                    0xcdce5696e8f73e7full, true},
        AbOptGolden{"joblog", TableauType::kFail,
                    ConfidenceModel::kCredit, 3045, 3772264, 6642033,
                    0xfbb64ef80bfa814dull, true},
        AbOptGolden{"joblog", TableauType::kFail,
                    ConfidenceModel::kDebit, 4965, 3639447, 6632991,
                    0x7a7a989b4f9fc24full, true},
        AbOptGolden{"router", TableauType::kHold,
                    ConfidenceModel::kBalance, 4969, 5465, 6571099,
                    0x95572c3179d3c212ull, true},
        AbOptGolden{"router", TableauType::kHold,
                    ConfidenceModel::kCredit, 5000, 5000, 6571099,
                    0x1f9e1af77c98fd81ull, true},
        AbOptGolden{"router", TableauType::kHold,
                    ConfidenceModel::kDebit, 5000, 5000, 6574129,
                    0xb5663c39c8d044b5ull, true},
        AbOptGolden{"router", TableauType::kFail,
                    ConfidenceModel::kBalance, 3082, 3725623, 6574386,
                    0xe6529bee455c8652ull, true},
        AbOptGolden{"router", TableauType::kFail,
                    ConfidenceModel::kCredit, 0, 3729001, 6579386,
                    0xcbf29ce484222325ull, true},
        AbOptGolden{"router", TableauType::kFail,
                    ConfidenceModel::kDebit, 0, 3729001, 6574386,
                    0xcbf29ce484222325ull, true},
        AbOptGolden{"powergrid_theft", TableauType::kHold,
                    ConfidenceModel::kBalance, 1969, 1693863, 6227538,
                    0x41d9f4d023634dc2ull, true},
        AbOptGolden{"powergrid_theft", TableauType::kHold,
                    ConfidenceModel::kCredit, 5000, 5000, 6227538,
                    0xfa0df52ebe671849ull, true},
        AbOptGolden{"powergrid_theft", TableauType::kHold,
                    ConfidenceModel::kDebit, 5000, 5000, 6582288,
                    0xfa77558aa4f6f802ull, true},
        AbOptGolden{"powergrid_theft", TableauType::kFail,
                    ConfidenceModel::kBalance, 4965, 2538055, 6577455,
                    0x37cd8667283b3210ull, true},
        AbOptGolden{"powergrid_theft", TableauType::kFail,
                    ConfidenceModel::kCredit, 0, 3725197, 6582455,
                    0xcbf29ce484222325ull, true},
        AbOptGolden{"powergrid_theft", TableauType::kFail,
                    ConfidenceModel::kDebit, 0, 3725197, 6577455,
                    0xcbf29ce484222325ull, true}),
    GoldenName);

}  // namespace
}  // namespace conservation
