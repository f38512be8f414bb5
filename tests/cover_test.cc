#include <gtest/gtest.h>

#include <algorithm>

#include "cover/partial_set_cover.h"
#include "util/random.h"

namespace conservation::cover {
namespace {

using interval::Interval;

TEST(PartialSetCoverTest, SingleIntervalCoversAll) {
  const CoverResult result =
      GreedyPartialSetCover({{1, 10}}, 10, CoverOptions{1.0});
  ASSERT_EQ(result.chosen.size(), 1u);
  EXPECT_EQ(result.covered, 10);
  EXPECT_TRUE(result.satisfied);
}

TEST(PartialSetCoverTest, PicksLargestFirst) {
  CoverOptions options;
  options.s_hat = 0.5;
  const CoverResult result =
      GreedyPartialSetCover({{1, 2}, {4, 9}, {3, 4}}, 10, options);
  ASSERT_EQ(result.chosen.size(), 1u);
  EXPECT_EQ(result.chosen[0], (Interval{4, 9}));
  EXPECT_EQ(result.covered, 6);
  EXPECT_TRUE(result.satisfied);
}

TEST(PartialSetCoverTest, MarginalCoverageNotRawSize) {
  // After [1, 6], the interval [5, 9] adds 4 while [7, 8] adds 2; greedy
  // must rank by marginal gain.
  CoverOptions options;
  options.s_hat = 1.0;
  const CoverResult result =
      GreedyPartialSetCover({{1, 6}, {5, 9}, {7, 8}, {10, 10}}, 10, options);
  EXPECT_TRUE(result.satisfied);
  ASSERT_EQ(result.chosen.size(), 3u);
  EXPECT_TRUE(std::find(result.chosen.begin(), result.chosen.end(),
                        Interval{5, 9}) != result.chosen.end());
  EXPECT_TRUE(std::find(result.chosen.begin(), result.chosen.end(),
                        Interval{7, 8}) == result.chosen.end());
}

TEST(PartialSetCoverTest, UnsatisfiableReportsPartialCoverage) {
  CoverOptions options;
  options.s_hat = 0.9;
  const CoverResult result =
      GreedyPartialSetCover({{1, 2}, {5, 6}}, 10, options);
  EXPECT_FALSE(result.satisfied);
  EXPECT_EQ(result.covered, 4);
  EXPECT_EQ(result.required, 9);
  EXPECT_EQ(result.chosen.size(), 2u);
}

TEST(PartialSetCoverTest, ZeroSupportChoosesNothing) {
  CoverOptions options;
  options.s_hat = 0.0;
  const CoverResult result = GreedyPartialSetCover({{1, 5}}, 10, options);
  EXPECT_TRUE(result.satisfied);
  EXPECT_TRUE(result.chosen.empty());
  EXPECT_EQ(result.required, 0);
}

TEST(PartialSetCoverTest, NoCandidates) {
  CoverOptions options;
  options.s_hat = 0.5;
  const CoverResult result = GreedyPartialSetCover({}, 10, options);
  EXPECT_FALSE(result.satisfied);
  EXPECT_EQ(result.covered, 0);
}

TEST(PartialSetCoverTest, StopsOnceSupportReached) {
  CoverOptions options;
  options.s_hat = 0.3;  // needs ceil(3) = 3 ticks
  const CoverResult result =
      GreedyPartialSetCover({{1, 4}, {6, 9}}, 10, options);
  EXPECT_TRUE(result.satisfied);
  EXPECT_EQ(result.chosen.size(), 1u);
}

TEST(PartialSetCoverTest, DeterministicTieBreakPrefersEarlierInterval) {
  CoverOptions options;
  options.s_hat = 0.3;
  const CoverResult result =
      GreedyPartialSetCover({{7, 9}, {2, 4}}, 10, options);
  ASSERT_EQ(result.chosen.size(), 1u);
  EXPECT_EQ(result.chosen[0], (Interval{2, 4}));
}

TEST(PartialSetCoverTest, DuplicateCandidatesHandled) {
  CoverOptions options;
  options.s_hat = 1.0;
  const CoverResult result =
      GreedyPartialSetCover({{1, 5}, {1, 5}, {6, 10}}, 10, options);
  EXPECT_TRUE(result.satisfied);
  EXPECT_EQ(result.chosen.size(), 2u);
}

// Greedy never uses more than H(n) * OPT intervals; for interval instances
// on a line greedy is in fact near-optimal. Compare against brute force on
// small random instances.
class CoverProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverProperty, GreedyWithinConstantOfBruteForceOptimum) {
  util::Rng rng(GetParam());
  const int64_t n = 30;
  std::vector<Interval> candidates;
  const int num_candidates = 10;
  for (int k = 0; k < num_candidates; ++k) {
    const int64_t begin = rng.UniformInt(1, n);
    const int64_t end = std::min<int64_t>(n, begin + rng.UniformInt(0, 12));
    candidates.push_back(Interval{begin, end});
  }
  CoverOptions options;
  options.s_hat = 0.5;
  const CoverResult greedy = GreedyPartialSetCover(candidates, n, options);

  // Brute force the smallest satisfying subset.
  const int64_t required = greedy.required;
  size_t best = candidates.size() + 1;
  bool feasible = false;
  for (uint32_t mask = 0; mask < (1u << num_candidates); ++mask) {
    std::vector<Interval> subset;
    for (int k = 0; k < num_candidates; ++k) {
      if (mask & (1u << k)) subset.push_back(candidates[k]);
    }
    if (interval::UnionSize(subset) >= required) {
      feasible = true;
      best = std::min(best, subset.size());
    }
  }

  ASSERT_EQ(greedy.satisfied, feasible);
  if (feasible) {
    // ln(30) ~ 3.4; greedy on intervals is empirically within 2x.
    EXPECT_LE(greedy.chosen.size(), 2 * best + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace conservation::cover
