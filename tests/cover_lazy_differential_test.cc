// Differential test: the lazy-heap + Fenwick GreedyPartialSetCover must be
// bit-identical to the preserved naive implementation
// (tests/reference_cover.h) — same chosen intervals in the same order, same
// chosen_indices, covered, required, satisfied, rounds and tick_visits —
// across adversarial candidate shapes (nested chains, duplicate-heavy,
// width-1 staircases, same-start containment, unsorted input, NAB-shaped
// families, and larger shingled, nested and duplicated families), the s_hat
// extremes, and unsatisfiable instances. Every case also checks that exactly
// the candidates no other candidate strictly dominates enter the heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cover/partial_set_cover.h"
#include "tests/reference_cover.h"
#include "util/random.h"

namespace conservation::cover {
namespace {

using interval::Interval;

// Candidates for which no other candidate has a smaller begin and an end at
// least as large, counted by brute force.
int64_t CountUndominated(const std::vector<Interval>& candidates) {
  int64_t count = 0;
  for (const Interval& iv : candidates) {
    const bool dominated = std::any_of(
        candidates.begin(), candidates.end(), [&iv](const Interval& other) {
          return other.begin < iv.begin && other.end >= iv.end;
        });
    if (!dominated) ++count;
  }
  return count;
}

void ExpectIdentical(const std::vector<Interval>& candidates, int64_t n,
                     const CoverOptions& options) {
  const CoverResult lazy = GreedyPartialSetCover(candidates, n, options);
  const CoverResult naive =
      ReferenceGreedyPartialSetCover(candidates, n, options);
  ASSERT_EQ(lazy.chosen, naive.chosen)
      << "n=" << n << " m=" << candidates.size() << " s_hat=" << options.s_hat;
  EXPECT_EQ(lazy.chosen_indices, naive.chosen_indices);
  EXPECT_EQ(lazy.covered, naive.covered);
  EXPECT_EQ(lazy.required, naive.required);
  EXPECT_EQ(lazy.satisfied, naive.satisfied);
  EXPECT_EQ(lazy.stats.rounds, naive.stats.rounds);
  EXPECT_EQ(lazy.stats.tick_visits, naive.stats.tick_visits);
  // Only the undominated candidates are seeded (none at all when the cover
  // has nothing to do).
  const bool runs = lazy.required > 0 && !candidates.empty();
  EXPECT_EQ(lazy.stats.peak_heap_size,
            runs ? CountUndominated(candidates) : 0);
  // Internal consistency of the stats the lazy path reports.
  EXPECT_EQ(lazy.stats.rounds, static_cast<int64_t>(lazy.chosen.size()));
  EXPECT_GE(lazy.stats.heap_pops, lazy.stats.rounds);
  EXPECT_GE(lazy.stats.heap_pops,
            lazy.stats.rounds + lazy.stats.stale_reevaluations);
}

void ExpectIdenticalAllModes(const std::vector<Interval>& candidates,
                             int64_t n) {
  for (const double s_hat : {0.0, 0.5, 1.0}) {
    CoverOptions options;
    options.s_hat = s_hat;
    ExpectIdentical(candidates, n, options);
  }
}

TEST(CoverLazyDifferentialTest, NestedChain) {
  // Every interval nests inside the previous one; after the outermost pick
  // every other candidate has zero gain and must be retired, never chosen.
  const int64_t n = 64;
  std::vector<Interval> candidates;
  for (int64_t i = 1; i <= n / 2; ++i) {
    candidates.push_back(Interval{i, n + 1 - i});
  }
  ExpectIdenticalAllModes(candidates, n);
}

TEST(CoverLazyDifferentialTest, DuplicateHeavy) {
  // Each distinct interval appears four times; the scan picks the first
  // copy and the lazy heap must do the same (index-ascending tie-break).
  const int64_t n = 40;
  std::vector<Interval> candidates;
  for (int64_t b = 1; b + 7 <= n; b += 5) {
    for (int copy = 0; copy < 4; ++copy) {
      candidates.push_back(Interval{b, b + 7});
    }
  }
  ExpectIdenticalAllModes(candidates, n);
}

TEST(CoverLazyDifferentialTest, WidthOneStaircase) {
  const int64_t n = 25;
  std::vector<Interval> candidates;
  for (int64_t t = 1; t <= n; t += 2) {
    candidates.push_back(Interval{t, t});
  }
  ExpectIdenticalAllModes(candidates, n);  // odd ticks only: s_hat=1 fails
}

TEST(CoverLazyDifferentialTest, UnsatisfiableStopsIdentically) {
  CoverOptions options;
  options.s_hat = 0.9;
  ExpectIdentical({{1, 2}, {5, 6}, {5, 6}}, 100, options);
}

TEST(CoverLazyDifferentialTest, SingleTickUniverse) {
  ExpectIdenticalAllModes({{1, 1}, {1, 1}}, 1);
}

TEST(CoverLazyDifferentialTest, EqualGainDistinctPositions) {
  // Three disjoint equal-length intervals in scrambled input order: picks
  // go by position, not by input index.
  ExpectIdenticalAllModes({{11, 15}, {1, 5}, {21, 25}}, 30);
}

TEST(CoverLazyDifferentialTest, UnsortedInputTakesTheSortPath) {
  // Scrambled input order: the dominance sweep must sort by begin first.
  // [1, 9] dominates [2, 9], [3, 4] and [5, 9], and [10, 12] dominates
  // [12, 12]. [1, 3] and [10, 11] share a start with a longer candidate and
  // stay.
  ExpectIdenticalAllModes(
      {{5, 9}, {10, 12}, {1, 9}, {3, 4}, {10, 11}, {2, 9}, {12, 12}, {1, 3}},
      12);
}

TEST(CoverLazyDifferentialTest, SameStartContainmentChainsStay) {
  // Every candidate starts at 1 or at 21: none strictly dominates another,
  // and on an equal gain ByPosition picks the shorter one, so all of them
  // must stay in the heap.
  const int64_t n = 40;
  std::vector<Interval> candidates;
  for (int64_t end = 1; end <= 20; ++end) candidates.push_back({1, end});
  for (int64_t end = 21; end <= n; end += 3) candidates.push_back({21, end});
  ExpectIdenticalAllModes(candidates, n);
  CoverOptions options;
  options.s_hat = 1.0;
  EXPECT_EQ(GreedyPartialSetCover(candidates, n, options).stats.peak_heap_size,
            static_cast<int64_t>(candidates.size()));
}

TEST(CoverLazyDifferentialTest, ExactDuplicatesOfDominatedAndUndominated) {
  // Copies of an undominated interval all stay (the lowest index wins);
  // copies of a dominated one all go.
  ExpectIdenticalAllModes({{3, 8}, {1, 10}, {3, 8}, {1, 10}, {12, 15},
                           {12, 15}, {13, 14}, {13, 14}},
                          16);
}

TEST(CoverLazyDifferentialTest, DeepStrictlyNestedChain) {
  // 500 strictly nested intervals: only the outermost survives the sweep.
  const int64_t n = 1000;
  std::vector<Interval> candidates;
  for (int64_t i = 1; i <= n / 2; ++i) {
    candidates.push_back(Interval{i, n + 1 - i});
  }
  ExpectIdenticalAllModes(candidates, n);
  CoverOptions options;
  options.s_hat = 0.5;
  EXPECT_EQ(GreedyPartialSetCover(candidates, n, options).stats.peak_heap_size,
            1);
}

// Three heap-stressing families at a larger scale: overlapping shingles
// (many stale re-evaluations), a deep nested chain (one survivor of the
// dominance sweep), and every distinct interval repeated four times (copies
// retire without being chosen).
TEST(CoverLazyDifferentialTest, LargeShingles) {
  const int64_t n = 20000;
  std::vector<Interval> candidates;
  for (int64_t b = 1; b <= n; b += 8) {
    candidates.push_back(Interval{b, std::min<int64_t>(n, b + 99)});
  }
  ExpectIdenticalAllModes(candidates, n);
}

TEST(CoverLazyDifferentialTest, LargeNestedChains) {
  const int64_t n = 20000;
  std::vector<Interval> candidates;
  for (int64_t d = 0; d < 200; ++d) {
    candidates.push_back(Interval{1 + d * 40, n - d * 40});
  }
  ExpectIdenticalAllModes(candidates, n);
}

TEST(CoverLazyDifferentialTest, LargeDuplicates) {
  const int64_t n = 20000;
  std::vector<Interval> candidates;
  for (int64_t b = 1; b <= n; b += 50) {
    const Interval iv{b, std::min<int64_t>(n, b + 199)};
    for (int copy = 0; copy < 4; ++copy) candidates.push_back(iv);
  }
  ExpectIdenticalAllModes(candidates, n);
}

class CoverLazyDifferentialNabShaped
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverLazyDifferentialNabShaped, MatchesReference) {
  // The shape NAB emits: at most one candidate per right anchor, so ends
  // strictly increase, while begins jump back and forth. Both the
  // generators' ByPosition order and the raw end order are checked.
  util::Rng rng(GetParam());
  const int64_t n = 150;
  std::vector<Interval> by_end;
  for (int64_t j = 1; j <= n; ++j) {
    if (rng.Bernoulli(0.2)) continue;
    by_end.push_back(Interval{rng.UniformInt(std::max<int64_t>(1, j - 40), j),
                              j});
  }
  std::vector<Interval> by_position = by_end;
  std::sort(by_position.begin(), by_position.end(), interval::ByPosition);
  ExpectIdenticalAllModes(by_position, n);
  ExpectIdenticalAllModes(by_end, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverLazyDifferentialNabShaped,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Randomized sweep mixing random spans, duplicates, nested pairs, and
// width-1 intervals.
class CoverLazyDifferentialRandom
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverLazyDifferentialRandom, MatchesReference) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const int64_t n = rng.UniformInt(1, 120);
    const int64_t m = rng.UniformInt(0, 50);
    std::vector<Interval> candidates;
    for (int64_t k = 0; k < m; ++k) {
      const int64_t begin = rng.UniformInt(1, n);
      const int64_t end = std::min<int64_t>(n, begin + rng.UniformInt(0, 20));
      candidates.push_back(Interval{begin, end});
      const int64_t shape = rng.UniformInt(0, 3);
      if (shape == 0) {
        candidates.push_back(Interval{begin, end});  // exact duplicate
      } else if (shape == 1 && end - begin >= 2) {
        candidates.push_back(Interval{begin + 1, end - 1});  // nested
      } else if (shape == 2) {
        candidates.push_back(Interval{end, end});  // width-1
      }
    }
    ExpectIdenticalAllModes(candidates, n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverLazyDifferentialRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(CoverLazyDifferentialTest, TickVisitsNearLinear) {
  // Heavily overlapping shingles force the naive marker to re-walk covered
  // runs; the union-find skip pointers must keep total tick visits
  // O(n alpha(n)) — asserted as a small constant times n — while the naive
  // walk would touch sum-of-lengths ~ 16n ticks.
  const int64_t n = 4096;
  std::vector<Interval> candidates;
  for (int64_t b = 1; b <= n; b += 2) {
    candidates.push_back(Interval{b, std::min<int64_t>(n, b + 31)});
  }
  CoverOptions options;
  options.s_hat = 1.0;
  const CoverResult result = GreedyPartialSetCover(candidates, n, options);
  EXPECT_TRUE(result.satisfied);
  EXPECT_EQ(result.covered, n);
  const int64_t picks = result.stats.rounds;
  EXPECT_LT(result.stats.tick_visits, 10 * (n + picks));
  // The naive equivalent walks every tick of every pick: ~32 per pick.
  int64_t naive_walk = 0;
  for (const Interval& iv : result.chosen) naive_walk += iv.length();
  EXPECT_GE(naive_walk, n);  // sanity: lazy did not skip real work
}

}  // namespace
}  // namespace conservation::cover
