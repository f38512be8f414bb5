#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "series/cumulative.h"
#include "series/preprocess.h"
#include "series/sequence.h"
#include "tests/test_data.h"

namespace conservation::series {
namespace {

TEST(CountSequenceTest, CreateValid) {
  auto counts = CountSequence::Create({1, 2, 3}, {4, 5, 6});
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts->n(), 3);
  EXPECT_DOUBLE_EQ(counts->a(1), 1.0);
  EXPECT_DOUBLE_EQ(counts->b(3), 6.0);
}

TEST(CountSequenceTest, RejectsLengthMismatch) {
  auto counts = CountSequence::Create({1, 2}, {1});
  EXPECT_FALSE(counts.ok());
  EXPECT_EQ(counts.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CountSequenceTest, RejectsEmpty) {
  EXPECT_FALSE(CountSequence::Create({}, {}).ok());
}

TEST(CountSequenceTest, RejectsNegative) {
  EXPECT_FALSE(CountSequence::Create({1, -2}, {1, 2}).ok());
  EXPECT_FALSE(CountSequence::Create({1, 2}, {-1, 2}).ok());
}

TEST(CountSequenceTest, RejectsNonFinite) {
  EXPECT_FALSE(
      CountSequence::Create({1, std::numeric_limits<double>::infinity()},
                            {1, 2})
          .ok());
  EXPECT_FALSE(
      CountSequence::Create({1, 2},
                            {std::numeric_limits<double>::quiet_NaN(), 2})
          .ok());
}

TEST(CountSequenceTest, RejectsAllZero) {
  EXPECT_FALSE(CountSequence::Create({0, 0}, {0, 0}).ok());
}

TEST(CountSequenceTest, AllowsOneSideZero) {
  // Outbound all-zero is legal: it models total loss.
  EXPECT_TRUE(CountSequence::Create({0, 0}, {1, 2}).ok());
}

TEST(CountSequenceTest, PrefixAndScale) {
  auto counts = CountSequence::Create({1, 2, 3, 4}, {5, 6, 7, 8});
  ASSERT_TRUE(counts.ok());
  const CountSequence prefix = counts->Prefix(2);
  EXPECT_EQ(prefix.n(), 2);
  EXPECT_DOUBLE_EQ(prefix.b(2), 6.0);
  const CountSequence scaled = counts->Scaled(2.0);
  EXPECT_DOUBLE_EQ(scaled.a(3), 6.0);
  EXPECT_DOUBLE_EQ(scaled.b(1), 10.0);
}

// The paper's Figure 2 data: a = <2,0,1,1,2>, b = <3,1,1,2,0>.
class PaperFigure2 : public ::testing::Test {
 protected:
  PaperFigure2()
      : counts_(*CountSequence::Create({2, 0, 1, 1, 2}, {3, 1, 1, 2, 0})),
        cumulative_(counts_) {}

  CountSequence counts_;
  CumulativeSeries cumulative_;
};

TEST_F(PaperFigure2, CumulativeCurves) {
  // A = <0,2,2,3,4,6>, B = <0,3,4,5,7,7>.
  const double expected_A[] = {0, 2, 2, 3, 4, 6};
  const double expected_B[] = {0, 3, 4, 5, 7, 7};
  for (int64_t l = 0; l <= 5; ++l) {
    EXPECT_DOUBLE_EQ(cumulative_.A(l), expected_A[l]) << "l=" << l;
    EXPECT_DOUBLE_EQ(cumulative_.B(l), expected_B[l]) << "l=" << l;
  }
}

TEST_F(PaperFigure2, SumsOverIntervals) {
  // sum_{l=2..5} A_l = 2+3+4+6 = 15; sum B = 4+5+7+7 = 23.
  EXPECT_DOUBLE_EQ(cumulative_.SumA(2, 5), 15.0);
  EXPECT_DOUBLE_EQ(cumulative_.SumB(2, 5), 23.0);
  EXPECT_DOUBLE_EQ(cumulative_.SumA(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(cumulative_.SumA(3, 2), 0.0);  // empty
}

TEST_F(PaperFigure2, SuffixMinGap) {
  // B - A = <1,2,2,3,1> at l = 1..5.
  EXPECT_DOUBLE_EQ(cumulative_.SuffixMinGap(1), 1.0);
  EXPECT_DOUBLE_EQ(cumulative_.SuffixMinGap(2), 1.0);
  EXPECT_DOUBLE_EQ(cumulative_.SuffixMinGap(3), 1.0);
  EXPECT_DOUBLE_EQ(cumulative_.SuffixMinGap(4), 1.0);
  EXPECT_DOUBLE_EQ(cumulative_.SuffixMinGap(5), 1.0);
}

TEST_F(PaperFigure2, DeltaIsMinPositive) { EXPECT_DOUBLE_EQ(cumulative_.delta(), 1.0); }

TEST_F(PaperFigure2, Dominates) { EXPECT_TRUE(cumulative_.Dominates()); }

TEST_F(PaperFigure2, TotalDelay) {
  // sum (B_l - A_l) = 1+2+2+3+1 = 9.
  EXPECT_DOUBLE_EQ(cumulative_.TotalDelay(), 9.0);
}

TEST(CumulativeSeriesTest, SuffixMinGapDecreasingTail) {
  auto counts = CountSequence::Create({0, 0, 5, 0}, {3, 2, 0, 1});
  ASSERT_TRUE(counts.ok());
  const CumulativeSeries cumulative(*counts);
  // B = <3,5,5,6>, A = <0,0,5,5>; gaps = <3,5,0,1>.
  EXPECT_DOUBLE_EQ(cumulative.SuffixMinGap(1), 0.0);
  EXPECT_DOUBLE_EQ(cumulative.SuffixMinGap(2), 0.0);
  EXPECT_DOUBLE_EQ(cumulative.SuffixMinGap(3), 0.0);
  EXPECT_DOUBLE_EQ(cumulative.SuffixMinGap(4), 1.0);
}

TEST(CumulativeSeriesTest, DominanceDetectsViolation) {
  auto counts = CountSequence::Create({5, 0}, {1, 4});
  ASSERT_TRUE(counts.ok());
  const CumulativeSeries cumulative(*counts);
  EXPECT_FALSE(cumulative.Dominates());
}

TEST(PreprocessTest, EnforceDominanceSwapsCurves) {
  auto counts = CountSequence::Create({5, 0, 1}, {1, 4, 1});
  ASSERT_TRUE(counts.ok());
  const CountSequence fixed = EnforceDominance(*counts);
  const CumulativeSeries cumulative(fixed);
  EXPECT_TRUE(cumulative.Dominates());
  // Totals are preserved: min+max swap keeps the multiset of curve values.
  const CumulativeSeries original(*counts);
  EXPECT_DOUBLE_EQ(cumulative.A(3) + cumulative.B(3),
                   original.A(3) + original.B(3));
}

TEST(PreprocessTest, EnforceDominanceIdempotentWhenDominated) {
  auto counts = CountSequence::Create({1, 1, 1}, {2, 2, 2});
  ASSERT_TRUE(counts.ok());
  const CountSequence fixed = EnforceDominance(*counts);
  for (int64_t t = 1; t <= 3; ++t) {
    EXPECT_DOUBLE_EQ(fixed.a(t), counts->a(t));
    EXPECT_DOUBLE_EQ(fixed.b(t), counts->b(t));
  }
}

TEST(PreprocessTest, MakeDominatedSequencePropagatesErrors) {
  EXPECT_FALSE(MakeDominatedSequence({1, -1}, {1, 1}).ok());
  auto ok = MakeDominatedSequence({5, 0}, {0, 5});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(CumulativeSeries(*ok).Dominates());
}

// --- CumulativeSeries::Append ---------------------------------------------

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

CumulativeSeries BuildFrom(const std::vector<double>& a,
                           const std::vector<double>& b) {
  auto counts = CountSequence::Create(a, b);
  CR_CHECK(counts.ok());
  return CumulativeSeries(*counts);
}

// Every derived array and delta, compared bit for bit, including A(0),
// S_0 and the +infinity sentinel S_{n+1}.
void ExpectBitwiseEqual(const CumulativeSeries& got,
                        const CumulativeSeries& want) {
  ASSERT_EQ(got.n(), want.n());
  EXPECT_EQ(Bits(got.delta()), Bits(want.delta()));
  for (int64_t l = 0; l <= want.n(); ++l) {
    ASSERT_EQ(Bits(got.a_data()[l]), Bits(want.a_data()[l])) << l;
    ASSERT_EQ(Bits(got.b_data()[l]), Bits(want.b_data()[l])) << l;
    ASSERT_EQ(Bits(got.sa_data()[l]), Bits(want.sa_data()[l])) << l;
    ASSERT_EQ(Bits(got.sb_data()[l]), Bits(want.sb_data()[l])) << l;
  }
  for (int64_t i = 0; i <= want.n() + 1; ++i) {
    ASSERT_EQ(Bits(got.suffix_min_gap_data()[i]),
              Bits(want.suffix_min_gap_data()[i]))
        << i;
  }
}

struct Columns {
  std::vector<double> a;
  std::vector<double> b;
};

Columns RandomColumns(uint64_t seed, int64_t n) {
  const CountSequence counts = testing_util::RandomDominatedCounts(seed, n);
  Columns out;
  for (int64_t t = 1; t <= n; ++t) {
    out.a.push_back(counts.a(t));
    out.b.push_back(counts.b(t));
  }
  return out;
}

TEST(CumulativeSeriesAppendTest, MatchesFreshBuildBitwise) {
  const Columns all = RandomColumns(7, 600);
  const int64_t batch_sizes[] = {1, 1, 2, 5, 17, 64, 3, 128, 1, 250};
  int64_t n = 1;
  CumulativeSeries series = BuildFrom({all.a[0]}, {all.b[0]});
  for (const int64_t m : batch_sizes) {
    ASSERT_LE(n + m, 600);
    series.Append(all.a.data() + n, all.b.data() + n, m);
    n += m;
    const std::vector<double> a(all.a.begin(), all.a.begin() + n);
    const std::vector<double> b(all.b.begin(), all.b.begin() + n);
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectBitwiseEqual(series, BuildFrom(a, b));
  }
}

TEST(CumulativeSeriesAppendTest, FirstChangedSuffixGapIsExact) {
  for (const uint64_t seed : {3u, 13u, 23u}) {
    const Columns all = RandomColumns(seed, 400);
    int64_t n = 40;
    CumulativeSeries series = BuildFrom(
        {all.a.begin(), all.a.begin() + n}, {all.b.begin(), all.b.begin() + n});
    util::Rng rng(seed);
    while (n < 400) {
      const int64_t m = std::min<int64_t>(400 - n, rng.UniformInt(1, 30));
      const std::vector<double> before(
          series.suffix_min_gap_data(),
          series.suffix_min_gap_data() + series.n() + 1);
      const CumulativeSeries::AppendResult result =
          series.Append(all.a.data() + n, all.b.data() + n, m);
      EXPECT_EQ(result.old_n, n);
      // Brute force: the smallest old index whose gap changed bitwise.
      int64_t want = n + 1;
      for (int64_t i = 1; i <= n; ++i) {
        if (Bits(before[static_cast<size_t>(i)]) !=
            Bits(series.SuffixMinGap(i))) {
          want = i;
          break;
        }
      }
      EXPECT_EQ(result.first_changed_s, want) << "seed=" << seed << " n=" << n;
      n += m;
    }
  }
}

TEST(CumulativeSeriesAppendTest, FirstChangedSuffixGapEdgeCases) {
  // Gaps B - A = <2, 4, 6>, so S = <2, 4, 6>.
  CumulativeSeries series = BuildFrom({0, 0, 0}, {2, 2, 2});
  // Pure inbound raises the new tail's gap above every old one: no old
  // S_i moves.
  const double inbound_a[] = {0};
  const double inbound_b[] = {5};
  CumulativeSeries::AppendResult result =
      series.Append(inbound_a, inbound_b, 1);
  EXPECT_EQ(result.first_changed_s, 4);
  // Draining every unit of slack drops the new tail gap to 0, below every
  // old gap: all of S_1..S_4 change.
  const double drain_a[] = {11};
  const double drain_b[] = {0};
  result = series.Append(drain_a, drain_b, 1);
  EXPECT_EQ(result.old_n, 4);
  EXPECT_EQ(result.first_changed_s, 1);
  for (int64_t i = 1; i <= 5; ++i) EXPECT_EQ(series.SuffixMinGap(i), 0.0) << i;
}

TEST(CumulativeSeriesAppendTest, DeltaDecreasedOnlyForSmallerPositiveCount) {
  CumulativeSeries series = BuildFrom({0, 2}, {4, 2});
  ASSERT_EQ(series.delta(), 2.0);
  const double zeros[] = {0, 0};
  const double larger[] = {3, 8};
  const double smaller[] = {0.5, 0};
  series.Append(zeros, zeros, 2);
  series.Append(larger, larger, 2);
  EXPECT_EQ(series.delta(), 2.0);
  series.Append(smaller, larger, 2);
  EXPECT_EQ(series.delta(), 0.5);
  // Equal to the current delta is not a decrease.
  series.Append(smaller, larger, 1);
  EXPECT_EQ(series.delta(), 0.5);
}

TEST(CumulativeSeriesAppendTest, EmptyAppendChangesNothing) {
  const Columns all = RandomColumns(5, 50);
  CumulativeSeries series = BuildFrom(all.a, all.b);
  const CumulativeSeries::AppendResult result =
      series.Append(all.a.data(), all.b.data(), 0);
  EXPECT_EQ(result.old_n, 50);
  EXPECT_EQ(result.first_changed_s, 51);
  ExpectBitwiseEqual(series, BuildFrom(all.a, all.b));
}

TEST(CumulativeSeriesTest, CopiesAndMovesOwnTheirArrays) {
  const Columns all = RandomColumns(9, 120);
  const std::vector<double> a(all.a.begin(), all.a.begin() + 80);
  const std::vector<double> b(all.b.begin(), all.b.begin() + 80);
  CumulativeSeries series = BuildFrom(a, b);
  const CumulativeSeries copy = series;
  // Appending to the original leaves the copy at its old length and values.
  series.Append(all.a.data() + 80, all.b.data() + 80, 40);
  ExpectBitwiseEqual(copy, BuildFrom(a, b));
  const CumulativeSeries moved = std::move(series);
  ExpectBitwiseEqual(moved, BuildFrom(all.a, all.b));
}

}  // namespace
}  // namespace conservation::series
