#include <gtest/gtest.h>

#include "core/confidence.h"
#include "interval/generator.h"
#include "interval/interval.h"
#include "interval/non_area_based.h"
#include "interval/shard.h"
#include "tests/test_data.h"

namespace conservation::interval {
namespace {

TEST(IntervalTest, LengthAndContains) {
  const Interval iv{3, 7};
  EXPECT_EQ(iv.length(), 5);
  EXPECT_TRUE(iv.Contains(3));
  EXPECT_TRUE(iv.Contains(7));
  EXPECT_FALSE(iv.Contains(2));
  EXPECT_FALSE(iv.Contains(8));
  EXPECT_TRUE(iv.Contains(Interval{4, 6}));
  EXPECT_TRUE(iv.Contains(Interval{3, 7}));
  EXPECT_FALSE(iv.Contains(Interval{2, 6}));
}

TEST(IntervalTest, Overlaps) {
  const Interval iv{3, 7};
  EXPECT_TRUE(iv.Overlaps(Interval{7, 9}));
  EXPECT_TRUE(iv.Overlaps(Interval{1, 3}));
  EXPECT_FALSE(iv.Overlaps(Interval{8, 9}));
  EXPECT_FALSE(iv.Overlaps(Interval{1, 2}));
}

TEST(IntervalTest, ToString) {
  EXPECT_EQ((Interval{1, 10}.ToString()), "[1, 10]");
}

TEST(IntervalTest, ByPosition) {
  EXPECT_TRUE(ByPosition(Interval{1, 5}, Interval{2, 3}));
  EXPECT_TRUE(ByPosition(Interval{1, 3}, Interval{1, 5}));
  EXPECT_FALSE(ByPosition(Interval{1, 5}, Interval{1, 5}));
}

TEST(IntervalTest, UnionSizeDisjoint) {
  EXPECT_EQ(UnionSize({{1, 3}, {5, 6}}), 5);
}

TEST(IntervalTest, UnionSizeOverlapping) {
  EXPECT_EQ(UnionSize({{1, 5}, {3, 8}, {8, 9}}), 9);
}

TEST(IntervalTest, UnionSizeAdjacentMerges) {
  EXPECT_EQ(UnionSize({{1, 3}, {4, 6}}), 6);
}

TEST(IntervalTest, UnionSizeNestedAndEmpty) {
  EXPECT_EQ(UnionSize({{2, 9}, {3, 4}}), 8);
  EXPECT_EQ(UnionSize({}), 0);
}

TEST(LengthScheduleTest, GeometricCoversAllMagnitudes) {
  const auto lengths = NonAreaBasedGenerator::MakeLengthSchedule(
      NonAreaBasedGenerator::LengthSchedule::kGeometric, 0.5, 100);
  ASSERT_FALSE(lengths.empty());
  EXPECT_EQ(lengths.front(), 1);
  EXPECT_GE(lengths.back(), 100);
  // Nondecreasing, growth factor at most 1.5 between consecutive entries.
  for (size_t k = 1; k < lengths.size(); ++k) {
    EXPECT_GE(lengths[k], lengths[k - 1]);
    EXPECT_LE(static_cast<double>(lengths[k]),
              1.5 * static_cast<double>(lengths[k - 1]) + 1.0);
  }
}

TEST(LengthScheduleTest, GeometricHasDuplicatesAtSmallEpsilon) {
  // The plain NAB overhead of Fig. 9: floor((1+eps)^h) repeats for small h.
  const auto lengths = NonAreaBasedGenerator::MakeLengthSchedule(
      NonAreaBasedGenerator::LengthSchedule::kGeometric, 0.1, 50);
  int duplicates = 0;
  for (size_t k = 1; k < lengths.size(); ++k) {
    if (lengths[k] == lengths[k - 1]) ++duplicates;
  }
  EXPECT_GT(duplicates, 0);
}

TEST(LengthScheduleTest, RecursiveIsStrictlyIncreasing) {
  const auto lengths = NonAreaBasedGenerator::MakeLengthSchedule(
      NonAreaBasedGenerator::LengthSchedule::kRecursive, 0.1, 1000);
  EXPECT_EQ(lengths.front(), 1);
  EXPECT_GE(lengths.back(), 1000);
  for (size_t k = 1; k + 1 < lengths.size(); ++k) {
    EXPECT_GT(lengths[k], lengths[k - 1]);
    // Steps are +1 or a factor <= 1.1 — the Theorem 8/9 requirement.
    EXPECT_TRUE(lengths[k] == lengths[k - 1] + 1 ||
                static_cast<double>(lengths[k]) <=
                    1.1 * static_cast<double>(lengths[k - 1]))
        << "k=" << k;
  }
}

TEST(LengthScheduleTest, RecursiveShorterThanGeometricAtSmallEpsilon) {
  const auto geometric = NonAreaBasedGenerator::MakeLengthSchedule(
      NonAreaBasedGenerator::LengthSchedule::kGeometric, 0.01, 10000);
  const auto recursive = NonAreaBasedGenerator::MakeLengthSchedule(
      NonAreaBasedGenerator::LengthSchedule::kRecursive, 0.01, 10000);
  EXPECT_LT(recursive.size(), geometric.size());
}

// Anchor-sharded generation is an execution strategy, not an approximation:
// for every algorithm × model × tableau type the candidate list (and the
// shard-invariant counters) must be identical for any thread count.
TEST(ShardInvarianceTest, EveryAlgorithmModelAndTypeMatchesSequential) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/77, /*n=*/700);
  const series::CumulativeSeries cumulative(counts);

  const AlgorithmKind kinds[] = {
      AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
      AlgorithmKind::kAreaBasedOpt, AlgorithmKind::kNonAreaBased,
      AlgorithmKind::kNonAreaBasedOpt};
  const core::ConfidenceModel models[] = {core::ConfidenceModel::kBalance,
                                          core::ConfidenceModel::kCredit,
                                          core::ConfidenceModel::kDebit};
  const core::TableauType types[] = {core::TableauType::kHold,
                                     core::TableauType::kFail};

  for (const AlgorithmKind kind : kinds) {
    const bool non_area_based = kind == AlgorithmKind::kNonAreaBased ||
                                kind == AlgorithmKind::kNonAreaBasedOpt;
    for (const core::ConfidenceModel model : models) {
      // NAB/NAB-opt are defined for the balance model only (paper §V).
      if (non_area_based && model != core::ConfidenceModel::kBalance) {
        continue;
      }
      const core::ConfidenceEvaluator eval(&cumulative, model);
      const auto generator = MakeGenerator(kind);
      for (const core::TableauType type : types) {
        GeneratorOptions options;
        options.type = type;
        options.c_hat = type == core::TableauType::kHold ? 0.7 : 0.4;
        options.epsilon = 0.05;

        options.num_threads = 1;
        GeneratorStats sequential_stats;
        const std::vector<Interval> sequential =
            generator->Generate(eval, options, &sequential_stats);
        EXPECT_EQ(sequential_stats.shards, 1);

        for (const int threads : {2, 7, 0}) {
          options.num_threads = threads;
          GeneratorStats stats;
          const std::vector<Interval> sharded =
              generator->Generate(eval, options, &stats);
          EXPECT_EQ(sharded, sequential)
              << AlgorithmKindName(kind) << " model " << static_cast<int>(model)
              << " type " << static_cast<int>(type) << " threads " << threads;
          // The confidence-evaluation count and the emitted candidate count
          // are functions of the anchors alone, so they are shard
          // invariant (endpoint_steps may differ: chunks re-locate their
          // level pointers).
          EXPECT_EQ(stats.intervals_tested,
                    sequential_stats.intervals_tested);
          EXPECT_EQ(stats.candidates, sequential_stats.candidates);
          if (threads == 2) {
            EXPECT_EQ(stats.shards, 2);
            // The chunked scheduler dispatches kChunksPerThread chunks
            // per worker and reports per-worker accounting.
            EXPECT_EQ(stats.chunks,
                      std::min<int64_t>(700, 2 * internal::kChunksPerThread));
            EXPECT_EQ(stats.shard_work.size(), 2u);
            uint64_t claimed = 0;
            for (const ShardWork& work : stats.shard_work) {
              claimed += work.chunks_claimed;
            }
            EXPECT_EQ(claimed, static_cast<uint64_t>(stats.chunks));
          }
        }
      }
    }
  }
}

// stop_on_full_cover keeps its sequential early-exit semantics (and output)
// under any requested thread count: the full-span candidate can only come
// from the sequential run's first anchor, so a multi-chunk run cancels all
// other chunks and returns exactly the sequential output.
TEST(ShardInvarianceTest, StopOnFullCoverMatchesSequentialAcrossChunks) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/5, /*n=*/300);
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = core::TableauType::kHold;
  options.c_hat = 0.0;  // every interval qualifies: anchor 1 spans [1, n]
  options.epsilon = 0.05;
  options.stop_on_full_cover = true;

  for (const AlgorithmKind kind :
       {AlgorithmKind::kAreaBased, AlgorithmKind::kNonAreaBasedOpt}) {
    const auto generator = MakeGenerator(kind);
    options.num_threads = 1;
    GeneratorStats sequential_stats;
    const std::vector<Interval> sequential =
        generator->Generate(eval, options, &sequential_stats);
    ASSERT_EQ(sequential, (std::vector<Interval>{Interval{1, 300}}))
        << AlgorithmKindName(kind);

    options.num_threads = 7;
    GeneratorStats stats;
    const std::vector<Interval> sharded =
        generator->Generate(eval, options, &stats);
    EXPECT_EQ(sharded, sequential) << AlgorithmKindName(kind);
    EXPECT_EQ(stats.shards, 7) << AlgorithmKindName(kind);
    EXPECT_GT(stats.chunks, 1) << AlgorithmKindName(kind);
    // Cancelled chunks contribute no counters: the merged counts match the
    // sequential early exit.
    EXPECT_EQ(stats.intervals_tested, sequential_stats.intervals_tested)
        << AlgorithmKindName(kind);
    EXPECT_EQ(stats.candidates, 1u) << AlgorithmKindName(kind);
  }
}

TEST(GeneratorStatsTest, MergeSumsCountersAndLeavesDriverFieldsAlone) {
  GeneratorStats total;
  total.wall_seconds = 2.0;  // driver-owned: Merge must not touch it
  total.shards = 3;
  total.chunks = 9;
  GeneratorStats a;
  a.intervals_tested = 10;
  a.endpoint_steps = 3;
  a.candidates = 2;
  a.seconds = 0.5;
  GeneratorStats b;
  b.intervals_tested = 7;
  b.endpoint_steps = 9;
  b.candidates = 1;
  b.seconds = 0.25;
  b.wall_seconds = 0.75;  // ignored: per-chunk stats carry no wall time
  total.Merge(a);
  total.Merge(b);
  EXPECT_EQ(total.intervals_tested, 17u);
  EXPECT_EQ(total.endpoint_steps, 12u);
  EXPECT_EQ(total.candidates, 3u);
  EXPECT_DOUBLE_EQ(total.seconds, 0.75);
  EXPECT_DOUBLE_EQ(total.wall_seconds, 2.0);
  EXPECT_EQ(total.shards, 3);
  EXPECT_EQ(total.chunks, 9);
}

TEST(GeneratorStatsTest, ShardObservabilityDerivesFromParticipants) {
  GeneratorStats stats;
  // Two participating workers (1.0s, 3.0s), one idle straggler that never
  // claimed a chunk (excluded from the distribution).
  stats.shard_work = {ShardWork{1.0, 4, 0}, ShardWork{3.0, 8, 2},
                      ShardWork{0.0, 0, 0}};
  EXPECT_DOUBLE_EQ(stats.MinShardSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(stats.MaxShardSeconds(), 3.0);
  EXPECT_DOUBLE_EQ(stats.MedianShardSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(stats.ImbalanceRatio(), 1.5);  // 3.0 / mean(1, 3)
  EXPECT_EQ(stats.TotalSteals(), 2u);

  GeneratorStats sequential;
  sequential.shard_work = {ShardWork{0.5, 1, 0}};
  EXPECT_DOUBLE_EQ(sequential.ImbalanceRatio(), 1.0);
  EXPECT_DOUBLE_EQ(sequential.MedianShardSeconds(), 0.5);

  EXPECT_DOUBLE_EQ(GeneratorStats{}.ImbalanceRatio(), 1.0);
  EXPECT_DOUBLE_EQ(GeneratorStats{}.MinShardSeconds(), 0.0);
}

}  // namespace
}  // namespace conservation::interval
