// Differential tests for the quantized-sketch anchor screen
// (interval/prune.h): with the screen on, every generator must emit a
// candidate set bit-identical to its unscreened run — on every model ×
// tableau-type × epsilon × series-family combination, at every thread
// count — because the screen only skips anchors whose per-anchor optimum
// is provably empty. The suite also checks the screen's soundness
// invariant directly (every emitted candidate's anchor must survive
// MayEmit), the prune-counter extremes (all-pruned and none-pruned
// adversarial families), determinism of the new counters across thread
// counts, and the sketch encoder's degenerate blocks (constant values, the
// +infinity suffix sentinel).
//
// This suite also runs under the ASan/TSan ctest configurations
// (tools/sanitizer_smoke.sh) to cover the shared read-only screen.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/confidence.h"
#include "core/model.h"
#include "interval/generator.h"
#include "interval/prune.h"
#include "series/sketch.h"
#include "test_data.h"
#include "util/random.h"

namespace conservation {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;
using interval::AlgorithmKind;
using interval::Candidate;
using interval::GeneratorOptions;
using interval::GeneratorStats;
using interval::SketchMode;
using interval::internal::ScopedSketchScreen;
using interval::internal::SketchScreenEnabled;
using series::SeriesSketch;

// Adversarial families for the screen:
//   low_conf_hold - b is a fat Poisson stream, a only a few isolated
//                   spikes: hold confidence is tiny everywhere, so a high
//                   c_hat prunes every anchor (the all-pruned extreme).
//   uniform_pass  - a == b, confidence is exactly 1 everywhere: no anchor
//                   can be pruned for hold (the none-pruned extreme), and
//                   every anchor is prunable for fail at a low c_hat.
//   mixed         - random dominated counts; pruned and surviving anchors
//                   interleave, exercising the mixed-group per-anchor scan
//                   and the per-tick refinement path.
//   saturated     - outbound spikes above the inbound baseline: raw areas
//                   go negative, the kernel clamps saturate, and many
//                   sketch blocks are sign-mixed.
//   constant      - a == b == const: every sketch block is degenerate
//                   (zero quantization width).
series::CountSequence MakeFamily(const std::string& family, int64_t n) {
  std::vector<double> a(static_cast<size_t>(n), 0.0);
  std::vector<double> b(static_cast<size_t>(n), 0.0);
  util::Rng rng(29);
  if (family == "mixed") return testing_util::RandomDominatedCounts(11, n);
  if (family == "low_conf_hold") {
    for (int64_t t = 0; t < n; ++t) {
      b[static_cast<size_t>(t)] = 2.0 + static_cast<double>(rng.Poisson(6.0));
      if (t % 97 == 13) a[static_cast<size_t>(t)] = 1.0;
    }
  } else if (family == "uniform_pass") {
    for (int64_t t = 0; t < n; ++t) {
      const double v = 1.0 + static_cast<double>(rng.Poisson(3.0));
      a[static_cast<size_t>(t)] = v;
      b[static_cast<size_t>(t)] = v;
    }
  } else if (family == "saturated") {
    for (int64_t t = 0; t < n; ++t) {
      b[static_cast<size_t>(t)] = 1.0;
      a[static_cast<size_t>(t)] =
          rng.Bernoulli(0.15) ? static_cast<double>(rng.UniformInt(4, 16))
                              : 0.0;
    }
  } else if (family == "constant") {
    for (int64_t t = 0; t < n; ++t) {
      a[static_cast<size_t>(t)] = 3.0;
      b[static_cast<size_t>(t)] = 3.0;
    }
  } else {
    CR_UNREACHABLE();
  }
  auto counts = series::CountSequence::Create(std::move(a), std::move(b));
  CR_CHECK(counts.ok());
  return std::move(counts).value();
}

const std::string kFamilies[] = {"low_conf_hold", "uniform_pass", "mixed",
                                 "saturated", "constant"};
const TableauType kTypes[] = {TableauType::kHold, TableauType::kFail};

// Large enough that the auto gate (n >= 2 * block) engages at the test
// block span, small enough that the exhaustive O(n^2) runs stay fast.
constexpr int64_t kN = 700;
constexpr int64_t kBlock = 32;

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

GeneratorOptions BaseOptions(TableauType type) {
  GeneratorOptions options;
  options.type = type;
  options.c_hat = type == TableauType::kHold ? 0.9 : 0.3;
  options.epsilon = 0.05;
  options.sketch_block = kBlock;
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

// --- Differential: candidates bit-identical, screen on vs off -------------

class SketchPruneDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, TableauType>> {};

TEST_P(SketchPruneDifferential, CandidatesIdenticalAcrossEverything) {
  const auto& [family, type] = GetParam();
  const series::CountSequence counts = MakeFamily(family, kN);
  const series::CumulativeSeries cumulative(counts);

  const AlgorithmKind kinds[] = {
      AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
      AlgorithmKind::kAreaBasedOpt, AlgorithmKind::kNonAreaBased,
      AlgorithmKind::kNonAreaBasedOpt};
  const ConfidenceModel models[] = {ConfidenceModel::kBalance,
                                    ConfidenceModel::kCredit,
                                    ConfidenceModel::kDebit};

  for (const ConfidenceModel model : models) {
    const ConfidenceEvaluator eval(&cumulative, model);
    for (const AlgorithmKind kind : kinds) {
      if (model != ConfidenceModel::kBalance &&
          (kind == AlgorithmKind::kNonAreaBased ||
           kind == AlgorithmKind::kNonAreaBasedOpt)) {
        continue;
      }
      const auto generator = interval::MakeGenerator(kind);
      for (const double epsilon : {0.05, 0.5}) {
        GeneratorOptions options = BaseOptions(type);
        options.epsilon = epsilon;
        SCOPED_TRACE(std::string(AlgorithmKindName(kind)) + " model=" +
                     ConfidenceModelName(model) +
                     " eps=" + std::to_string(epsilon));

        options.sketch = SketchMode::kOff;
        const std::vector<Candidate> baseline =
            generator->GenerateCandidates(eval, options, nullptr);

        options.sketch = SketchMode::kAuto;
        ASSERT_TRUE(SketchScreenEnabled(options, kN));
        GeneratorStats seq_stats;
        {
          const std::vector<Candidate> screened =
              generator->GenerateCandidates(eval, options, &seq_stats);
          ExpectSameCandidates(screened, baseline);
        }
        for (const int threads : {1, 3}) {
          options.num_threads = threads;
          GeneratorStats stats;
          const std::vector<Candidate> screened =
              generator->GenerateCandidates(eval, options, &stats);
          ExpectSameCandidates(screened, baseline);
          // Screen decisions are pure functions of (series, options,
          // anchor): the prune counter must not depend on threading.
          EXPECT_EQ(stats.anchors_pruned, seq_stats.anchors_pruned);
        }
        options.num_threads = 1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SketchPruneDifferential,
                         ::testing::Combine(::testing::ValuesIn(kFamilies),
                                            ::testing::ValuesIn(kTypes)));

// --- Prune-rate extremes ---------------------------------------------------

TEST(SketchPruneExtremes, AllPrunedFamilyPrunesEveryAnchor) {
  const series::CountSequence counts = MakeFamily("low_conf_hold", kN);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);

  GeneratorOptions options = BaseOptions(TableauType::kHold);  // c_hat = 0.9
  const auto generator = interval::MakeGenerator(AlgorithmKind::kAreaBased);
  GeneratorStats stats;
  const std::vector<Candidate> out =
      generator->GenerateCandidates(eval, options, &stats);
  EXPECT_TRUE(out.empty());
  // Nearly the whole sweep is skipped: the conservative bounds may let a
  // handful of anchors through (measured: 699 of 700 pruned), but the
  // prune rate must stay essentially total and the surviving work a small
  // fraction of the unscreened n^2/2 endpoint sweep.
  EXPECT_GE(stats.anchors_pruned, static_cast<uint64_t>(kN - kN / 100));
  EXPECT_LT(stats.intervals_tested, static_cast<uint64_t>(kN));
  EXPECT_GT(stats.sketch_blocks, 0u);
}

TEST(SketchPruneExtremes, NonePrunedFamilyKeepsEveryAnchor) {
  const series::CountSequence counts = MakeFamily("uniform_pass", kN);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);

  // conf == 1 everywhere, so no anchor can be ruled out for hold.
  GeneratorOptions options = BaseOptions(TableauType::kHold);
  const auto generator = interval::MakeGenerator(AlgorithmKind::kAreaBased);
  GeneratorStats stats;
  const std::vector<Candidate> out =
      generator->GenerateCandidates(eval, options, &stats);
  EXPECT_FALSE(out.empty());
  EXPECT_EQ(stats.anchors_pruned, 0u);
}

// --- Screen soundness, asserted directly -----------------------------------

// Every candidate the UNSCREENED generator emits must have a surviving
// anchor under the screen — the no-false-negative invariant, checked
// against the screen object itself rather than through the generator.
class SketchScreenSoundness
    : public ::testing::TestWithParam<std::tuple<std::string, TableauType>> {};

TEST_P(SketchScreenSoundness, EmittedAnchorsSurviveTheScreen) {
  const auto& [family, type] = GetParam();
  const series::CountSequence counts = MakeFamily(family, kN);
  const series::CumulativeSeries cumulative(counts);
  const ConfidenceModel models[] = {ConfidenceModel::kBalance,
                                    ConfidenceModel::kCredit,
                                    ConfidenceModel::kDebit};
  for (const ConfidenceModel model : models) {
    const ConfidenceEvaluator eval(&cumulative, model);
    GeneratorOptions options = BaseOptions(type);
    options.sketch = SketchMode::kOff;
    SCOPED_TRACE(std::string("model=") + ConfidenceModelName(model));

    // Left screens: relaxed (AB family) against the AB run, exact against
    // the exhaustive run.
    for (const bool relaxed : {true, false}) {
      const auto generator = interval::MakeGenerator(
          relaxed ? AlgorithmKind::kAreaBased : AlgorithmKind::kExhaustive);
      const std::vector<Candidate> baseline =
          generator->GenerateCandidates(eval, options, nullptr);
      GeneratorOptions screen_options = options;
      screen_options.sketch = SketchMode::kAuto;
      const ScopedSketchScreen scoped(eval, screen_options, relaxed);
      ASSERT_NE(scoped.get(), nullptr);
      uint64_t blocks = 0;
      for (const Candidate& c : baseline) {
        EXPECT_TRUE(scoped.get()->MayEmit(c.interval.begin, &blocks))
            << "relaxed=" << relaxed << " " << c.interval.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SketchScreenSoundness,
                         ::testing::Combine(::testing::ValuesIn(kFamilies),
                                            ::testing::ValuesIn(kTypes)));

// --- Gating ----------------------------------------------------------------

TEST(SketchGate, AutoGateAndExplicitOff) {
  GeneratorOptions options;
  options.sketch_block = 256;
  EXPECT_TRUE(SketchScreenEnabled(options, 4096));
  EXPECT_TRUE(SketchScreenEnabled(options, 512));
  EXPECT_FALSE(SketchScreenEnabled(options, 511));  // n < 2 * block
  options.sketch = SketchMode::kOff;
  EXPECT_FALSE(SketchScreenEnabled(options, 4096));
}

// --- Quantization edge cases (satellite d) ---------------------------------

// Exact per-index bracketing over every column of every family, including
// the degenerate all-constant blocks and the +infinity suffix sentinel.
TEST(SketchQuantization, CodesBracketEveryColumnEverywhere) {
  for (const std::string& family : kFamilies) {
    const series::CountSequence counts = MakeFamily(family, 300);
    const series::CumulativeSeries cumulative(counts);
    const SeriesSketch sketch = SeriesSketch::Build(cumulative, 16);
    SCOPED_TRACE(family);

    const auto column_value = [&](SeriesSketch::Column c, int64_t idx) {
      switch (c) {
        case SeriesSketch::kA: return cumulative.a_data()[idx];
        case SeriesSketch::kB: return cumulative.b_data()[idx];
        case SeriesSketch::kSA: return cumulative.sa_data()[idx];
        case SeriesSketch::kSB: return cumulative.sb_data()[idx];
        case SeriesSketch::kS: return cumulative.suffix_min_gap_data()[idx];
        default: CR_UNREACHABLE();
      }
    };
    for (int c = 0; c < SeriesSketch::kNumColumns; ++c) {
      const auto column = static_cast<SeriesSketch::Column>(c);
      for (int64_t idx = 0; idx < sketch.column_length(column); ++idx) {
        const double v = column_value(column, idx);
        const double lo = sketch.CodeLower(column, idx);
        const double hi = sketch.CodeUpper(column, idx);
        ASSERT_FALSE(std::isnan(lo)) << "c=" << c << " idx=" << idx;
        ASSERT_FALSE(std::isnan(hi)) << "c=" << c << " idx=" << idx;
        ASSERT_LE(lo, v) << "c=" << c << " idx=" << idx;
        ASSERT_GE(hi, v) << "c=" << c << " idx=" << idx;
      }
    }

    // The suffix sentinel at index n+1 is +infinity; its block map and
    // decoded upper bound must reproduce it without NaN (inf - inf) codes.
    const int64_t sentinel = cumulative.n() + 1;
    EXPECT_TRUE(std::isinf(sketch.CodeUpper(SeriesSketch::kS, sentinel)));
    EXPECT_FALSE(std::isnan(sketch.CodeLower(SeriesSketch::kS, sentinel)));
  }
}

TEST(SketchQuantization, ConstantBlocksAreExact) {
  // a == b == 3 gives piecewise-linear columns; A and B are exactly linear,
  // so each block spans a nonzero range, while suffix_min_gap is constant 0
  // with a +inf sentinel: its finite blocks must collapse to zero width and
  // decode exactly.
  const series::CountSequence counts = MakeFamily("constant", 128);
  const series::CumulativeSeries cumulative(counts);
  const SeriesSketch sketch = SeriesSketch::Build(cumulative, 16);
  // Stop before the sentinel's own block: there the block span is
  // [0, +inf], width degenerates to 0, and decoding falls back to the
  // (infinite) block bounds for every index it covers — still bracketing,
  // just not exact.
  const int64_t sentinel_block_start = ((cumulative.n() + 1) / 16) * 16;
  for (int64_t i = 1; i < sentinel_block_start; ++i) {
    EXPECT_EQ(Bits(sketch.CodeLower(SeriesSketch::kS, i)), Bits(0.0));
    EXPECT_EQ(Bits(sketch.CodeUpper(SeriesSketch::kS, i)), Bits(0.0));
  }
  // Range bounds touching the sentinel block stay NaN-free: the upper
  // bound is the +inf sentinel itself, the lower bound the block's finite
  // minimum (block granularity unions the whole covering block).
  double lo = 0.0, hi = 0.0;
  sketch.RangeBounds(SeriesSketch::kS, cumulative.n() + 1, cumulative.n() + 1,
                     &lo, &hi);
  EXPECT_FALSE(std::isnan(lo));
  EXPECT_EQ(hi, std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace conservation
