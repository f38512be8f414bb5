// Checkpoint/resume differentials for the resumable walk states
// (interval/walk.h). The states are plain copyable values, so a checkpoint
// is a struct copy (plus, for AB, the chunk's shared pointer vector) and a
// resume is continuing the copy. Every test interrupts a walk at an
// adversarial boundary — each level of an AB sweep, each reverse block of
// a NAB sweep — and asserts the resumed walk reproduces the uninterrupted
// one bitwise: same candidates, same confidences, same counters.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/confidence.h"
#include "datagen/job_log.h"
#include "interval/generator.h"
#include "interval/kernel.h"
#include "interval/non_area_based.h"
#include "interval/walk.h"
#include "series/cumulative.h"

namespace conservation {
namespace {

using core::ConfidenceEvaluator;
using core::ConfidenceModel;
using core::TableauType;
using interval::GeneratorOptions;
namespace ii = interval::internal;

const series::CumulativeSeries& JobSeries(int64_t n) {
  static auto* cache = new std::vector<
      std::pair<int64_t, series::CumulativeSeries*>>();
  for (const auto& [key, value] : *cache) {
    if (key == n) return *value;
  }
  datagen::JobLogParams params;
  params.num_ticks = n;
  auto* built =
      new series::CumulativeSeries(datagen::GenerateJobLog(params).counts);
  cache->emplace_back(n, built);
  return *built;
}

// --- AB walk state ----------------------------------------------------------

// Uninterrupted vs checkpoint-at-every-level: the AB state plus the chunk's
// shared pointer vector is the full checkpoint; restoring both and resuming
// must reproduce best_j/best_conf and the counters.
TEST(AbWalkResume, EveryLevelBoundary) {
  const int64_t n = 600;
  const series::CumulativeSeries& cumulative = JobSeries(n);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = TableauType::kHold;
  options.c_hat = 0.999;
  options.epsilon = 0.01;
  const double delta = interval::ResolveDelta(eval.series(), options);
  const double growth = 1.0 + options.epsilon;
  const double max_area = eval.series().SumB(1, n);
  std::vector<double> thresholds;
  double t_value = delta;
  int64_t num_levels =
      max_area > delta
          ? static_cast<int64_t>(
                std::ceil(std::log(max_area / delta) / std::log(growth))) + 1
          : 0;
  for (int64_t l = 0; l <= num_levels; ++l) {
    thresholds.push_back(t_value);
    t_value *= growth;
  }
  ii::ConfidenceKernel kernel(eval, options.type);
  const std::vector<int64_t> no_zero_prefix;

  ii::AbWalkContext ctx;
  ctx.n = n;
  ctx.delta = delta;
  ctx.growth = growth;
  ctx.thresholds = &thresholds;
  ctx.options = &options;
  ctx.zero_prefix_lengths = &no_zero_prefix;

  for (const int64_t anchor : {1L, 57L, 300L, 600L}) {
    // Uninterrupted run, with its own pointer vector (fresh chunk).
    std::vector<int64_t> ref_pointer(thresholds.size(), 0);
    ctx.pointer = &ref_pointer;
    ii::AbWalkScratch scratch;
    ii::WalkStepCounters ref_counters;
    ii::AbWalkState reference;
    kernel.BeginAnchor(anchor);
    reference.Begin(anchor, kernel, ctx);
    int total_steps = 0;
    while (!reference.done()) {
      reference.Step(kernel, ctx, &scratch, &ref_counters);
      ++total_steps;
    }
    ASSERT_GT(total_steps, 0);

    for (int cut = 0; cut <= total_steps; ++cut) {
      std::vector<int64_t> pointer(thresholds.size(), 0);
      ctx.pointer = &pointer;
      ii::WalkStepCounters counters;
      ii::AbWalkState walk;
      kernel.BeginAnchor(anchor);
      walk.Begin(anchor, kernel, ctx);
      for (int s = 0; s < cut && !walk.done(); ++s) {
        walk.Step(kernel, ctx, &scratch, &counters);
      }
      // Checkpoint: the state, the shared pointer vector, the counters.
      ii::AbWalkState resumed = walk;
      std::vector<int64_t> pointer_copy = pointer;
      ctx.pointer = &pointer_copy;
      ii::WalkStepCounters resumed_counters = counters;
      ii::AbWalkScratch fresh_scratch;  // scratch carries no walk state
      while (!resumed.done()) {
        resumed.Step(kernel, ctx, &fresh_scratch, &resumed_counters);
      }
      ASSERT_EQ(resumed.best_j(), reference.best_j())
          << "anchor " << anchor << " cut " << cut;
      ASSERT_EQ(resumed.best_conf(), reference.best_conf());
      ASSERT_EQ(resumed_counters.tested, ref_counters.tested);
      ASSERT_EQ(resumed_counters.steps, ref_counters.steps);
      ASSERT_EQ(resumed_counters.batches, ref_counters.batches);
    }
  }
}

// --- NAB walk state ---------------------------------------------------------

// Uninterrupted vs checkpoint-at-every-reverse-block (largest-first early
// exit splits the sweep into resumable blocks; the plain sweep is a single
// step and checkpoints trivially before/after).
TEST(NabWalkResume, EveryBlockBoundary) {
  const int64_t n = 600;
  const series::CumulativeSeries& cumulative = JobSeries(n);
  const ConfidenceEvaluator eval(&cumulative, ConfidenceModel::kBalance);
  GeneratorOptions options;
  options.type = TableauType::kHold;
  options.c_hat = 0.9;
  options.epsilon = 0.01;
  const std::vector<int64_t> lengths =
      interval::NonAreaBasedGenerator::MakeLengthSchedule(
          interval::NonAreaBasedGenerator::LengthSchedule::kGeometric,
          options.epsilon, n);
  ii::ConfidenceKernel kernel(eval, options.type);

  for (const bool early_exit : {false, true}) {
    options.largest_first_early_exit = early_exit;
    ii::NabWalkContext ctx{&lengths, &options};
    for (const int64_t j : {1L, 64L, 300L, 600L}) {
      size_t first_covering = lengths.size() - 1;
      while (first_covering > 0 && lengths[first_covering - 1] >= j) {
        --first_covering;
      }
      const size_t applicable = first_covering + 1;

      ii::NabWalkScratch scratch;
      ii::WalkStepCounters ref_counters;
      ii::NabWalkState reference;
      kernel.BeginRightAnchor(j);
      reference.Begin(j, applicable);
      int total_steps = 0;
      while (!reference.finished) {
        reference.Step(kernel, ctx, &scratch, &ref_counters);
        ++total_steps;
      }

      for (int cut = 0; cut <= total_steps; ++cut) {
        ii::WalkStepCounters counters;
        ii::NabWalkState walk;
        kernel.BeginRightAnchor(j);
        walk.Begin(j, applicable);
        for (int s = 0; s < cut && !walk.finished; ++s) {
          walk.Step(kernel, ctx, &scratch, &counters);
        }
        ii::NabWalkState resumed = walk;  // checkpoint: plain value copy
        ii::WalkStepCounters resumed_counters = counters;
        ii::NabWalkScratch fresh_scratch;
        while (!resumed.finished) {
          resumed.Step(kernel, ctx, &fresh_scratch, &resumed_counters);
        }
        ASSERT_EQ(resumed.best_i, reference.best_i)
            << "early_exit " << early_exit << " j " << j << " cut " << cut;
        ASSERT_EQ(resumed.best_conf, reference.best_conf);
        ASSERT_EQ(resumed_counters.tested, ref_counters.tested);
        ASSERT_EQ(resumed_counters.batches, ref_counters.batches);
      }
    }
  }
}

}  // namespace
}  // namespace conservation
