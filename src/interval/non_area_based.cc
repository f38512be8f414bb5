#include "interval/non_area_based.h"

#include <algorithm>
#include <cmath>

#include "interval/kernel.h"
#include "interval/shard.h"
#include "interval/walk.h"

namespace conservation::interval {

std::vector<int64_t> NonAreaBasedGenerator::MakeLengthSchedule(
    LengthSchedule schedule, double epsilon, int64_t max_length) {
  CR_CHECK(epsilon > 0.0);
  CR_CHECK(max_length >= 1);
  const double growth = 1.0 + epsilon;
  std::vector<int64_t> lengths;
  if (schedule == LengthSchedule::kGeometric) {
    // floor((1+eps)^h), h = 0, 1, 2, ... — duplicates included, as in the
    // paper's NAB, whose per-anchor level count is 1 + ceil(log_{1+eps} j).
    double power = 1.0;
    while (true) {
      const int64_t len = static_cast<int64_t>(power);
      lengths.push_back(std::min(len, max_length));
      if (len >= max_length) break;
      power *= growth;
    }
  } else {
    int64_t len = 1;
    while (true) {
      lengths.push_back(std::min(len, max_length));
      if (len >= max_length) break;
      len = std::max(len + 1,
                     static_cast<int64_t>(growth * static_cast<double>(len)));
    }
  }
  return lengths;
}

std::vector<Candidate> NonAreaBasedGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  // The §V algorithms are defined for the balance model only; the tableau
  // facade routes other models to AB. See header.
  CR_CHECK(eval.model() == core::ConfidenceModel::kBalance);
  const int64_t n = eval.n();
  const std::vector<int64_t> lengths =
      MakeLengthSchedule(schedule_, options.epsilon, n);

  // NAB runs without the sketch anchor screen: the length schedule already
  // caps probes per anchor at O(log n), so a screen cannot amortize its
  // construction here (DESIGN.md §4f).

  // Right anchors are processed in descending order within a chunk, and
  // chunks are claimed in descending anchor order (ChunkOrder::kDescending),
  // so the anchor that can produce [1, n] under stop_on_full_cover comes
  // first — mirroring AB, whose i = 1 anchor comes first. Results are order
  // independent otherwise, and the final sort makes the concatenated chunk
  // outputs identical to the sequential run (each anchor emits at most one
  // interval, so positions are distinct).
  //
  // `first_covering` tracks the index of the first schedule entry >= j; it
  // only moves left as j decreases, so maintaining it is O(1) amortized.
  // Each chunk re-bases it from the end of the schedule — at most one extra
  // walk down the schedule per chunk. The confidence sweep runs on the
  // flat-array kernel with the right-endpoint prefix sums hoisted per
  // anchor (interval/kernel.h).
  auto block = [&, n](int64_t j_begin, int64_t j_end,
                      GeneratorStats* chunk_stats) {
    internal::ConfidenceKernel kernel(eval, options.type);
    internal::NabWalkContext ctx{&lengths, &options};
    internal::NabWalkScratch scratch;
    internal::WalkStepCounters counters;
    internal::NabWalkState walk;
    std::vector<Candidate> out;
    out.reserve(static_cast<size_t>(j_end - j_begin + 1));
    uint64_t walks_started = 0;
    uint64_t walk_steps = 0;
    size_t first_covering = lengths.size() - 1;  // last entry is >= n >= j
    for (int64_t j = j_end; j >= j_begin; --j) {
      while (first_covering > 0 && lengths[first_covering - 1] >= j) {
        --first_covering;
      }
      kernel.BeginRightAnchor(j);
      // Schedule entries applicable to this anchor: all lengths < j plus
      // the first one >= j (which clamps to i = 1).
      walk.Begin(j, first_covering + 1);
      ++walks_started;
      while (!walk.finished) {
        walk.Step(kernel, ctx, &scratch, &counters);
        ++walk_steps;
      }
      if (walk.best_i >= 1) {
        out.push_back(Candidate{Interval{walk.best_i, j}, walk.best_conf});
        if (options.stop_on_full_cover && walk.best_i == 1 && j == n) break;
      }
    }
    chunk_stats->intervals_tested = counters.tested;
    chunk_stats->batches = counters.batches;
    chunk_stats->walks = walks_started;
    chunk_stats->walk_rounds = walk_steps;
    return out;
  };

  std::vector<Candidate> out = internal::RunSharded(
      n, options, stats, block, internal::ChunkOrder::kDescending);
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return ByPosition(a.interval, b.interval);
  });
  return out;
}

}  // namespace conservation::interval
