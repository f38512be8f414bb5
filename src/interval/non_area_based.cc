#include "interval/non_area_based.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "interval/kernel.h"
#include "interval/shard.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace conservation::interval {

namespace {

// Puts candidates whose ends strictly increase (at most one per right
// anchor, anchors ascending) into ByPosition order in O(n + k): a stable
// counting sort by begin keeps the ends ascending within each begin. The
// permutation is applied in place by following its cycles, so no second
// candidate buffer is allocated.
void SortEndOrderedByPosition(int64_t n, std::vector<Candidate>* candidates) {
  std::vector<Candidate>& out = *candidates;
  CR_CHECK(out.size() <= std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t> dest(out.size());
  {
    // next_slot[b]: the first output slot of begin b, then its next free one.
    std::vector<uint32_t> next_slot(static_cast<size_t>(n) + 2, 0);
    for (const Candidate& c : out) {
      ++next_slot[static_cast<size_t>(c.interval.begin) + 1];
    }
    for (size_t b = 1; b < next_slot.size(); ++b) {
      next_slot[b] += next_slot[b - 1];
    }
    for (size_t i = 0; i < out.size(); ++i) {
      dest[i] = next_slot[static_cast<size_t>(out[i].interval.begin)]++;
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    while (dest[i] != i) {
      const uint32_t d = dest[i];
      std::swap(out[i], out[d]);
      std::swap(dest[i], dest[d]);
    }
  }
}

}  // namespace

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

namespace internal {

std::pair<int64_t, double> ProbeRightAnchor(
    int64_t j, const std::vector<int64_t>& lengths,
    const GeneratorOptions& options, ConfidenceKernel* kernel,
    NabProbeScratch* scratch, uint64_t* tested, uint64_t* batches) {
  kernel->BeginRightAnchor(j);
  // Every schedule length below j, plus the first one >= j (which clamps
  // to i = 1).
  const auto covering = std::lower_bound(lengths.begin(), lengths.end(), j);
  const size_t applicable = static_cast<size_t>(covering - lengths.begin()) + 1;
  // Left anchors per level, probed through the right-anchored batch kernel
  // (index-list gather over a, SA, SB).
  std::vector<int64_t>& level_is = scratch->level_is;
  level_is.resize(applicable);
  scratch->conf.resize(applicable);
  scratch->valid.resize(applicable);
  for (size_t h = 0; h < applicable; ++h) {
    level_is[h] = std::max<int64_t>(1, j + 1 - lengths[h]);
  }
  double best_conf = 0.0;
  const int64_t best = LongestQualifying<8>(
      static_cast<int64_t>(applicable), options,
      [&](int64_t begin, int64_t end) {
        kernel->ConfidenceFromBatch(level_is.data() + begin, end - begin,
                                    scratch->conf.data() + begin,
                                    scratch->valid.data() + begin);
      },
      scratch->conf.data(), scratch->valid.data(), &best_conf, tested,
      batches);
  if (best < 0) return {0, 0.0};
  return {level_is[static_cast<size_t>(best)], best_conf};
}

}  // namespace internal

std::vector<Candidate> NonAreaBasedGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  // The §V algorithms are defined for the balance model only; the tableau
  // facade routes other models to AB. See header.
  CR_CHECK(eval.model() == core::ConfidenceModel::kBalance);
  util::Stopwatch timer;
  const int64_t n = eval.n();
  const std::vector<int64_t> lengths =
      MakeLengthSchedule(schedule_, options.epsilon, n);

  // NAB runs without the sketch anchor screen: the length schedule already
  // caps probes per anchor at O(log n), so a screen cannot amortize its
  // construction here (DESIGN.md §4f).

  // Right anchors are probed in descending order within a chunk, and
  // chunks are claimed in descending anchor order (ChunkOrder::kDescending),
  // so the anchor that can produce [1, n] under stop_on_full_cover comes
  // first — mirroring AB, whose i = 1 anchor comes first. Results are order
  // independent otherwise. Each chunk hands its candidates over in
  // ascending anchor order, so the concatenated output has strictly
  // increasing ends (each anchor emits at most one interval) and a linear
  // counting sort by begin puts it in ByPosition order, identical to the
  // sequential run. The confidence sweep runs on the flat-array kernel with
  // the right-endpoint prefix sums hoisted per anchor (interval/kernel.h).
  auto block = [&, n](int64_t j_begin, int64_t j_end,
                      GeneratorStats* chunk_stats) {
    internal::ConfidenceKernel kernel(eval, options.type);
    internal::NabProbeScratch scratch;
    uint64_t tested = 0;
    uint64_t batches = 0;
    std::vector<Candidate> out;
    out.reserve(static_cast<size_t>(j_end - j_begin + 1));
    for (int64_t j = j_end; j >= j_begin; --j) {
      const auto [best_i, best_conf] = internal::ProbeRightAnchor(
          j, lengths, options, &kernel, &scratch, &tested, &batches);
      if (best_i >= 1) {
        out.push_back(Candidate{Interval{best_i, j}, best_conf});
        if (options.stop_on_full_cover && best_i == 1 && j == n) break;
      }
    }
    std::reverse(out.begin(), out.end());
    chunk_stats->intervals_tested = tested;
    chunk_stats->batches = batches;
    return out;
  };

  std::vector<Candidate> out = internal::RunSharded(
      n, options, stats, block, internal::ChunkOrder::kDescending);
  {
    CR_TRACE_SPAN_ARGS("generate.order", "k", static_cast<int64_t>(out.size()));
    SortEndOrderedByPosition(n, &out);
  }
  // The generator's wall time covers the reorder too, not just RunSharded.
  if (stats != nullptr) stats->wall_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace conservation::interval
