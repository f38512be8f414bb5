// ReferenceGreedyPartialSetCover: the naive O(rounds * (n + m)) greedy
// partial set cover that src/cover/partial_set_cover.cc replaced with the
// lazy-heap + Fenwick implementation. Preserved verbatim (modulo the
// chosen_indices bookkeeping the new CoverResult carries) as the ground
// truth for the differential test and as the "naive" competitor in
// bench_cover_scaling: every pick rescans all candidates and rebuilds the
// covered prefix sums, and marking walks every tick of the pick.
//
// The lazy implementation must be BIT-IDENTICAL to this one — same chosen
// intervals in the same order, same covered/required/satisfied
// (DESIGN.md "Lazy greedy cover"). The reference also reports stats.rounds
// and stats.tick_visits, the latter by replaying its picks, in pick order,
// through a CoverageTracker: equal tick_visits means the lazy cover marked
// the same intervals in the same order.

#ifndef CONSERVATION_TESTS_REFERENCE_COVER_H_
#define CONSERVATION_TESTS_REFERENCE_COVER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cover/partial_set_cover.h"
#include "interval/interval.h"
#include "util/check.h"

namespace conservation::cover {

inline CoverResult ReferenceGreedyPartialSetCover(
    const std::vector<interval::Interval>& candidates, int64_t n,
    const CoverOptions& options) {
  CR_CHECK(n >= 1);
  CR_CHECK(options.s_hat >= 0.0 && options.s_hat <= 1.0);
  for (const interval::Interval& iv : candidates) {
    CR_CHECK(iv.begin >= 1 && iv.begin <= iv.end && iv.end <= n);
  }

  CoverResult result;
  result.required = static_cast<int64_t>(
      std::ceil(options.s_hat * static_cast<double>(n)));

  std::vector<bool> covered(static_cast<size_t>(n) + 1, false);
  std::vector<int64_t> covered_prefix(static_cast<size_t>(n) + 1, 0);
  std::vector<bool> used(candidates.size(), false);
  std::vector<size_t> picked;

  while (result.covered < result.required) {
    // Rebuild the covered prefix sums for O(1) marginal-coverage queries.
    for (int64_t t = 1; t <= n; ++t) {
      covered_prefix[static_cast<size_t>(t)] =
          covered_prefix[static_cast<size_t>(t - 1)] +
          (covered[static_cast<size_t>(t)] ? 1 : 0);
    }

    int64_t best_gain = 0;
    size_t best_index = candidates.size();
    for (size_t k = 0; k < candidates.size(); ++k) {
      if (used[k]) continue;
      const interval::Interval& iv = candidates[k];
      const int64_t already =
          covered_prefix[static_cast<size_t>(iv.end)] -
          covered_prefix[static_cast<size_t>(iv.begin - 1)];
      const int64_t gain = iv.length() - already;
      bool better = gain > best_gain;
      if (gain == best_gain && gain > 0 && best_index < candidates.size()) {
        better = interval::ByPosition(iv, candidates[best_index]);
      }
      if (better) {
        best_gain = gain;
        best_index = k;
      }
    }

    if (best_index == candidates.size() || best_gain == 0) {
      break;  // no candidate adds coverage; requirement unreachable
    }

    used[best_index] = true;
    picked.push_back(best_index);
    const interval::Interval& pick = candidates[best_index];
    for (int64_t t = pick.begin; t <= pick.end; ++t) {
      if (!covered[static_cast<size_t>(t)]) {
        covered[static_cast<size_t>(t)] = true;
        ++result.covered;
      }
    }
  }

  CoverageTracker replay(n);
  for (const size_t index : picked) replay.Mark(candidates[index]);
  result.stats.rounds = static_cast<int64_t>(picked.size());
  result.stats.tick_visits = replay.tick_visits();

  result.satisfied = result.covered >= result.required;
  std::sort(picked.begin(), picked.end(), [&candidates](size_t a, size_t b) {
    return interval::ByPosition(candidates[a], candidates[b]);
  });
  result.chosen.reserve(picked.size());
  result.chosen_indices.reserve(picked.size());
  for (const size_t index : picked) {
    result.chosen.push_back(candidates[index]);
    result.chosen_indices.push_back(index);
  }
  return result;
}

}  // namespace conservation::cover

#endif  // CONSERVATION_TESTS_REFERENCE_COVER_H_
