#include "interval/area_based_opt.h"

#include <algorithm>

#include "interval/area_based.h"
#include "interval/shard.h"

namespace conservation::interval {

namespace internal {

AbOptWalk::AbOptWalk(const core::ConfidenceEvaluator& eval,
                     const GeneratorOptions& options, double delta,
                     AbOptScratch* scratch)
    : options(options),
      kernel(eval, options.type),
      n(eval.n()),
      delta(delta),
      growth(1.0 + options.epsilon),
      // See AreaBasedGenerator: credit-model fail tableaux additionally
      // probe length-geometric endpoints inside the zero-area prefix, where
      // the credit confidence is nonzero and nonincreasing in j.
      zero_prefix_lengths(options.type == core::TableauType::kFail &&
                                  eval.model() == core::ConfidenceModel::kCredit
                              ? ZeroPrefixLengths(n, growth)
                              : std::vector<int64_t>{}),
      scratch(*scratch) {}

size_t AbOptWalk::Advance(int64_t i, AbOptState* state) {
  kernel.BeginAnchor(i);
  std::vector<int64_t>& breakpoints = scratch.breakpoints;
  breakpoints.clear();
  // Locals, so the search loops need not re-read them through `this`
  // after each push into `breakpoints`.
  const int64_t n = this->n;
  const double delta = this->delta;
  const double growth = this->growth;
  uint64_t steps = 0;

  // The call starts with the search the state stopped on. When it resumes
  // a parked anchor, each search probes n first and, if that fails,
  // gallops over [lo, n - 1] from its usual guess. Galloping down from n
  // would cost more: where an anchor crosses its target inside a batch
  // varies from anchor to anchor, while the chain step varies smoothly.
  const uint8_t start = state->search;
  const bool resumed = state->parked;
  auto search = [&](int64_t lo, int64_t guess, double threshold) {
    if (resumed) {
      ++steps;
      if (kernel.SparseArea(n) <= threshold) return n;
      return kernel.LargestEndpointWithin(lo, n - 1, guess, threshold,
                                          &steps);
    }
    return kernel.LargestEndpointWithin(lo, n, guess, threshold, &steps);
  };
  int64_t cur = state->cur;
  size_t tentative = 0;
  state->parked = false;
  // Parks the state on the call's first search whose result sits at n
  // (`from` is the chain position it searched from): that breakpoint and
  // all later ones are tentative.
  auto park = [&](uint8_t which, int64_t from, size_t first_tentative) {
    if (state->parked) return;
    state->search = which;
    state->parked = true;
    state->cur = from;
    tentative = first_tentative;
  };

  if (start == AbOptState::kZero && !zero_prefix_lengths.empty()) {
    const int64_t zero_area_end = search(i, 1, 0.0);
    if (zero_area_end == n) park(AbOptState::kZero, cur, 0);
    for (const int64_t len : zero_prefix_lengths) {
      const int64_t j = i + len - 1;
      if (j >= zero_area_end) break;  // zero_area_end is a breakpoint
      breakpoints.push_back(j);
    }
    if (zero_area_end >= i) breakpoints.push_back(zero_area_end);
  }

  // Initial area breakpoint: the largest j whose area is within the base
  // unit Delta; if even [i, i] exceeds it, start at i (forced). For fail
  // tableaux this also covers the zero-area (confidence 0) special case,
  // since the zero-area prefix lies below Delta.
  if (start != AbOptState::kChain) {
    const int64_t init = search(i, 1, delta);
    if (init == n) park(AbOptState::kInit, cur, breakpoints.size());
    cur = std::max(init, i);
    if (breakpoints.empty() || breakpoints.back() < cur) {
      breakpoints.push_back(cur);
    }
  }

  // Consecutive breakpoint steps change slowly (each area target is
  // (1+eps)x the last), so each search starts one previous step past cur.
  // The guess only sets where a search starts, never its result. A forced
  // advance settles even at n: area(cur + 1) > target persists, so only a
  // search result of n parks the chain.
  int64_t step = 1;
  int64_t found = 0;
  int64_t from = cur;
  while (cur < n) {
    const double target = std::max(kernel.SparseArea(cur), delta) * growth;
    found = search(cur + 1, step, target);
    const int64_t next = std::max(found, cur + 1);  // forced advance
    breakpoints.push_back(next);
    step = next - cur;
    from = cur;
    cur = next;
  }
  if (found == n) park(AbOptState::kChain, from, breakpoints.size() - 1);

  probes += steps;
  if (!state->parked) {
    // Settled through n: the next call resumes the chain from cur == n.
    state->search = AbOptState::kChain;
    state->cur = cur;
    tentative = breakpoints.size();
  }
  return tentative;
}

void AbOptWalk::FoldLongestQualifying(size_t begin, size_t end,
                                      int64_t* best_j, double* best_conf) {
  if (begin == end) return;
  std::vector<double>& conf = scratch.conf;
  std::vector<uint8_t>& valid = scratch.valid;
  if (conf.size() < end - begin) {  // lane scratch only ever grows
    conf.resize(end - begin);
    valid.resize(end - begin);
  }
  const int64_t* js = scratch.breakpoints.data() + begin;
  const int64_t best = LongestQualifying<16>(
      static_cast<int64_t>(end - begin), options,
      [&](int64_t lane_begin, int64_t lane_end) {
        kernel.ConfidenceIndexBatch(js + lane_begin, lane_end - lane_begin,
                                    conf.data() + lane_begin,
                                    valid.data() + lane_begin);
      },
      conf.data(), valid.data(), best_conf, &tested, &batches);
  if (best >= 0) *best_j = js[best];
}

}  // namespace internal

std::vector<Candidate> AreaBasedOptGenerator::GenerateCandidates(
    const core::ConfidenceEvaluator& eval, const GeneratorOptions& options,
    GeneratorStats* stats) const {
  CR_CHECK(options.epsilon > 0.0);
  const int64_t n = eval.n();
  const double delta = ResolveDelta(eval.series(), options);

  // AB-opt carries no cross-anchor state (each anchor's breakpoints come
  // from its own endpoint searches), so anchor chunks parallelize directly.
  // Inner sweeps run on the flat-array kernel (interval/kernel.h).
  auto block = [&, n, delta](int64_t i_begin, int64_t i_end,
                             GeneratorStats* chunk_stats) {
    internal::AbOptScratch scratch;
    internal::AbOptWalk walk(eval, options, delta, &scratch);
    std::vector<Candidate> out;
    out.reserve(static_cast<size_t>(i_end - i_begin + 1));
    for (int64_t i = i_begin; i <= i_end; ++i) {
      internal::AbOptState state;
      walk.Advance(i, &state);
      int64_t best_j = 0;
      double best_conf = 0.0;
      walk.FoldLongestQualifying(0, scratch.breakpoints.size(), &best_j,
                                 &best_conf);
      if (best_j >= i) {
        out.push_back(Candidate{Interval{i, best_j}, best_conf});
        if (options.stop_on_full_cover && i == 1 && best_j == n) break;
      }
    }

    chunk_stats->intervals_tested = walk.tested;
    chunk_stats->endpoint_steps = walk.probes;
    chunk_stats->batches = walk.batches;
    return out;
  };

  return internal::RunSharded(n, options, stats, block);
}

}  // namespace conservation::interval
