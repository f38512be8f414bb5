// bench_cover_scaling: cover-phase scaling of the lazy-greedy (CELF-style)
// GreedyPartialSetCover against the preserved naive reference
// (tests/reference_cover.h). Not a paper figure — this tracks the phase-2
// rewrite the same way bench_parallel_scaling tracks phase 1.
//
// Three synthetic candidate families stress different parts of the lazy
// machinery:
//   shingles    overlapping fixed-length intervals (the generators' typical
//               output shape): many rounds, moderate staleness.
//   nested      chains of nested intervals: after each outer pick the whole
//               chain decays to zero gain, maximizing retirements.
//   duplicates  every distinct interval repeated 8x: duplicate copies must
//               pop, re-evaluate to zero, and retire without being chosen.
//
// Sweeps: n (with k scaled proportionally), then k at fixed n. Chosen sets
// are asserted identical between lazy and naive on every compared run.
//
// Flags: --n=<max n> --k=<max candidates> --s_hat=<fraction>
//        --naive_max=<skip naive above this n> --json=<path>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cover/partial_set_cover.h"
#include "interval/interval.h"
#include "tests/reference_cover.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace {

using namespace conservation;
using interval::Interval;

std::vector<Interval> MakeShingles(int64_t n, int64_t k) {
  const int64_t stride = std::max<int64_t>(1, n / k);
  const int64_t length = std::min<int64_t>(n, 100 * stride);
  std::vector<Interval> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t b = 1; b <= n && static_cast<int64_t>(out.size()) < k;
       b += stride) {
    out.push_back(Interval{b, std::min<int64_t>(n, b + length - 1)});
  }
  return out;
}

std::vector<Interval> MakeNested(int64_t n, int64_t k) {
  // k/16 groups of 16 nested intervals each; greedy picks the outermost of
  // every group and the 15 inner ones decay to zero gain.
  const int64_t groups = std::max<int64_t>(1, k / 16);
  const int64_t width = std::max<int64_t>(32, n / groups);
  std::vector<Interval> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t g = 0; g * width < n; ++g) {
    const int64_t lo = 1 + g * width;
    const int64_t hi = std::min<int64_t>(n, lo + width - 1);
    for (int64_t d = 0; d < 16; ++d) {
      const int64_t begin = std::min<int64_t>(hi, lo + d * (width / 32));
      const int64_t end = std::max<int64_t>(begin, hi - d * (width / 32));
      out.push_back(Interval{begin, end});
      if (static_cast<int64_t>(out.size()) >= k) return out;
    }
  }
  return out;
}

std::vector<Interval> MakeDuplicates(int64_t n, int64_t k) {
  const int64_t distinct = std::max<int64_t>(1, k / 8);
  const int64_t stride = std::max<int64_t>(1, n / distinct);
  const int64_t length = std::min<int64_t>(n, 4 * stride);
  std::vector<Interval> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t b = 1; b <= n && static_cast<int64_t>(out.size()) < k;
       b += stride) {
    const Interval iv{b, std::min<int64_t>(n, b + length - 1)};
    for (int copy = 0; copy < 8; ++copy) {
      out.push_back(iv);
      if (static_cast<int64_t>(out.size()) >= k) break;
    }
  }
  return out;
}

struct Family {
  const char* name;
  std::vector<Interval> (*make)(int64_t n, int64_t k);
};

constexpr Family kFamilies[] = {
    {"shingles", MakeShingles},
    {"nested", MakeNested},
    {"duplicates", MakeDuplicates},
};

void ExpectSameChoice(const cover::CoverResult& a,
                      const cover::CoverResult& b) {
  CR_CHECK(a.chosen == b.chosen);
  CR_CHECK(a.covered == b.covered);
  CR_CHECK(a.satisfied == b.satisfied);
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t max_n = bench::IntFlag(argc, argv, "n", 1000000);
  const int64_t max_k = bench::IntFlag(argc, argv, "k", 100000);
  const double s_hat = bench::DoubleFlag(argc, argv, "s_hat", 0.9);
  const int64_t naive_max = bench::IntFlag(argc, argv, "naive_max", max_n);
  bench::BenchJson json = bench::BenchJson::FromArgs(argc, argv, "cover");

  cover::CoverOptions options;
  options.s_hat = s_hat;

  bench::PrintHeader("cover-phase scaling: lazy heap + Fenwick vs naive scan");
  std::printf(
      "%-11s %9s %8s | %9s %9s %7s | %7s %9s %7s %11s\n", "family", "n", "k",
      "naive_s", "lazy_s", "speedup", "rounds", "pops", "stale", "tick_visits");

  // n sweep (k scales with n) then k sweep at the largest n.
  struct Config {
    int64_t n;
    int64_t k;
  };
  std::vector<Config> configs = {{max_n / 4, max_k / 4},
                                 {max_n / 2, max_k / 2},
                                 {max_n, max_k},
                                 {max_n, max_k / 10},
                                 {max_n, max_k / 3}};
  for (const Family& family : kFamilies) {
    for (const Config& config : configs) {
      const int64_t n = std::max<int64_t>(64, config.n);
      const std::vector<Interval> candidates =
          family.make(n, std::max<int64_t>(1, config.k));
      const int64_t k = static_cast<int64_t>(candidates.size());

      util::Stopwatch lazy_timer;
      const cover::CoverResult lazy =
          cover::GreedyPartialSetCover(candidates, n, options);
      const double lazy_seconds = lazy_timer.ElapsedSeconds();

      double naive_seconds = 0.0;
      double speedup = 0.0;
      if (n <= naive_max) {
        util::Stopwatch naive_timer;
        const cover::CoverResult naive =
            cover::ReferenceGreedyPartialSetCover(candidates, n, options);
        naive_seconds = naive_timer.ElapsedSeconds();
        ExpectSameChoice(lazy, naive);
        speedup = lazy_seconds > 0.0 ? naive_seconds / lazy_seconds : 0.0;
        json.AddCover(n, "naive", family.name, k, naive_seconds, 0.0,
                      naive.stats);
      }
      json.AddCover(n, "lazy", family.name, k, lazy_seconds, speedup,
                    lazy.stats);

      std::printf(
          "%-11s %9lld %8lld | %9.4f %9.4f %7.1f | %7lld %9lld %7lld %11lld\n",
          family.name, static_cast<long long>(n), static_cast<long long>(k),
          naive_seconds, lazy_seconds, speedup,
          static_cast<long long>(lazy.stats.rounds),
          static_cast<long long>(lazy.stats.heap_pops),
          static_cast<long long>(lazy.stats.stale_reevaluations),
          static_cast<long long>(lazy.stats.tick_visits));
    }
  }

  json.Flush();
  return 0;
}
