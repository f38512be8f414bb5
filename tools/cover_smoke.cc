// Parallel-seeding equivalence smoke for the lazy-greedy partial set cover.
// Built and run under ThreadSanitizer by tools/sanitizer_smoke.sh (ctest target
// tsan_cover_seeding_smoke) so a data race in the ParallelFor seeding stage
// (disjoint-slot writes into the pre-sized heap vector) fails the suite.
//
// Runs the cover at 1 and 4 threads over candidate families that stress the
// heap (shingles, nested chains, duplicates) and exits nonzero on any
// divergence — thread count must never change the
// chosen set.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "cover/partial_set_cover.h"
#include "interval/interval.h"

int main() {
  using namespace conservation;
  using interval::Interval;

  const int64_t n = 200000;
  struct Family {
    const char* name;
    std::vector<Interval> candidates;
  };
  std::vector<Family> families(3);
  families[0].name = "shingles";
  for (int64_t b = 1; b <= n; b += 8) {
    families[0].candidates.push_back(Interval{b, std::min<int64_t>(n, b + 99)});
  }
  families[1].name = "nested";
  for (int64_t d = 0; d < 2000; ++d) {
    families[1].candidates.push_back(Interval{1 + d * 40, n - d * 40});
  }
  families[2].name = "duplicates";
  for (int64_t b = 1; b <= n; b += 50) {
    const Interval iv{b, std::min<int64_t>(n, b + 199)};
    for (int copy = 0; copy < 4; ++copy) {
      families[2].candidates.push_back(iv);
    }
  }

  int failures = 0;
  for (const Family& family : families) {
    cover::CoverOptions options;
    options.s_hat = 0.95;

    options.num_threads = 1;
    const cover::CoverResult sequential =
        cover::GreedyPartialSetCover(family.candidates, n, options);

    options.num_threads = 4;
    const cover::CoverResult parallel =
        cover::GreedyPartialSetCover(family.candidates, n, options);

    const bool identical =
        parallel.chosen == sequential.chosen &&
        parallel.chosen_indices == sequential.chosen_indices &&
        parallel.covered == sequential.covered &&
        parallel.satisfied == sequential.satisfied;
    std::printf("%-11s m=%zu rounds=%lld pops=%lld %s\n", family.name,
                family.candidates.size(),
                static_cast<long long>(parallel.stats.rounds),
                static_cast<long long>(parallel.stats.heap_pops),
                identical ? "OK" : "MISMATCH");
    if (!identical) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "cover_smoke: %d config(s) diverged\n", failures);
    return 1;
  }
  std::printf("cover_smoke: parallel seeding identical to sequential\n");
  return 0;
}
