// google-benchmark microbenchmarks of the library's building blocks, plus
// ablations of the design choices called out in DESIGN.md §4:
//   * cumulative preprocessing and O(1) confidence evaluation;
//   * candidate generation across algorithms;
//   * Delta mode (min positive count vs 1) — affects AB's level count;
//   * largest-first early exit;
//   * greedy partial set cover.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "core/confidence.h"
#include "core/tableau.h"
#include "cover/partial_set_cover.h"
#include "datagen/job_log.h"
#include "incr/incremental.h"
#include "interval/generator.h"
#include "interval/kernel_simd.h"
#include "series/cumulative.h"
#include "stream/streaming_monitor.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using namespace conservation;

const series::CountSequence& JobCounts(int64_t n) {
  static auto* cache = new std::map<int64_t, series::CountSequence>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    datagen::JobLogParams params;
    params.num_ticks = n;
    it = cache->emplace(n, datagen::GenerateJobLog(params).counts).first;
  }
  return it->second;
}

void BM_CumulativeBuild(benchmark::State& state) {
  const series::CountSequence& counts = JobCounts(state.range(0));
  for (auto _ : state) {
    series::CumulativeSeries cumulative(counts);
    benchmark::DoNotOptimize(cumulative.TotalDelay());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CumulativeBuild)->Arg(10000)->Arg(100000);

void BM_ConfidenceQuery(benchmark::State& state) {
  const series::CountSequence& counts = JobCounts(100000);
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kCredit);
  util::Rng rng(7);
  int64_t i = 1;
  int64_t j = 50000;
  for (auto _ : state) {
    i = (i * 48271) % 99991 + 1;
    j = i + (j * 16807) % (100000 - i) ;
    benchmark::DoNotOptimize(eval.Confidence(i, j));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConfidenceQuery);

void GeneratorBench(benchmark::State& state, interval::AlgorithmKind kind,
                    core::TableauType type, double c_hat,
                    interval::DeltaMode delta_mode, bool early_exit) {
  const series::CountSequence& counts = JobCounts(state.range(0));
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  interval::GeneratorOptions options;
  options.type = type;
  options.c_hat = c_hat;
  options.epsilon = 0.01;
  options.delta_mode = delta_mode;
  options.largest_first_early_exit = early_exit;
  const auto generator = interval::MakeGenerator(kind);
  interval::GeneratorStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator->Generate(eval, options, &stats));
  }
  state.counters["tests"] = static_cast<double>(stats.intervals_tested);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_GenerateHold_AB(benchmark::State& state) {
  GeneratorBench(state, interval::AlgorithmKind::kAreaBased,
                 core::TableauType::kHold, 0.999,
                 interval::DeltaMode::kMinPositiveCount, false);
}
BENCHMARK(BM_GenerateHold_AB)->Arg(20000)->Arg(50000);

void BM_GenerateHold_NAB(benchmark::State& state) {
  GeneratorBench(state, interval::AlgorithmKind::kNonAreaBased,
                 core::TableauType::kHold, 0.999,
                 interval::DeltaMode::kMinPositiveCount, false);
}
BENCHMARK(BM_GenerateHold_NAB)->Arg(20000)->Arg(50000);

void BM_GenerateFail_NABOpt(benchmark::State& state) {
  GeneratorBench(state, interval::AlgorithmKind::kNonAreaBasedOpt,
                 core::TableauType::kFail, 0.1,
                 interval::DeltaMode::kMinPositiveCount, false);
}
BENCHMARK(BM_GenerateFail_NABOpt)->Arg(20000)->Arg(50000);

// Ablation: Delta = min positive count (theory) vs Delta = 1 (paper impl).
// With integer counts whose minimum positive value is 1 they coincide; the
// job data has min 1, so we scale counts by 1000 to expose the difference.
void BM_Ablation_DeltaMode(benchmark::State& state) {
  const series::CountSequence scaled = JobCounts(50000).Scaled(1000.0);
  const series::CumulativeSeries cumulative(scaled);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  interval::GeneratorOptions options;
  options.type = core::TableauType::kHold;
  options.c_hat = 0.999;
  options.epsilon = 0.01;
  options.delta_mode = state.range(0) == 0
                           ? interval::DeltaMode::kMinPositiveCount
                           : interval::DeltaMode::kOne;
  const auto generator =
      interval::MakeGenerator(interval::AlgorithmKind::kAreaBased);
  interval::GeneratorStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator->Generate(eval, options, &stats));
  }
  state.counters["tests"] = static_cast<double>(stats.intervals_tested);
  state.SetLabel(state.range(0) == 0 ? "delta=min_positive" : "delta=1");
}
BENCHMARK(BM_Ablation_DeltaMode)->Arg(0)->Arg(1);

// Ablation: largest-first early exit (§VI closing remark).
void BM_Ablation_EarlyExit(benchmark::State& state) {
  GeneratorBench(state, interval::AlgorithmKind::kNonAreaBasedOpt,
                 core::TableauType::kHold, 0.99,
                 interval::DeltaMode::kMinPositiveCount,
                 state.range(1) == 1);
}
BENCHMARK(BM_Ablation_EarlyExit)
    ->Args({50000, 0})
    ->Args({50000, 1});

void BM_StreamObserve(benchmark::State& state) {
  const series::CountSequence& counts = JobCounts(100000);
  stream::StreamOptions options;
  options.model = state.range(0) == 0 ? core::ConfidenceModel::kBalance
                                      : core::ConfidenceModel::kCredit;
  options.window = 256;
  for (auto _ : state) {
    stream::StreamingMonitor monitor(options);
    for (int64_t t = 1; t <= counts.n(); ++t) {
      monitor.Observe(counts.a(t), counts.b(t));
    }
    benchmark::DoNotOptimize(monitor.episodes().size());
  }
  state.SetItemsProcessed(state.iterations() * counts.n());
  state.SetLabel(options.model == core::ConfidenceModel::kBalance
                     ? "balance"
                     : "credit");
}
BENCHMARK(BM_StreamObserve)->Arg(0)->Arg(1);

void BM_GreedyPartialSetCover(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(17);
  std::vector<interval::Interval> candidates;
  for (int k = 0; k < 2000; ++k) {
    const int64_t begin = rng.UniformInt(1, n);
    candidates.push_back(
        interval::Interval{begin, std::min(n, begin + rng.UniformInt(1, 400))});
  }
  cover::CoverOptions options;
  options.s_hat = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cover::GreedyPartialSetCover(candidates, n, options));
  }
}
BENCHMARK(BM_GreedyPartialSetCover)->Arg(20000)->Arg(100000);

namespace ii = conservation::interval::internal;

// Minimum of `trials` timed runs of body() after `warmups` untimed ones;
// min filters scheduler noise on shared machines better than the mean.
template <typename Body>
double TimeBest(int trials, int warmups, Body&& body) {
  for (int w = 0; w < warmups; ++w) body();
  double best = 0.0;
  for (int t = 0; t < trials; ++t) {
    util::Stopwatch timer;
    body();
    const double elapsed = timer.ElapsedSeconds();
    if (t == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

// --- Incremental-maintenance record mode (--incr_json=PATH) ---------------
//
// Amortized per-batch maintenance latency of incr::IncrementalDiscoverer
// against the from-scratch strategy (one full DiscoverTableau per arriving
// batch) on the job-log workload, at batch sizes {1, 64, 4096}. Only the
// steady-state tail of the stream is timed: the engine is warmed with a
// prefix of n - batches*batch ticks, then each of the remaining AppendBatch
// calls is timed individually and averaged. After the replay the maintained
// tableau is CR_CHECKed bit-identical to a fresh DiscoverTableau at n —
// the speedup rows are only meaningful under the exactness contract.
// --check_speedup=S fails the run when any (algorithm, batch) configuration
// amortizes worse than S x the from-scratch latency.
void CheckTableauIdentity(const core::Tableau& incremental,
                          const core::Tableau& fresh) {
  CR_CHECK(incremental.rows.size() == fresh.rows.size());
  for (size_t r = 0; r < fresh.rows.size(); ++r) {
    CR_CHECK(incremental.rows[r].interval == fresh.rows[r].interval);
    CR_CHECK(std::memcmp(&incremental.rows[r].confidence,
                         &fresh.rows[r].confidence, sizeof(double)) == 0);
  }
  CR_CHECK(incremental.covered == fresh.covered);
  CR_CHECK(incremental.required == fresh.required);
  CR_CHECK(incremental.support_satisfied == fresh.support_satisfied);
  CR_CHECK(incremental.num_candidates == fresh.num_candidates);
}

int RunIncrBench(int argc, char** argv, const std::string& json_path) {
  const bool quick = bench::IntFlag(argc, argv, "quick", 0) != 0;
  // The fresh baseline at full size runs for tens of seconds — long enough
  // to be stable without best-of-repeats, so the default is a single timed
  // run; the incremental side is already a mean over `measured` batches.
  const int repeats =
      static_cast<int>(bench::IntFlag(argc, argv, "repeats", 1));
  const int warmups =
      static_cast<int>(bench::IntFlag(argc, argv, "warmups", 0));
  const double check_speedup =
      bench::DoubleFlag(argc, argv, "check_speedup", 0.0);
  const int64_t n = bench::IntFlag(argc, argv, "n", quick ? 20000 : 1000000);
  const int64_t measured =
      bench::IntFlag(argc, argv, "measured_batches", quick ? 4 : 32);
  bench::BenchJson json("incr", json_path);
  std::printf("dispatched backend: %s\n",
              ii::SimdBackendName(ii::ActiveSimdBackend()));

  struct Algo {
    const char* name;
    interval::AlgorithmKind kind;
  };
  // Exhaustive is quadratic and excluded at these sizes; plain AB matches
  // AB-opt's incremental path closely enough that tracking both would
  // double the fresh-baseline cost for no extra signal.
  const Algo algos[] = {
      {"ab_opt", interval::AlgorithmKind::kAreaBasedOpt},
      {"nab", interval::AlgorithmKind::kNonAreaBased},
  };
  const int64_t batch_sizes[] = {1, 64, 4096};
  const series::CountSequence& counts = JobCounts(n);
  double worst_speedup = 0.0;
  bool have_speedup = false;
  bool gate_failed = false;
  for (const Algo& algo : algos) {
    core::TableauRequest request;
    request.type = core::TableauType::kHold;
    request.model = core::ConfidenceModel::kBalance;
    request.c_hat = 0.9;
    request.s_hat = 0.5;
    request.algorithm = algo.kind;
    request.epsilon = 0.01;
    request.num_threads = 1;

    // From-scratch baseline: what each arriving batch costs when the
    // strategy is "recompute the tableau over the full prefix".
    const series::CumulativeSeries cumulative(counts);
    const core::ConfidenceEvaluator eval(&cumulative, request.model);
    core::Tableau fresh_tableau;
    const double fresh_seconds = TimeBest(repeats, warmups, [&] {
      auto fresh = core::DiscoverTableau(eval, request);
      CR_CHECK(fresh.ok());
      fresh_tableau = std::move(fresh).value();
    });
    std::printf("%-7s n=%lld fresh full run %.4fs (%zu rows)\n", algo.name,
                static_cast<long long>(n), fresh_seconds,
                fresh_tableau.rows.size());
    json.AddIncr(n, algo.name, "joblog", "fresh", /*batch=*/0, /*batches=*/1,
                 fresh_seconds, /*speedup=*/0.0, 0, 0, 0, 0);
    json.AnnotateTrials(repeats, warmups);

    for (const int64_t batch : batch_sizes) {
      const int64_t initial_n = std::max<int64_t>(1, n - measured * batch);
      auto discoverer = incr::IncrementalDiscoverer::Create(
          counts.Prefix(initial_n), request);
      CR_CHECK(discoverer.ok());
      const std::vector<double>& a = counts.outbound();
      const std::vector<double>& b = counts.inbound();
      double total_seconds = 0.0;
      int64_t timed_batches = 0;
      int64_t at = initial_n;
      while (at < n) {
        const int64_t m = std::min<int64_t>(batch, n - at);
        util::Stopwatch timer;
        discoverer->AppendBatch(a.data() + at, b.data() + at, m);
        total_seconds += timer.ElapsedSeconds();
        at += m;
        ++timed_batches;
      }
      CheckTableauIdentity(discoverer->tableau(), fresh_tableau);
      const double mean_seconds = total_seconds /
                                  static_cast<double>(timed_batches);
      const double speedup =
          mean_seconds > 0.0 ? fresh_seconds / mean_seconds : 0.0;
      const incr::IncrStats& stats = discoverer->stats();
      std::printf("%-7s n=%lld batch=%5lld incr %.6fs/batch over %lld "
                  "batches speedup %8.1fx (identical)\n",
                  algo.name, static_cast<long long>(n),
                  static_cast<long long>(batch), mean_seconds,
                  static_cast<long long>(timed_batches), speedup);
      json.AddIncr(n, algo.name, "joblog", "incr", batch, timed_batches,
                   mean_seconds, speedup, stats.candidates_extended,
                   stats.cover_warm_pops, stats.full_rebuilds,
                   stats.dirty_anchors);
      if (!have_speedup || speedup < worst_speedup) worst_speedup = speedup;
      have_speedup = true;
    }
  }

  if (check_speedup > 0.0) {
    if (have_speedup && worst_speedup >= check_speedup) {
      std::printf("speedup gate passed: worst %.1fx >= %.1fx\n",
                  worst_speedup, check_speedup);
    } else {
      std::fprintf(stderr, "FAIL: worst amortized speedup %.1fx < %.1fx\n",
                   worst_speedup, check_speedup);
      gate_failed = true;
    }
  }

  json.Flush();
  return gate_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string incr_json =
      conservation::bench::StringFlag(argc, argv, "incr_json", "");
  if (!incr_json.empty()) return RunIncrBench(argc, argv, incr_json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
