// Instrumentation-overhead guard for the obs subsystem.
//
// Runs the same generation + cover workload in three arms:
//   * untraced — tracing stopped, watchdog stopped, no serving;
//   * traced   — tracing recording at verbosity 1 (the crdiscover default);
//   * serving  — tracing on PLUS the full serving-grade surface: labeled
//     per-run histogram records, the watchdog armed, the scrape server live
//     on an ephemeral port with an aggressive window-advance cadence, and a
//     client thread scraping /metrics in a tight loop.
// Takes the median wall time of each arm and reports the relative overhead
// of the instrumented arms against the untraced baseline. The acceptance
// budget is <2% for both; with --check=1 the bench exits non-zero when
// either overhead exceeds --max_overhead_pct, so ctest can enforce the
// budget (the registered smoke uses a relaxed threshold — shared CI
// machines are noisy; run locally with the default for the real number).
//
// In a -DCONSERVATION_TRACING=OFF build the trace macros compile to nothing
// and the untraced/traced arms run identical code: that overhead is pure
// noise around zero, which doubles as the "compiled out costs nothing"
// check. The serving arm still exercises labels + windows + scrape, whose
// cost lives off the hot path by design.
//
//   bench_obs_overhead --n=200000 --reps=5 --check=1 --max_overhead_pct=2
//
// With --json=<path>, per-arm records (algorithm = "untraced" / "traced" /
// "serving") are written; the serving record carries the registry snapshot
// as its "metrics" block.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/job_log.h"
#include "obs/labels.h"
#include "obs/scrape.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "obs/window.h"
#include "util/string_util.h"

namespace {

using namespace conservation;

struct Workload {
  const series::CumulativeSeries* cumulative = nullptr;
  interval::GeneratorOptions options;
  int64_t n = 0;

  // One end-to-end pipeline pass: candidate generation (the instrumented
  // chunked driver) followed by the lazy-greedy cover (seed/select spans).
  size_t Run() const {
    const auto run = bench::RunGenerator(
        *cumulative, core::ConfidenceModel::kBalance,
        interval::AlgorithmKind::kAreaBased, options);
    cover::CoverOptions cover_options;
    cover_options.s_hat = 0.1;
    const cover::CoverResult cover =
        cover::GreedyPartialSetCover(run.candidates, n, cover_options);
    return run.candidates.size() + static_cast<size_t>(cover.covered);
  }
};

double MedianSeconds(const Workload& workload, int64_t reps, size_t* checksum,
                     obs::Histogram* run_seconds) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  for (int64_t r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    *checksum += workload.Run();
    const double elapsed = timer.ElapsedSeconds();
    // The serving arm records each rep into a labeled histogram — the same
    // per-batch instrumentation crdiscover's replay loop performs.
    if (run_seconds != nullptr) run_seconds->Record(elapsed);
    seconds.push_back(elapsed);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t n = bench::IntFlag(argc, argv, "n", 200000);
  const int64_t reps = bench::IntFlag(argc, argv, "reps", 5);
  const int64_t threads = bench::IntFlag(argc, argv, "threads", 2);
  const bool check = bench::IntFlag(argc, argv, "check", 0) != 0;
  const double max_overhead_pct =
      bench::DoubleFlag(argc, argv, "max_overhead_pct", 2.0);
  bench::BenchJson json =
      bench::BenchJson::FromArgs(argc, argv, "obs_overhead");

  bench::PrintHeader("obs overhead, generation + cover pipeline");
  datagen::JobLogParams params;
  params.num_ticks = n;
  const datagen::JobLogData jobs = datagen::GenerateJobLog(params);
  const series::CumulativeSeries cumulative(jobs.counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);

  Workload workload;
  workload.cumulative = &cumulative;
  workload.n = n;
  workload.options.type = core::TableauType::kFail;
  workload.options.c_hat = std::max(0.0, *eval.Confidence(1, n) * 0.999);
  workload.options.epsilon = 0.01;
  workload.options.num_threads = static_cast<int>(threads);

  size_t checksum = 0;
  // Warm-up rep so thread-pool spin-up and page faults hit no arm.
  checksum += workload.Run();

  obs::StopTracing();
  const double untraced = MedianSeconds(workload, reps, &checksum, nullptr);
  json.Add(n, "untraced", "balance", static_cast<int>(threads), untraced,
           /*intervals_tested=*/0);

  obs::TraceOptions trace_options;
  trace_options.verbosity = 1;
  obs::StartTracing(trace_options);
  const double traced = MedianSeconds(workload, reps, &checksum, nullptr);
  obs::StopTracing();
  json.Add(n, "traced", "balance", static_cast<int>(threads), traced,
           /*intervals_tested=*/0);

  // Serving arm: everything the long-running daemon would have on at once.
  obs::StartTracing(trace_options);
  obs::WatchdogOptions watchdog_options;
  watchdog_options.default_budget_seconds = 3600.0;  // armed, never fires
  obs::StartWatchdog(watchdog_options);
  obs::Histogram& run_seconds =
      obs::LabeledHistogram("bench.obs_overhead.run_seconds",
                            {0.001, 0.01, 0.1, 1.0, 10.0})
          .With({{"tenant", "bench"}, {"generator", "area"}});
  obs::ScrapeServer server;
  obs::ScrapeServerOptions serve_options;  // port 0: ephemeral
  serve_options.window_advance_seconds = 0.05;
  std::string serve_error;
  std::thread scraper;
  std::atomic<bool> stop_scraper{false};
  std::atomic<uint64_t> scrapes{0};
  const bool serving_up = server.Start(serve_options, &serve_error);
  if (serving_up) {
    scraper = std::thread([&server, &stop_scraper, &scrapes] {
      while (!stop_scraper.load(std::memory_order_acquire)) {
        if (!obs::ScrapeOnce(server.port(), "/metrics").empty()) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  } else {
    std::fprintf(stderr, "bench_obs_overhead: scrape server: %s "
                 "(serving arm runs without a live scraper)\n",
                 serve_error.c_str());
  }
  const double serving =
      MedianSeconds(workload, reps, &checksum, &run_seconds);
  stop_scraper.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();
  server.Stop();
  obs::StopWatchdog();
  obs::StopTracing();
  json.Add(n, "serving", "balance", static_cast<int>(threads), serving,
           /*intervals_tested=*/0);
  json.AttachMetrics();
  obs::ClearTrace();

  const auto overhead = [untraced](double arm) {
    return untraced > 0.0 ? (arm - untraced) / untraced * 100.0 : 0.0;
  };
  const double traced_pct = overhead(traced);
  const double serving_pct = overhead(serving);
  std::printf(
      "n = %lld, reps = %lld, threads = %lld (checksum %zu)\n"
      "untraced median: %.4fs\n"
      "traced median:   %.4fs (%+.2f%%)\n"
      "serving median:  %.4fs (%+.2f%%, %llu scrapes served)\n",
      static_cast<long long>(n), static_cast<long long>(reps),
      static_cast<long long>(threads), checksum, untraced, traced, traced_pct,
      serving, serving_pct,
      static_cast<unsigned long long>(scrapes.load()));
  json.Flush();

  if (check) {
    bool failed = false;
    if (traced_pct > max_overhead_pct) {
      std::printf("FAIL: traced overhead %.2f%% exceeds budget %.2f%%\n",
                  traced_pct, max_overhead_pct);
      failed = true;
    }
    if (serving_pct > max_overhead_pct) {
      std::printf("FAIL: serving overhead %.2f%% exceeds budget %.2f%%\n",
                  serving_pct, max_overhead_pct);
      failed = true;
    }
    if (failed) return 1;
    std::printf("OK: traced %+.2f%% and serving %+.2f%% within %.2f%% budget\n",
                traced_pct, serving_pct, max_overhead_pct);
  }
  return 0;
}
