// Shared helpers for the benchmark harness. Each bench binary regenerates
// one table or figure from the paper (see DESIGN.md §3) and prints the rows
// the paper reports; most accept size/epsilon overrides on the command line
// so the paper-scale configurations can be run when time permits.
//
// Machine-readable mode: pass --json=<path> and use BenchJson to append
// per-run records {bench, n, algorithm, model, threads, seconds,
// intervals_tested}; the file is written as a JSON array on Flush (or
// destruction), so future PRs can regress against BENCH_*.json trajectories.
// Cover-phase records (AddCover) additionally carry k (candidate count,
// part of the record key) and the CoverStats counters.

#ifndef CONSERVATION_BENCH_BENCH_UTIL_H_
#define CONSERVATION_BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/confidence.h"
#include "cover/partial_set_cover.h"
#include "interval/generator.h"
#include "interval/kernel_simd.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "series/cumulative.h"
#include "series/sequence.h"
#include "util/stopwatch.h"

namespace conservation::bench {

// Parses "--flag=value" style overrides; returns fallback when the flag is
// absent. Malformed values (trailing garbage, overflow, empty) are fatal:
// a silent atoll-style 0 turns "--n=1e6" into an empty benchmark run.
[[noreturn]] inline void DieBadFlag(const std::string& name,
                                    const char* text, const char* expected) {
  std::fprintf(stderr,
               "invalid value for --%s: '%s' (expected %s)\n"
               "usage: --%s=<%s>\n",
               name.c_str(), text, expected, name.c_str(), expected);
  std::exit(2);
}

inline const char* FlagValue(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (arg.rfind(prefix, 0) == 0) return argv[k] + prefix.size();
  }
  return nullptr;
}

inline int64_t IntFlag(int argc, char** argv, const std::string& name,
                       int64_t fallback) {
  const char* text = FlagValue(argc, argv, name);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    DieBadFlag(name, text, "integer");
  }
  return value;
}

inline double DoubleFlag(int argc, char** argv, const std::string& name,
                         double fallback) {
  const char* text = FlagValue(argc, argv, name);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) {
    DieBadFlag(name, text, "number");
  }
  return value;
}

inline std::string StringFlag(int argc, char** argv, const std::string& name,
                              const std::string& fallback) {
  const char* text = FlagValue(argc, argv, name);
  return text == nullptr ? fallback : std::string(text);
}

// Benches write generated artifacts (CSV curves, JSON records) under
// bench/out/ relative to the working directory — created on demand and
// gitignored, so runs never dirty the source tree.
inline std::string OutputPath(const std::string& filename) {
  std::error_code ec;
  std::filesystem::create_directories("bench/out", ec);
  return (std::filesystem::path("bench/out") / filename).string();
}

// Collects per-run records and writes them as a JSON array. Inactive when
// constructed with an empty path (no --json flag), so call sites can record
// unconditionally.
class BenchJson {
 public:
  BenchJson(std::string bench_name, std::string path)
      : bench_name_(std::move(bench_name)), path_(std::move(path)) {}

  // Convenience: picks up --json=<path> from argv.
  static BenchJson FromArgs(int argc, char** argv, const char* bench_name) {
    return BenchJson(bench_name, StringFlag(argc, argv, "json", ""));
  }

  ~BenchJson() { Flush(); }

  bool active() const { return !path_.empty(); }

  struct Record {
    int64_t n = 0;
    std::string algorithm;
    std::string model;
    int threads = 1;
    // SIMD kernel backend the run dispatched to ("scalar" / "avx2").
    // Machine-dependent provenance, not part of the record key —
    // bench_diff.py drops it.
    std::string backend;
    // End-to-end wall-clock of the run (the regression-tracked quantity).
    double seconds = 0.0;
    uint64_t intervals_tested = 0;
    // Parallel observability block, emitted only when has_parallel is set
    // (AddParallel). All values come from GeneratorStats.
    bool has_parallel = false;
    double speedup = 0.0;       // wall(1 thread) / wall(this run)
    double work_seconds = 0.0;  // summed per-worker work time
    int64_t shards = 1;
    int64_t chunks = 1;
    double imbalance = 1.0;  // max/mean work seconds over participants
    double min_shard_seconds = 0.0;
    double median_shard_seconds = 0.0;
    double max_shard_seconds = 0.0;
    uint64_t steals = 0;
    std::vector<uint64_t> chunks_claimed;  // per worker, in worker order
    // Cover-phase observability block, emitted only when has_cover is set
    // (AddCover). k is the candidate count — part of the record key, since
    // cover benches sweep it at fixed n. All counters come from CoverStats.
    bool has_cover = false;
    int64_t k = 0;
    double cover_speedup = 0.0;  // naive seconds / lazy seconds (0 = n/a)
    cover::CoverStats cover_stats;
    // Incremental-maintenance block (AddIncr): `incr_mode` is "incr"
    // (seconds = mean per-batch AppendBatch latency) or "fresh" (seconds =
    // one full from-scratch DiscoverTableau at the same n); mode and the
    // batch size are part of the record key in bench_diff.py. incr_speedup
    // is fresh seconds / mean batch seconds (0 on fresh rows); the counters
    // come from incr::IncrStats.
    bool has_incr = false;
    std::string incr_mode;
    int64_t batch = 0;
    int64_t batches = 0;
    double incr_speedup = 0.0;
    int64_t candidates_extended = 0;
    int64_t cover_warm_pops = 0;
    int64_t full_rebuilds = 0;
    int64_t dirty_anchors = 0;
    // Serving-daemon block (AddServe): one multi-tenant ingest run against
    // an in-process ServeDaemon. n is the tenant count; `algorithm` is
    // "paced" or "burst" and rate / clients / batch are part of the record
    // key in bench_diff.py (rate is the target ticks/sec/tenant, 0 on
    // burst rows). seconds is the end-to-end wall clock (ingest + drain);
    // p50/p99 are blocking append-to-ack round-trip latencies and
    // ticks_per_sec is the sustained processed-tick rate over the run.
    bool has_serve = false;
    double rate = 0.0;
    int clients = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double ticks_per_sec = 0.0;
    int64_t serve_ticks = 0;
    int64_t serve_rejected = 0;
    int64_t serve_faults = 0;
    int64_t serve_evictions = 0;
    // Measurement provenance (AnnotateTrials): timed repeats whose minimum
    // became `seconds`, and untimed warmup runs before them. Emitted when
    // repeats > 0; not part of the record key.
    int repeats = 0;
    int warmups = 0;
    // Serialized obs-registry snapshot (AttachMetrics); emitted as a
    // "metrics" sub-object when non-empty. bench_diff.py drops this block
    // when keying records, so attaching it never breaks regressions.
    std::string metrics_json;
  };

  void Add(int64_t n, const std::string& algorithm, const std::string& model,
           int threads, double seconds, uint64_t intervals_tested) {
    if (active()) {
      records_.push_back(
          MakeRecord(n, algorithm, model, threads, seconds, intervals_tested));
    }
  }

  // Like Add, but also captures the scheduler observability surface of a
  // parallel generator run. `speedup` is wall(1 thread) / wall(this run),
  // computed by the bench (it knows the 1-thread baseline).
  void AddParallel(int64_t n, const std::string& algorithm,
                   const std::string& model, int threads, double speedup,
                   const interval::GeneratorStats& stats) {
    if (!active()) return;
    Record record = MakeRecord(n, algorithm, model, threads,
                               stats.wall_seconds, stats.intervals_tested);
    record.has_parallel = true;
    record.speedup = speedup;
    record.work_seconds = stats.seconds;
    record.shards = stats.shards;
    record.chunks = stats.chunks;
    record.imbalance = stats.ImbalanceRatio();
    record.min_shard_seconds = stats.MinShardSeconds();
    record.median_shard_seconds = stats.MedianShardSeconds();
    record.max_shard_seconds = stats.MaxShardSeconds();
    record.steals = stats.TotalSteals();
    record.chunks_claimed.reserve(stats.shard_work.size());
    for (const interval::ShardWork& work : stats.shard_work) {
      record.chunks_claimed.push_back(work.chunks_claimed);
    }
    records_.push_back(std::move(record));
  }

  // Records one cover-phase run. `algorithm` is "lazy" or "naive", `model`
  // names the synthetic candidate family, `speedup` is naive seconds / this
  // run's seconds (pass 0 when the naive baseline was skipped).
  void AddCover(int64_t n, const std::string& algorithm,
                const std::string& family, int64_t k, double seconds,
                double speedup, const cover::CoverStats& stats) {
    if (!active()) return;
    Record record = MakeRecord(n, algorithm, family, /*threads=*/1, seconds,
                               /*intervals_tested=*/0);
    record.has_cover = true;
    record.k = k;
    record.cover_speedup = speedup;
    record.cover_stats = stats;
    records_.push_back(std::move(record));
  }

  // Records one configuration of the incremental-maintenance ablation.
  // `mode` is "incr" or "fresh", `family` names the workload (the model key
  // slot), `batch` is the append-batch size (0 on fresh rows), `batches` the
  // number of timed AppendBatch calls averaged into `seconds`, `speedup`
  // fresh seconds / mean batch seconds (0 on fresh rows). The counters are
  // the engine's lifetime incr::IncrStats (pass zeros on fresh rows).
  void AddIncr(int64_t n, const std::string& algorithm,
               const std::string& family, const std::string& mode,
               int64_t batch, int64_t batches, double seconds, double speedup,
               int64_t candidates_extended, int64_t cover_warm_pops,
               int64_t full_rebuilds, int64_t dirty_anchors) {
    if (!active()) return;
    Record record = MakeRecord(n, algorithm, family, 1, seconds,
                               /*intervals_tested=*/0);
    record.has_incr = true;
    record.incr_mode = mode;
    record.batch = batch;
    record.batches = batches;
    record.incr_speedup = speedup;
    record.candidates_extended = candidates_extended;
    record.cover_warm_pops = cover_warm_pops;
    record.full_rebuilds = full_rebuilds;
    record.dirty_anchors = dirty_anchors;
    records_.push_back(std::move(record));
  }

  // Records one multi-tenant serving-daemon run. `mode` is "paced" or
  // "burst", `rate` the target ticks/sec/tenant (0 on burst rows),
  // `seconds` the end-to-end wall clock, p50/p99 the append-to-ack
  // round-trip latencies in milliseconds, `ticks_per_sec` the sustained
  // processed-tick rate.
  void AddServe(int64_t tenants, const std::string& mode, double rate,
                int clients, int64_t batch, double seconds, double p50_ms,
                double p99_ms, double ticks_per_sec, int64_t ticks,
                int64_t rejected, int64_t faults, int64_t evictions) {
    if (!active()) return;
    Record record = MakeRecord(tenants, mode, "serve", clients, seconds,
                               /*intervals_tested=*/0);
    record.has_serve = true;
    record.rate = rate;
    record.clients = clients;
    record.batch = batch;
    record.p50_ms = p50_ms;
    record.p99_ms = p99_ms;
    record.ticks_per_sec = ticks_per_sec;
    record.serve_ticks = ticks;
    record.serve_rejected = rejected;
    record.serve_faults = faults;
    record.serve_evictions = evictions;
    records_.push_back(std::move(record));
  }

  // Stamps measurement provenance (timed repeats, warmup runs) onto the
  // most recently added record. No-op when inactive or before the first
  // record.
  void AnnotateTrials(int repeats, int warmups) {
    if (!active() || records_.empty()) return;
    records_.back().repeats = repeats;
    records_.back().warmups = warmups;
  }

  // Captures the process-wide obs-registry snapshot onto the most recently
  // added record. Call right after Add*/AddCover when the run should carry
  // its counter state (counters accumulate, so diff consecutive records to
  // get per-run deltas). No-op when inactive or before the first record.
  void AttachMetrics() {
    if (!active() || records_.empty()) return;
    records_.back().metrics_json = obs::Registry::Global().Snapshot().ToJson();
  }

  // Writes all records to the path; called automatically on destruction.
  void Flush() {
    if (!active() || flushed_) return;
    io::JsonWriter json;
    json.BeginArray();
    for (const Record& record : records_) {
      json.BeginObject();
      json.Key("bench");
      json.String(bench_name_);
      json.Key("n");
      json.Int(record.n);
      json.Key("algorithm");
      json.String(record.algorithm);
      json.Key("model");
      json.String(record.model);
      json.Key("threads");
      json.Int(record.threads);
      if (!record.backend.empty()) {
        json.Key("backend");
        json.String(record.backend);
      }
      json.Key("seconds");
      json.Double(record.seconds);
      json.Key("intervals_tested");
      json.Int(static_cast<int64_t>(record.intervals_tested));
      if (record.has_parallel) {
        json.Key("speedup");
        json.Double(record.speedup);
        json.Key("work_seconds");
        json.Double(record.work_seconds);
        json.Key("shards");
        json.Int(record.shards);
        json.Key("chunks");
        json.Int(record.chunks);
        json.Key("imbalance");
        json.Double(record.imbalance);
        json.Key("min_shard_seconds");
        json.Double(record.min_shard_seconds);
        json.Key("median_shard_seconds");
        json.Double(record.median_shard_seconds);
        json.Key("max_shard_seconds");
        json.Double(record.max_shard_seconds);
        json.Key("steals");
        json.Int(static_cast<int64_t>(record.steals));
        json.Key("chunks_claimed");
        json.BeginArray();
        for (const uint64_t claimed : record.chunks_claimed) {
          json.Int(static_cast<int64_t>(claimed));
        }
        json.EndArray();
      }
      if (record.has_incr) {
        json.Key("incr_mode");
        json.String(record.incr_mode);
        json.Key("batch");
        json.Int(record.batch);
        json.Key("batches");
        json.Int(record.batches);
        json.Key("incr_speedup");
        json.Double(record.incr_speedup);
        json.Key("candidates_extended");
        json.Int(record.candidates_extended);
        json.Key("cover_warm_pops");
        json.Int(record.cover_warm_pops);
        json.Key("full_rebuilds");
        json.Int(record.full_rebuilds);
        json.Key("dirty_anchors");
        json.Int(record.dirty_anchors);
      }
      if (record.has_serve) {
        json.Key("rate");
        json.Double(record.rate);
        json.Key("clients");
        json.Int(record.clients);
        json.Key("batch");
        json.Int(record.batch);
        json.Key("p50_ms");
        json.Double(record.p50_ms);
        json.Key("p99_ms");
        json.Double(record.p99_ms);
        json.Key("ticks_per_sec");
        json.Double(record.ticks_per_sec);
        json.Key("serve_ticks");
        json.Int(record.serve_ticks);
        json.Key("serve_rejected");
        json.Int(record.serve_rejected);
        json.Key("serve_faults");
        json.Int(record.serve_faults);
        json.Key("serve_evictions");
        json.Int(record.serve_evictions);
      }
      if (record.repeats > 0) {
        json.Key("repeats");
        json.Int(record.repeats);
        json.Key("warmups");
        json.Int(record.warmups);
      }
      if (record.has_cover) {
        json.Key("k");
        json.Int(record.k);
        json.Key("cover_speedup");
        json.Double(record.cover_speedup);
        json.Key("rounds");
        json.Int(record.cover_stats.rounds);
        json.Key("heap_pops");
        json.Int(record.cover_stats.heap_pops);
        json.Key("stale_reevaluations");
        json.Int(record.cover_stats.stale_reevaluations);
        json.Key("tick_visits");
        json.Int(record.cover_stats.tick_visits);
        json.Key("peak_heap_size");
        json.Int(record.cover_stats.peak_heap_size);
        json.Key("seed_seconds");
        json.Double(record.cover_stats.seed_seconds);
        json.Key("select_seconds");
        json.Double(record.cover_stats.select_seconds);
      }
      if (!record.metrics_json.empty()) {
        json.Key("metrics");
        json.Raw(record.metrics_json);
      }
      json.EndObject();
    }
    json.EndArray();
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write --json file %s\n", path_.c_str());
      flushed_ = true;  // don't retry (and re-warn) from the destructor
      return;
    }
    std::fprintf(file, "%s\n", json.str().c_str());
    std::fclose(file);
    std::printf("wrote %zu JSON records to %s\n", records_.size(),
                path_.c_str());
    flushed_ = true;
  }

 private:
  static Record MakeRecord(int64_t n, const std::string& algorithm,
                           const std::string& model, int threads,
                           double seconds, uint64_t intervals_tested) {
    Record record;
    record.n = n;
    record.algorithm = algorithm;
    record.model = model;
    record.threads = threads;
    record.backend = interval::internal::SimdBackendName(
        interval::internal::ActiveSimdBackend());
    record.seconds = seconds;
    record.intervals_tested = intervals_tested;
    return record;
  }

  std::string bench_name_;
  std::string path_;
  std::vector<Record> records_;
  bool flushed_ = false;
};

// Runs a generator over `counts` and returns its stats (timings measured by
// the generator itself, excluding the cumulative preprocessing, matching the
// paper's methodology of excluding linear preprocessing).
struct RunResult {
  std::vector<interval::Interval> candidates;
  interval::GeneratorStats stats;
};

inline RunResult RunGenerator(const series::CumulativeSeries& cumulative,
                              core::ConfidenceModel model,
                              interval::AlgorithmKind kind,
                              const interval::GeneratorOptions& options) {
  const core::ConfidenceEvaluator eval(&cumulative, model);
  const auto generator = interval::MakeGenerator(kind);
  RunResult result;
  result.candidates = generator->Generate(eval, options, &result.stats);
  return result;
}

inline void PrintHeader(const char* title) {
  std::printf("=== %s ===\n", title);
}

}  // namespace conservation::bench

#endif  // CONSERVATION_BENCH_BENCH_UTIL_H_
