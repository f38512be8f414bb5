// perfbench: one run of one benchmark workload, in a fresh process.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             --workdir=<dir>
//
// A run has three parts:
//   set-up    builds the workload's inputs from --seed. It is repeated at
//             least kMinSetups times (and until kMinSetupSeconds have
//             passed) and the median is reported as setup_s, so work moved
//             into set-up shows.
//   timed     repeats the workload's operation until --seconds have passed,
//             and at least kMinOps times so the median is robust to one
//             slow operation. Each operation is timed from outside by
//             calling the library's public functions.
//   check     outside the timed region, every output is compared bit for
//             bit with a reference (see each workload below).
//
// With --trace=1 the timed part runs under obs tracing with spans from this
// file, the trace is written to <workdir>/trace.json, and the per-layer
// metrics are printed instead of the end-to-end ones.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every output matched its reference.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "datagen/job_log.h"
#include "datagen/perturb.h"
#include "datagen/router.h"
#include "io/csv.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "series/cumulative.h"
#include "series/preprocess.h"
#include "series/sequence.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

using namespace conservation;

constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
constexpr size_t kMinOps = 3;
// Threads for discovery, as a user would run `crdiscover --threads=4`.
constexpr int kThreads = 4;

// serve_fresh shape.
constexpr int kTenants = 32;
constexpr int64_t kPreloadTicks = 16384;
constexpr int64_t kPreloadChunk = 4096;  // crserved's per-tenant queue bound
constexpr int64_t kRoundTicks = 64;
constexpr double kRoundPeriodSeconds = 0.150;
// Rounds run until --seconds have passed and at least this many have run,
// so at least 10 samples lie beyond the freshness p90.
constexpr int64_t kMinRounds = 100;

// ---------------------------------------------------------------------------
// Small helpers.

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// Linear interpolation between closest ranks (q in [0, 1]).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// User + system CPU seconds of every thread of this process so far.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// Everything a tableau says, compared bit for bit (confidences included).
bool SameTableau(const core::Tableau& x, const core::Tableau& y) {
  if (x.type != y.type || x.model != y.model ||
      x.rows.size() != y.rows.size() || x.covered != y.covered ||
      x.required != y.required ||
      x.support_satisfied != y.support_satisfied ||
      x.num_candidates != y.num_candidates) {
    return false;
  }
  for (size_t r = 0; r < x.rows.size(); ++r) {
    if (x.rows[r].interval.begin != y.rows[r].interval.begin ||
        x.rows[r].interval.end != y.rows[r].interval.end ||
        !SameBits(x.rows[r].confidence, y.rows[r].confidence)) {
      return false;
    }
  }
  return true;
}

// The result part of io::TableauToJson: everything before the timing-bearing
// "generation"/"cover" diagnostics.
std::string ResultJson(const std::string& json) {
  return json.substr(0, json.find(",\"generation\":"));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

void PrintResult(const Result& result) {
  for (const Metric& m : result.metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_share                 %.6g (%" PRId64 " of %" PRId64
              ")\n",
              result.attempted > 0 ? static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted)
                                   : 0.0,
              result.failed, result.attempted);
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t k = 0; k < result.metrics.size(); ++k) {
    const Metric& m = result.metrics[k];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (k > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// Per-layer metric names, in output order. A traced run reports all of them
// for every workload; a layer the workload does not exercise reports 0.
const char* const kLayerMetrics[][2] = {
    {"trace.wall_s", "s"},
    {"trace.layers_sum_s", "s"},
    {"gap_s", "s"},
    {"io.read_s", "s"},
    {"series.build_s", "s"},
    {"interval.generate_s", "s"},
    {"interval.intervals_tested", "count"},
    {"interval.prune_ratio", "ratio"},
    {"interval.lane_occupancy", "ratio"},
    {"interval.shard_imbalance", "ratio"},
    {"interval.scaling_eff", "ratio"},
    {"cover.self_s", "s"},
    {"cover.seed_s", "s"},
    {"cover.select_s", "s"},
    {"cover.rounds", "count"},
    {"cover.stale_ratio", "ratio"},
    {"core.assemble_s", "s"},
    {"io.write_s", "s"},
    {"serve.rounds", "count"},
    {"serve.fresh_p50_ms", "ms"},
    {"serve.fresh_p90_ms", "ms"},
    {"serve.ack_p50_ms", "ms"},
    {"serve.ack_p99_ms", "ms"},
    {"serve.apply_ms_p50", "ms"},
    {"serve.apply_ms_p90", "ms"},
    {"serve.refresh_ms_p50", "ms"},
    {"serve.refresh_ms_p90", "ms"},
    {"serve.rejected", "count"},
    {"gen.late_ms_max", "ms"},
    {"gen.appends_attempted", "count"},
    {"gen.appends_errored", "count"},
    {"incr.batch_ms_p50", "ms"},
    {"incr.batch_ms_p99", "ms"},
    {"incr.cover_warm_pops", "count"},
};

// Fills `result` with every per-layer metric, taking values from `values`
// (by name) and 0 for the rest.
void AddLayerMetrics(const std::vector<std::pair<std::string, double>>& values,
                     Result* result) {
  for (const auto& [key, v] : values) {
    if (std::none_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                     [&key](const auto& metric) { return key == metric[0]; })) {
      Die("unknown per-layer metric " + key);
    }
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    double value = 0.0;
    for (const auto& [key, v] : values) {
      if (key == name) value = v;
    }
    result->Add(name, value, unit);
  }
}

void WarnOnGap(double gap_s, double wall_s) {
  if (wall_s > 0.0 && std::fabs(gap_s) > 0.05 * wall_s) {
    std::fprintf(stderr,
                 "perfbench: WARNING: layers leave %.4f s of %.4f s wall "
                 "unattributed (%.1f%% > 5%%)\n",
                 gap_s, wall_s, 100.0 * gap_s / wall_s);
  }
}

void StartTrace() {
  obs::StartTracing();
  obs::SetCurrentThreadName("perfbench");
}

void FinishTrace(const std::string& workdir) {
  obs::StopTracing();
  const std::string path = workdir + "/trace.json";
  if (!obs::WriteTrace(path)) Die("cannot write " + path);
  std::printf("trace written to %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// Discovery workloads: CSV file in, tableau JSON file out (crdiscover's path).

struct DiscoverySpec {
  series::CountSequence (*make_input)(uint64_t seed);
  core::TableauRequest request;
};

series::CountSequence JobLogInput(uint64_t seed) {
  datagen::JobLogParams params;
  params.num_ticks = 200000;
  params.seed = seed;
  return datagen::GenerateJobLog(params).counts;
}

series::CountSequence PerturbedTrafficInput(uint64_t seed) {
  const series::CountSequence clean =
      datagen::GenerateWellBehavedTraffic(2000000, seed);
  datagen::PerturbationSpec spec;
  spec.fraction = 0.1;
  spec.latest_start_fraction = 0.5;
  spec.seed = seed + 1;
  datagen::PerturbationInfo info;
  return datagen::ApplyPerturbation(clean, spec, &info);
}

DiscoverySpec AbOptSpec() {
  DiscoverySpec spec{JobLogInput, {}};
  spec.request.type = core::TableauType::kHold;
  spec.request.model = core::ConfidenceModel::kBalance;
  spec.request.c_hat = 0.999;
  spec.request.s_hat = 0.1;
  spec.request.algorithm = interval::AlgorithmKind::kAreaBasedOpt;
  spec.request.epsilon = 0.01;
  spec.request.num_threads = kThreads;
  return spec;
}

DiscoverySpec NabFailSpec() {
  DiscoverySpec spec{PerturbedTrafficInput, {}};
  spec.request.type = core::TableauType::kFail;
  spec.request.model = core::ConfidenceModel::kBalance;
  spec.request.c_hat = 0.5;
  spec.request.s_hat = 0.9;
  spec.request.algorithm = interval::AlgorithmKind::kNonAreaBasedOpt;
  spec.request.epsilon = 0.1;
  spec.request.num_threads = kThreads;
  return spec;
}

// The series layer as crdiscover uses it: prefix sums, and dominance
// enforcement (then a rebuild) when B does not dominate A.
std::unique_ptr<series::CumulativeSeries> BuildSeries(
    series::CountSequence* counts) {
  auto cumulative = std::make_unique<series::CumulativeSeries>(*counts);
  if (!cumulative->Dominates()) {
    *counts = series::EnforceDominance(*counts);
    cumulative = std::make_unique<series::CumulativeSeries>(*counts);
  }
  return cumulative;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) Die("cannot write " + path);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// One CSV-to-tableau operation, with each layer's self time.
struct DiscoveryOp {
  double wall = 0.0;
  double read = 0.0;
  double build = 0.0;
  double discover = 0.0;
  double write = 0.0;
  core::Tableau tableau;
  std::string result_json;
};

DiscoveryOp RunDiscovery(const std::string& csv_path,
                         const std::string& out_path,
                         const core::TableauRequest& request) {
  DiscoveryOp op;
  obs::ScopedSpan op_span("perfbench.discovery");
  util::Stopwatch wall;
  util::Stopwatch layer;

  util::Result<series::CountSequence> counts = [&] {
    obs::ScopedSpan span("perfbench.io.read");
    return io::ReadCountsCsv(csv_path);
  }();
  if (!counts.ok()) Die(counts.status().ToString());
  op.read = layer.ElapsedSeconds();
  layer.Restart();

  std::unique_ptr<series::CumulativeSeries> cumulative;
  {
    obs::ScopedSpan span("perfbench.series.build");
    cumulative = BuildSeries(&counts.value());
  }
  op.build = layer.ElapsedSeconds();
  layer.Restart();

  util::Result<core::Tableau> tableau = [&] {
    obs::ScopedSpan span("perfbench.core.discover");
    const core::ConfidenceEvaluator eval(cumulative.get(), request.model);
    return core::DiscoverTableau(eval, request);
  }();
  if (!tableau.ok()) Die(tableau.status().ToString());
  op.discover = layer.ElapsedSeconds();
  layer.Restart();

  {
    obs::ScopedSpan span("perfbench.io.write");
    const std::string json = io::TableauToJson(*tableau);
    WriteFile(out_path, json);
    op.result_json = ResultJson(json);
  }
  op.write = layer.ElapsedSeconds();
  op.wall = wall.ElapsedSeconds();
  op.tableau = std::move(tableau).value();
  return op;
}

// Independent validity of a tableau against its series: each row's carried
// confidence equals the evaluator's (bitwise) and passes the request's
// relaxed threshold, and the coverage flags agree.
bool ValidTableau(const core::Tableau& tableau,
                  const core::ConfidenceEvaluator& eval,
                  const core::TableauRequest& request) {
  for (const core::TableauRow& row : tableau.rows) {
    const std::optional<double> conf =
        eval.Confidence(row.interval.begin, row.interval.end);
    if (!conf.has_value() || !SameBits(*conf, row.confidence)) return false;
    const bool passes =
        request.type == core::TableauType::kHold
            ? *conf >= request.c_hat / (1.0 + request.epsilon)
            : *conf <= request.c_hat * (1.0 + request.epsilon);
    if (!passes) return false;
  }
  return tableau.support_satisfied == (tableau.covered >= tableau.required);
}

int RunDiscoveryWorkload(const DiscoverySpec& spec, uint64_t seed,
                         double seconds, bool trace,
                         const std::string& workdir) {
  const std::string csv_path = workdir + "/input.csv";
  const std::string out_path = workdir + "/tableau.json";

  std::vector<double> setup_samples;
  util::Stopwatch setup_timer;
  while (setup_samples.size() < kMinSetups ||
         setup_timer.ElapsedSeconds() < kMinSetupSeconds) {
    util::Stopwatch timer;
    const series::CountSequence counts = spec.make_input(seed);
    if (util::Status s = io::WriteCountsCsv(csv_path, counts); !s.ok()) {
      Die(s.ToString());
    }
    setup_samples.push_back(timer.ElapsedSeconds());
  }

  if (trace) StartTrace();
  std::vector<DiscoveryOp> ops;
  const double cpu_before = ProcessCpuSeconds();
  util::Stopwatch timed;
  do {
    ops.push_back(RunDiscovery(csv_path, out_path, spec.request));
  } while (ops.size() < kMinOps || timed.ElapsedSeconds() < seconds);
  const double cpu_per_op =
      (ProcessCpuSeconds() - cpu_before) / static_cast<double>(ops.size());
  const std::string written = ResultJson(ReadFile(out_path));

  // Reference: the same discovery with the thread count changed (output is
  // identical for every thread count, and the anchor range is cut into
  // different chunks). The traced run uses 1 thread, which also gives the
  // scaling efficiency.
  core::TableauRequest reference_request = spec.request;
  reference_request.num_threads = trace ? 1 : 2 * kThreads;
  util::Result<series::CountSequence> counts = io::ReadCountsCsv(csv_path);
  if (!counts.ok()) Die(counts.status().ToString());
  const auto cumulative = BuildSeries(&counts.value());
  const core::ConfidenceEvaluator eval(cumulative.get(), spec.request.model);
  util::Result<core::Tableau> reference = [&] {
    obs::ScopedSpan span("perfbench.reference");
    return core::DiscoverTableau(eval, reference_request);
  }();
  if (!reference.ok()) Die(reference.status().ToString());
  if (trace) FinishTrace(workdir);
  const std::string reference_json = ResultJson(io::TableauToJson(*reference));

  Result result;
  const bool reference_valid = ValidTableau(*reference, eval, spec.request);
  if (!reference_valid) {
    std::fprintf(stderr, "perfbench: reference tableau fails validation\n");
  }
  for (const DiscoveryOp& op : ops) {
    ++result.attempted;
    // The file on disk is the last operation's output.
    const bool matches = SameTableau(op.tableau, *reference) &&
                         op.result_json == reference_json &&
                         (&op != &ops.back() || written == reference_json);
    if (!reference_valid || !matches) ++result.failed;
  }
  if (result.failed > 0) {
    std::fprintf(stderr,
                 "perfbench: %" PRId64 " of %" PRId64
                 " tableaux differ from the reference\n",
                 result.failed, result.attempted);
  }
  result.correct = result.failed == 0;

  std::vector<double> walls;
  for (const DiscoveryOp& op : ops) walls.push_back(op.wall);
  for (const double w : setup_samples) {
    std::fprintf(stderr, "setup %.4f s\n", w);
  }
  for (const double w : walls) std::fprintf(stderr, "op wall %.4f s\n", w);
  std::printf("%zu discoveries, %" PRIu64 " candidates, %zu rows\n",
              ops.size(), reference->num_candidates, reference->rows.size());

  if (!trace) {
    result.Add("wall_s", Percentile(walls, 0.5), "s");
    result.Add("cpu_s", cpu_per_op, "s");
    result.Add("setup_s", Percentile(setup_samples, 0.5), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    PrintResult(result);
    return result.correct ? 0 : 1;
  }

  // Per-layer self times, averaged per operation. The interval and cover
  // layers come from the stats DiscoverTableau returns; core's self time is
  // what DiscoverTableau spent outside them. Counters come from the last
  // operation (they are the same for every operation).
  auto mean_of = [&ops](auto field) {
    double sum = 0.0;
    for (const DiscoveryOp& op : ops) sum += field(op);
    return sum / static_cast<double>(ops.size());
  };
  const double wall_s = mean_of([](const DiscoveryOp& op) { return op.wall; });
  const double read_s = mean_of([](const DiscoveryOp& op) { return op.read; });
  const double build_s =
      mean_of([](const DiscoveryOp& op) { return op.build; });
  const double generate_s = mean_of([](const DiscoveryOp& op) {
    return op.tableau.generation_stats.wall_seconds;
  });
  const double cover_s =
      mean_of([](const DiscoveryOp& op) { return op.tableau.cover_seconds; });
  const double assemble_s =
      mean_of([](const DiscoveryOp& op) { return op.discover; }) -
      generate_s - cover_s;
  const double write_s =
      mean_of([](const DiscoveryOp& op) { return op.write; });
  const double layers_s =
      read_s + build_s + generate_s + cover_s + assemble_s + write_s;
  const double gap_s = wall_s - layers_s;
  WarnOnGap(gap_s, wall_s);
  const interval::GeneratorStats& gen = ops.back().tableau.generation_stats;
  const cover::CoverStats& cov = ops.back().tableau.cover_stats;
  const double generate_1 = reference->generation_stats.wall_seconds;
  const double n = static_cast<double>(eval.n());

  AddLayerMetrics(
      {
          {"trace.wall_s", wall_s},
          {"trace.layers_sum_s", layers_s},
          {"gap_s", gap_s},
          {"io.read_s", read_s},
          {"series.build_s", build_s},
          {"interval.generate_s", generate_s},
          {"interval.intervals_tested",
           static_cast<double>(gen.intervals_tested)},
          {"interval.prune_ratio", static_cast<double>(gen.anchors_pruned) / n},
          {"interval.lane_occupancy", gen.LaneOccupancy()},
          {"interval.shard_imbalance", gen.ImbalanceRatio()},
          {"interval.scaling_eff", generate_1 / (kThreads * generate_s)},
          {"cover.self_s", cover_s},
          {"cover.seed_s", mean_of([](const DiscoveryOp& op) {
             return op.tableau.cover_stats.seed_seconds;
           })},
          {"cover.select_s", mean_of([](const DiscoveryOp& op) {
             return op.tableau.cover_stats.select_seconds;
           })},
          {"cover.rounds", static_cast<double>(cov.rounds)},
          {"cover.stale_ratio",
           cov.heap_pops > 0 ? static_cast<double>(cov.stale_reevaluations) /
                                   static_cast<double>(cov.heap_pops)
                             : 0.0},
          {"core.assemble_s", assemble_s},
          {"io.write_s", write_s},
      },
      &result);
  PrintResult(result);
  return result.correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve_fresh: an in-process crserved over loopback, 32 tenants with long
// histories, open-loop rounds of one 64-tick append per tenant.

struct TenantSeries {
  std::vector<double> a;
  std::vector<double> b;
};

std::vector<TenantSeries> MakeTenantSeries(uint64_t seed, int64_t ticks) {
  std::vector<TenantSeries> tenants(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    datagen::JobLogParams params;
    params.num_ticks = ticks;
    params.seed = seed * 1000003u + static_cast<uint64_t>(t);
    const series::CountSequence counts = datagen::GenerateJobLog(params).counts;
    tenants[t].a = counts.outbound();
    tenants[t].b = counts.inbound();
  }
  return tenants;
}

serve::TenantConfig ServedTenantConfig() {
  // crserved's default rule.
  serve::TenantConfig config;
  config.request.type = core::TableauType::kFail;
  config.request.model = core::ConfidenceModel::kBalance;
  config.request.algorithm = interval::AlgorithmKind::kAreaBasedOpt;
  config.request.c_hat = 0.9;
  config.request.s_hat = 0.1;
  config.request.epsilon = 0.01;
  config.stream.model = core::ConfidenceModel::kBalance;
  config.append_only = true;
  return config;
}

uint64_t TenantId(int t) { return static_cast<uint64_t>(t + 1); }

// Refreshes every tenant's tableau; the periodic refresh thread is off, so
// nothing else touches the sessions once DrainQueues has returned.
void RefreshAll(serve::ServeDaemon& daemon) {
  for (int t = 0; t < kTenants; ++t) {
    serve::Tenant* tenant = daemon.registry().Find(TenantId(t));
    if (tenant == nullptr) Die("tenant missing after preload");
    daemon.registry().RefreshCover(*tenant);
  }
}

// Daemon start, preload to kPreloadTicks per tenant, first refresh.
std::unique_ptr<serve::ServeDaemon> StartAndPreload(
    const std::vector<TenantSeries>& data, serve::ServeClient* client) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  auto daemon =
      std::make_unique<serve::ServeDaemon>(ServedTenantConfig(), options);
  if (util::Status s = daemon->Start(); !s.ok()) Die(s.ToString());
  client->Close();
  if (util::Status s = client->Connect(daemon->port()); !s.ok()) {
    Die(s.ToString());
  }
  for (int64_t at = 0; at < kPreloadTicks; at += kPreloadChunk) {
    std::vector<int> pending(kTenants);
    for (int t = 0; t < kTenants; ++t) pending[t] = t;
    while (!pending.empty()) {
      for (const int t : pending) {
        if (!client->SendAppend(TenantId(t), data[t].a.data() + at,
                                data[t].b.data() + at, kPreloadChunk)
                 .ok()) {
          Die("preload send failed");
        }
      }
      if (!client->Flush().ok()) Die("preload flush failed");
      std::vector<int> rejected;
      for (const int t : pending) {
        util::Result<serve::AckFrame> ack = client->ReadAck();
        if (!ack.ok()) Die("preload ack failed: " + ack.status().ToString());
        if (ack->status != serve::AckStatus::kOk) rejected.push_back(t);
      }
      daemon->DrainQueues();
      pending = std::move(rejected);
    }
  }
  RefreshAll(*daemon);
  return daemon;
}

// The daemon's per-batch dispatch time histogram. The daemon registers it
// first; the bounds here only apply if it has not.
obs::Histogram& DispatchHistogram() {
  return obs::Registry::Global().Histogram(
      "serve.dispatch_batch_seconds", {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0});
}

// Quantile of a bucketed distribution, interpolated log-linearly inside the
// bucket that holds it (the dispatch histogram has decade buckets).
double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (size_t k = 0; k < counts.size(); ++k) {
    const double next = seen + static_cast<double>(counts[k]);
    if (next >= target && counts[k] > 0) {
      const double lo = k == 0 ? bounds[0] / 10.0 : bounds[k - 1];
      const double hi = k < bounds.size() ? bounds[k] : bounds.back() * 10.0;
      const double frac = (target - seen) / static_cast<double>(counts[k]);
      return lo * std::pow(hi / lo, frac);
    }
    seen = next;
  }
  return bounds.back();
}

int64_t WarmPops(serve::ServeDaemon& daemon) {
  int64_t pops = 0;
  for (int t = 0; t < kTenants; ++t) {
    serve::Tenant* tenant = daemon.registry().Find(TenantId(t));
    if (tenant != nullptr && tenant->session != nullptr) {
      pops += tenant->session->discoverer().stats().cover_warm_pops;
    }
  }
  return pops;
}

int RunServeWorkload(uint64_t seed, double seconds, bool trace,
                     const std::string& workdir) {
  using Clock = std::chrono::steady_clock;
  // Due times are fixed, so the round count is known up front.
  const int64_t num_rounds = std::max<int64_t>(
      kMinRounds,
      static_cast<int64_t>(std::ceil(seconds / kRoundPeriodSeconds)));
  const std::vector<TenantSeries> data =
      MakeTenantSeries(seed, kPreloadTicks + num_rounds * kRoundTicks);

  serve::ServeClient client;
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::vector<double> setup_samples;
  for (int k = 0; k < kMinSetups; ++k) {
    if (daemon != nullptr) {
      client.Close();
      daemon->Stop();
      daemon.reset();
    }
    util::Stopwatch timer;
    daemon = StartAndPreload(data, &client);
    setup_samples.push_back(timer.ElapsedSeconds());
    std::fprintf(stderr, "setup %.4f s\n", setup_samples.back());
  }

  const std::vector<uint64_t> buckets_before =
      DispatchHistogram().BucketCounts();
  const int64_t pops_before = WarmPops(*daemon);
  if (trace) StartTrace();

  std::vector<double> fresh_ms, ack_ms, apply_ms, refresh_ms, layers_ms;
  double late_ms_max = 0.0;
  int64_t attempted = 0, rejected = 0, errored = 0;
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  for (int64_t round = 0; round < num_rounds; ++round) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(round * kRoundPeriodSeconds));
    std::this_thread::sleep_until(due);
    obs::ScopedSpan round_span("perfbench.round", "round", round);
    const Clock::time_point sent = Clock::now();
    const double late_ms =
        std::chrono::duration<double, std::milli>(sent - due).count();
    late_ms_max = std::max(late_ms_max, late_ms);

    const int64_t at = kPreloadTicks + round * kRoundTicks;
    {
      obs::ScopedSpan span("perfbench.serve.append");
      for (int t = 0; t < kTenants; ++t) {
        ++attempted;
        if (!client.SendAppend(TenantId(t), data[t].a.data() + at,
                               data[t].b.data() + at, kRoundTicks)
                 .ok()) {
          Die("round send failed");
        }
      }
      if (!client.Flush().ok()) Die("round send failed");
      for (int t = 0; t < kTenants; ++t) {
        util::Result<serve::AckFrame> ack = client.ReadAck();
        ack_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count());
        if (!ack.ok()) {
          ++errored;
        } else if (ack->status != serve::AckStatus::kOk) {
          ++rejected;
        }
      }
    }
    const Clock::time_point acked = Clock::now();
    {
      obs::ScopedSpan span("perfbench.serve.drain");
      daemon->DrainQueues();
    }
    const Clock::time_point applied = Clock::now();
    {
      obs::ScopedSpan span("perfbench.incr.refresh");
      RefreshAll(*daemon);
    }
    const Clock::time_point fresh = Clock::now();
    auto ms = [](Clock::time_point from, Clock::time_point to) {
      return std::chrono::duration<double, std::milli>(to - from).count();
    };
    fresh_ms.push_back(ms(due, fresh));
    apply_ms.push_back(ms(sent, applied));
    refresh_ms.push_back(ms(applied, fresh));
    layers_ms.push_back(std::max(late_ms, 0.0) + ms(sent, acked) +
                        ms(acked, applied) + ms(applied, fresh));
  }
  const double cpu_per_round =
      (ProcessCpuSeconds() - cpu_before) / static_cast<double>(num_rounds);
  const int64_t warm_pops = WarmPops(*daemon) - pops_before;
  std::vector<uint64_t> batch_buckets = DispatchHistogram().BucketCounts();
  for (size_t k = 0; k < batch_buckets.size(); ++k) {
    batch_buckets[k] -= buckets_before[k];
  }
  if (trace) FinishTrace(workdir);

  client.Close();
  daemon->Stop();

  // Check: each tenant's maintained tableau is bit-identical to from-scratch
  // discovery over the tenant's filtered log (the daemon's own request),
  // tenants spread over kThreads checker threads.
  Result result;
  const core::TableauRequest request = ServedTenantConfig().request;
  std::atomic<int> next_tenant{0};
  std::atomic<int64_t> mismatched{0};
  auto check_tenants = [&] {
    for (int t = next_tenant++; t < kTenants; t = next_tenant++) {
      const serve::Tenant* tenant = daemon->registry().Find(TenantId(t));
      if (tenant == nullptr || tenant->session == nullptr) {
        ++mismatched;
        continue;
      }
      auto counts =
          series::CountSequence::Create(tenant->log_a, tenant->log_b);
      if (!counts.ok()) {
        ++mismatched;
        continue;
      }
      const series::CumulativeSeries cumulative(*counts);
      const core::ConfidenceEvaluator eval(&cumulative, request.model);
      util::Result<core::Tableau> fresh = core::DiscoverTableau(eval, request);
      if (!fresh.ok() || !SameTableau(tenant->session->tableau(), *fresh) ||
          !ValidTableau(*fresh, eval, request)) {
        ++mismatched;
      }
    }
  };
  util::Stopwatch check_timer;
  std::vector<std::thread> checkers;
  for (int k = 0; k < kThreads; ++k) checkers.emplace_back(check_tenants);
  for (std::thread& checker : checkers) checker.join();
  std::fprintf(stderr, "check %.3f s\n", check_timer.ElapsedSeconds());
  const int64_t mismatches = mismatched.load();
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "perfbench: %" PRId64 " tenant tableaux differ from "
                 "from-scratch discovery\n",
                 mismatches);
  }
  result.attempted = attempted + kTenants;
  result.failed = rejected + errored + mismatches;
  result.correct = mismatches == 0;

  std::printf("%" PRId64 " rounds of %d x %" PRId64
              "-tick appends, every %.0f ms; p90 from %" PRId64
              " samples (%" PRId64 " beyond it)\n",
              num_rounds, kTenants, kRoundTicks, kRoundPeriodSeconds * 1e3,
              num_rounds, num_rounds / 10);
  std::printf("serve_fresh_p50_ms           %.6g ms\n",
              Percentile(fresh_ms, 0.5));
  std::printf("serve_fresh_p90_ms           %.6g ms\n",
              Percentile(fresh_ms, 0.9));

  if (!trace) {
    result.Add("wall_s", Percentile(fresh_ms, 0.5) / 1e3, "s");
    result.Add("cpu_s", cpu_per_round, "s");
    result.Add("setup_s", Percentile(setup_samples, 0.5), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    PrintResult(result);
    return result.correct ? 0 : 1;
  }

  const double wall_s = Mean(fresh_ms) / 1e3;
  const double layers_s = Mean(layers_ms) / 1e3;
  WarnOnGap(wall_s - layers_s, wall_s);
  const std::vector<double>& bounds = DispatchHistogram().bounds();
  AddLayerMetrics(
      {
          {"trace.wall_s", wall_s},
          {"trace.layers_sum_s", layers_s},
          {"gap_s", wall_s - layers_s},
          {"serve.rounds", static_cast<double>(num_rounds)},
          {"serve.fresh_p50_ms", Percentile(fresh_ms, 0.5)},
          {"serve.fresh_p90_ms", Percentile(fresh_ms, 0.9)},
          {"serve.ack_p50_ms", Percentile(ack_ms, 0.5)},
          {"serve.ack_p99_ms", Percentile(ack_ms, 0.99)},
          {"serve.apply_ms_p50", Percentile(apply_ms, 0.5)},
          {"serve.apply_ms_p90", Percentile(apply_ms, 0.9)},
          {"serve.refresh_ms_p50", Percentile(refresh_ms, 0.5)},
          {"serve.refresh_ms_p90", Percentile(refresh_ms, 0.9)},
          {"serve.rejected", static_cast<double>(rejected)},
          {"gen.late_ms_max", late_ms_max},
          {"gen.appends_attempted", static_cast<double>(attempted)},
          {"gen.appends_errored", static_cast<double>(errored)},
          {"incr.batch_ms_p50",
           1e3 * BucketQuantile(bounds, batch_buckets, 0.5)},
          {"incr.batch_ms_p99",
           1e3 * BucketQuantile(bounds, batch_buckets, 0.99)},
          {"incr.cover_warm_pops",
           static_cast<double>(warm_pops) / static_cast<double>(num_rounds)},
      },
      &result);
  PrintResult(result);
  return result.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  if (util::Status s = flags.Parse(argc, argv); !s.ok()) Die(s.ToString());
  const std::string workload = flags.GetStringOr("workload", "");
  const std::string workdir = flags.GetStringOr("workdir", "");
  auto seed = flags.GetIntOr("seed", 1);
  auto seconds = flags.GetDoubleOr("seconds", 10.0);
  auto trace = flags.GetIntOr("trace", 0);
  if (!seed.ok() || *seed < 0) Die("--seed must be a non-negative integer");
  if (!seconds.ok() || *seconds <= 0.0) Die("--seconds must be > 0");
  if (!trace.ok() || (*trace != 0 && *trace != 1)) {
    Die("--trace must be 0 or 1");
  }
  if (workdir.empty()) Die("required: --workdir=<dir>");
  const uint64_t seed_value = static_cast<uint64_t>(*seed);

  if (workload == "discover_ab_opt") {
    return RunDiscoveryWorkload(AbOptSpec(), seed_value, *seconds, *trace == 1,
                                workdir);
  }
  if (workload == "discover_nab_fail") {
    return RunDiscoveryWorkload(NabFailSpec(), seed_value, *seconds,
                                *trace == 1, workdir);
  }
  if (workload == "serve_fresh") {
    return RunServeWorkload(seed_value, *seconds, *trace == 1, workdir);
  }
  Die("unknown --workload: " + workload);
}
