// crdiscover: discover conservation-rule tableaux in a two-column CSV.
//
// Usage:
//   crdiscover --input=data.csv [options]
//
// An unknown flag is an error (exit 2), so a misspelled or retired option
// never silently falls back to its default.
//
// Input options:
//   --col_a=<idx> --col_b=<idx>   0-based columns (default 0, 1)
//   --sep=<char>                  field separator (default ',')
//   --no_header                   first row is data
// Rule options:
//   --type=hold|fail              (default fail)
//   --model=balance|credit|debit  (default balance)
//   --c_hat=<x>    confidence threshold        (default 0.8)
//   --s_hat=<x>    support fraction            (default 0.1)
//   --epsilon=<x>  approximation knob          (default 0.01)
//   --algorithm=exhaustive|area|area_opt|nab|nab_opt   (default area)
//   --threads=<k>  anchor-sharded generation threads; 0 = all cores
//                  (default 1; results are identical for every setting)
// Incremental replay (DESIGN.md §4g):
//   --append_batch=<m>  replay the input through the incremental engine in
//                  append batches of m ticks, print the maintained tableau
//                  after the last batch plus the incr.* replay stats, and
//                  cross-check the result against a from-scratch run
// Extras:
//   --report         full quality report (tableau + diagnosis + segments)
//   --json           emit the tableau as JSON (includes a "cover" stats
//                    object: rounds, heap_pops, stale_reevaluations, ...)
//   --cover_stats    also emit the cover-phase stats as a JSON object line
//   --severity       also print intervals ranked by misplaced mass
//   --sweep=a,b,c    threshold sweep instead of a single tableau
//   --profile=<w>    dump rolling window-w confidence to stdout as CSV
//   --segments=<len> per-segment confidence summary (CSV)
// Observability (docs/OBSERVABILITY.md):
//   --trace=FILE     record scoped spans during the run and write a
//                    Chrome/Perfetto trace-event JSON file on exit
//   --trace_verbosity=1|2   1 = phase/chunk spans (default); 2 adds
//                    per-pop instants in the cover selection loop
//   --metrics[=FILE] emit the metrics-registry snapshot: bare --metrics
//                    adds it to the --json document (or a stderr line in
//                    text mode); =FILE writes the snapshot JSON to FILE
//   --serve_metrics=<port>  serve live metrics over HTTP on 127.0.0.1
//                    for the whole run: GET /metrics (Prometheus text
//                    exposition v0.0.4 with windowed quantiles),
//                    /metrics.json, /healthz. Port 0 picks an ephemeral
//                    port; stdout is untouched (serving writes only to
//                    stderr and the socket)
//   --serve_metrics_port_file=<path>  write the bound port (one decimal
//                    line) once the server is up — how scripted scrapers
//                    find an ephemeral port
//   --metrics_every=<k>  in --append_batch replay: every k batches,
//                    advance the sliding metrics window and emit one JSON
//                    progress line to stderr (windowed rates + tick-latency
//                    quantiles); 0 (default) keeps only the final dump
//   --tenant=<name>  label this run's stream/replay metrics with
//                    {tenant="<name>"} (default "default")
//   --batch_pause_ms=<ms>  sleep between replay batches — paces the replay
//                    so a live scraper can observe it mid-flight
//   --watchdog_budget_ms=<ms>  enable the phase watchdog: a discovery
//                    phase or append batch exceeding the budget raises
//                    obs.stalls_detected and a stderr alert
//   --watchdog_trace=<path>  on the first stall, also dump the trace rings
//                    here (requires --trace to be recording)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/report.h"
#include "core/segmentation.h"
#include "core/conservation_rule.h"
#include "incr/incremental.h"
#include "interval/kernel_simd.h"
#include "io/csv.h"
#include "io/json.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "obs/window.h"
#include "series/sequence.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using namespace conservation;

int Fail(const std::string& message) {
  std::fprintf(stderr, "crdiscover: %s\n", message.c_str());
  return 1;
}

util::Result<core::ConfidenceModel> ParseModel(const std::string& name) {
  if (name == "balance") return core::ConfidenceModel::kBalance;
  if (name == "credit") return core::ConfidenceModel::kCredit;
  if (name == "debit") return core::ConfidenceModel::kDebit;
  return util::Status::InvalidArgument("unknown model: " + name);
}

util::Result<interval::AlgorithmKind> ParseAlgorithm(
    const std::string& name) {
  if (name == "exhaustive") return interval::AlgorithmKind::kExhaustive;
  if (name == "area") return interval::AlgorithmKind::kAreaBased;
  if (name == "area_opt") return interval::AlgorithmKind::kAreaBasedOpt;
  if (name == "nab") return interval::AlgorithmKind::kNonAreaBased;
  if (name == "nab_opt") return interval::AlgorithmKind::kNonAreaBasedOpt;
  return util::Status::InvalidArgument("unknown algorithm: " + name);
}

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "crdiscover: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool closed = std::fclose(file) == 0;
  if (written != text.size() || !closed) {
    std::fprintf(stderr, "crdiscover: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

// Writes the trace and metrics files on every exit path (the profile /
// segments / report / sweep modes return early).
struct ObsGuard {
  std::string trace_path;
  std::string metrics_path;

  ~ObsGuard() {
    if (!trace_path.empty()) {
      obs::StopTracing();
      obs::WriteTrace(trace_path);
    }
    if (!metrics_path.empty()) {
      WriteTextFile(metrics_path,
                    obs::Registry::Global().Snapshot().ToJson() + "\n");
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  if (util::Status status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status.ToString());
  }
  const std::string input = flags.GetStringOr("input", "");
  if (input.empty()) return Fail("required: --input=<csv>");

  // Observability setup, before any work so every phase is recorded.
  ObsGuard obs_guard;
  const bool want_metrics = flags.Has("metrics");
  obs_guard.metrics_path = flags.GetStringOr("metrics", "");
  auto trace_verbosity = flags.GetIntOr("trace_verbosity", 1);
  if (!trace_verbosity.ok()) return Fail(trace_verbosity.status().ToString());
  if (flags.Has("trace")) {
    obs_guard.trace_path = flags.GetStringOr("trace", "");
    if (obs_guard.trace_path.empty()) {
      return Fail("--trace requires a file path");
    }
    if (*trace_verbosity < 1 || *trace_verbosity > 2) {
      return Fail("--trace_verbosity must be 1 or 2");
    }
    obs::TraceOptions trace_options;
    trace_options.verbosity = static_cast<int>(*trace_verbosity);
    obs::StartTracing(trace_options);
    obs::SetCurrentThreadName("main");
  }

  // Live scrape endpoint: up before any work so an external scraper can
  // watch the whole run. Stack object — the destructor stops the serve
  // thread on every exit path. Serving writes only to stderr and the
  // socket; stdout byte-identity (tools/stdout_regression.sh) holds.
  obs::ScrapeServer scrape_server;
  if (flags.Has("serve_metrics")) {
    auto serve_port = flags.GetIntOr("serve_metrics", 0);
    if (!serve_port.ok()) return Fail(serve_port.status().ToString());
    if (*serve_port < 0 || *serve_port > 65535) {
      return Fail("--serve_metrics must be a port in [0, 65535]");
    }
    obs::ScrapeServerOptions serve_options;
    serve_options.port = static_cast<int>(*serve_port);
    // Written atomically (tmp + rename) by Start, so a polling scraper
    // never reads a torn port file even under rapid restarts.
    serve_options.port_file = flags.GetStringOr("serve_metrics_port_file", "");
    std::string serve_error;
    if (!scrape_server.Start(serve_options, &serve_error)) {
      return Fail("--serve_metrics: " + serve_error);
    }
    std::fprintf(stderr, "crdiscover: serving metrics on 127.0.0.1:%d\n",
                 scrape_server.port());
  } else if (flags.Has("serve_metrics_port_file")) {
    return Fail("--serve_metrics_port_file requires --serve_metrics");
  }

  // Phase watchdog: stalls raise obs.stalls_detected + a stderr alert
  // (and a one-shot trace dump when --watchdog_trace and --trace are set).
  if (flags.Has("watchdog_budget_ms")) {
    auto budget_ms = flags.GetIntOr("watchdog_budget_ms", 0);
    if (!budget_ms.ok()) return Fail(budget_ms.status().ToString());
    if (*budget_ms <= 0) return Fail("--watchdog_budget_ms must be > 0");
    obs::WatchdogOptions watchdog_options;
    watchdog_options.default_budget_seconds =
        static_cast<double>(*budget_ms) / 1000.0;
    watchdog_options.stall_trace_path = flags.GetStringOr("watchdog_trace", "");
    obs::StartWatchdog(watchdog_options);
  } else if (flags.Has("watchdog_trace")) {
    return Fail("--watchdog_trace requires --watchdog_budget_ms");
  }

  io::CsvReadOptions read_options;
  auto col_a = flags.GetIntOr("col_a", 0);
  auto col_b = flags.GetIntOr("col_b", 1);
  auto no_header = flags.GetBoolOr("no_header", false);
  if (!col_a.ok()) return Fail(col_a.status().ToString());
  if (!col_b.ok()) return Fail(col_b.status().ToString());
  if (!no_header.ok()) return Fail(no_header.status().ToString());
  for (const auto& [name, col] : {std::pair{"col_a", *col_a},
                                   std::pair{"col_b", *col_b}}) {
    if (col < 0 || col > std::numeric_limits<int>::max()) {
      return Fail(util::StrFormat("--%s must be in [0, %d], got %lld", name,
                                  std::numeric_limits<int>::max(),
                                  static_cast<long long>(col)));
    }
  }
  read_options.column_a = static_cast<int>(*col_a);
  read_options.column_b = static_cast<int>(*col_b);
  read_options.has_header = !*no_header;
  const std::string sep = flags.GetStringOr("sep", ",");
  if (sep.size() != 1) return Fail("--sep must be one character");
  read_options.separator = sep[0];

  // Every remaining flag is read (and range-checked) here, before any
  // work, so the unknown-flag check below sees the whole command line
  // whichever mode the run takes.
  auto model = ParseModel(flags.GetStringOr("model", "balance"));
  if (!model.ok()) return Fail(model.status().ToString());
  auto profile = flags.GetIntOr("profile", 0);
  if (!profile.ok()) return Fail(profile.status().ToString());
  auto segments = flags.GetIntOr("segments", 0);
  if (!segments.ok()) return Fail(segments.status().ToString());
  auto want_report = flags.GetBoolOr("report", false);
  if (!want_report.ok()) return Fail(want_report.status().ToString());
  // Report mode has its own threshold defaults.
  auto report_c_hat = flags.GetDoubleOr("c_hat", 0.7);
  auto report_s_hat = flags.GetDoubleOr("s_hat", 0.05);
  if (!report_c_hat.ok()) return Fail(report_c_hat.status().ToString());
  if (!report_s_hat.ok()) return Fail(report_s_hat.status().ToString());

  core::TableauRequest request;
  const std::string type = flags.GetStringOr("type", "fail");
  if (type == "hold") {
    request.type = core::TableauType::kHold;
  } else if (type == "fail") {
    request.type = core::TableauType::kFail;
  } else {
    return Fail("unknown type: " + type);
  }
  request.model = *model;
  const std::string algorithm_name = flags.GetStringOr("algorithm", "area");
  auto algorithm = ParseAlgorithm(algorithm_name);
  if (!algorithm.ok()) return Fail(algorithm.status().ToString());
  request.algorithm = *algorithm;
  auto c_hat = flags.GetDoubleOr("c_hat", 0.8);
  auto s_hat = flags.GetDoubleOr("s_hat", 0.1);
  auto epsilon = flags.GetDoubleOr("epsilon", 0.01);
  if (!c_hat.ok()) return Fail(c_hat.status().ToString());
  if (!s_hat.ok()) return Fail(s_hat.status().ToString());
  if (!epsilon.ok()) return Fail(epsilon.status().ToString());
  request.c_hat = *c_hat;
  request.s_hat = *s_hat;
  request.epsilon = *epsilon;
  auto threads = flags.GetIntOr("threads", 1);
  if (!threads.ok()) return Fail(threads.status().ToString());
  if (*threads < 0) return Fail("--threads must be >= 0");
  request.num_threads = static_cast<int>(*threads);

  const std::string sweep = flags.GetStringOr("sweep", "");
  auto append_batch = flags.GetIntOr("append_batch", 0);
  if (!append_batch.ok()) return Fail(append_batch.status().ToString());
  if (*append_batch < 0) return Fail("--append_batch must be >= 0");
  auto metrics_every = flags.GetIntOr("metrics_every", 0);
  if (!metrics_every.ok()) return Fail(metrics_every.status().ToString());
  if (*metrics_every < 0) return Fail("--metrics_every must be >= 0");
  auto batch_pause_ms = flags.GetIntOr("batch_pause_ms", 0);
  if (!batch_pause_ms.ok()) return Fail(batch_pause_ms.status().ToString());
  if (*batch_pause_ms < 0) return Fail("--batch_pause_ms must be >= 0");
  const std::string tenant = flags.GetStringOr("tenant", "default");
  auto as_json = flags.GetBoolOr("json", false);
  if (!as_json.ok()) return Fail(as_json.status().ToString());
  auto want_cover_stats = flags.GetBoolOr("cover_stats", false);
  if (!want_cover_stats.ok()) return Fail(want_cover_stats.status().ToString());
  auto severity = flags.GetBoolOr("severity", false);
  if (!severity.ok()) return Fail(severity.status().ToString());

  if (util::Status status = flags.CheckAllRead(); !status.ok()) {
    std::fprintf(stderr, "crdiscover: %s\n", status.ToString().c_str());
    return 2;
  }

  auto counts = io::ReadCountsCsv(input, read_options);
  if (!counts.ok()) return Fail(counts.status().ToString());
  auto rule = core::ConservationRule::Create(std::move(counts).value());
  if (!rule.ok()) return Fail(rule.status().ToString());

  // Rolling profile mode.
  if (*profile > 0) {
    if (*profile > rule->n()) return Fail("--profile window exceeds n");
    const std::vector<double> series =
        core::ConfidenceProfile(*rule, *model, *profile);
    std::printf("t,confidence\n");
    for (size_t k = 0; k < series.size(); ++k) {
      std::printf("%lld,%s\n",
                  static_cast<long long>(*profile + static_cast<int64_t>(k)),
                  util::FormatNumber(series[k], 6).c_str());
    }
    return 0;
  }

  // Per-segment summary mode.
  if (*segments > 0) {
    const auto summaries = core::SummarizeSegments(
        *rule, *model, core::UniformSegments(rule->n(), *segments));
    std::printf("segment,begin,end,confidence,misplaced_mass\n");
    for (const core::SegmentSummary& summary : summaries) {
      std::printf("%s,%lld,%lld,%s,%s\n", summary.segment.label.c_str(),
                  static_cast<long long>(summary.segment.range.begin),
                  static_cast<long long>(summary.segment.range.end),
                  summary.confidence.has_value()
                      ? util::FormatNumber(*summary.confidence, 6).c_str()
                      : "undefined",
                  util::FormatNumber(summary.misplaced_mass, 3).c_str());
    }
    return 0;
  }

  // Full-report mode.
  if (*want_report) {
    core::ReportOptions report_options;
    report_options.model = *model;
    report_options.fail_c_hat = *report_c_hat;
    report_options.support = *report_s_hat;
    auto report = core::BuildQualityReport(*rule, report_options);
    if (!report.ok()) return Fail(report.status().ToString());
    std::printf("%s", report->ToString().c_str());
    return 0;
  }


  std::printf("n = %lld ticks; overall %s confidence = %s\n",
              static_cast<long long>(rule->n()),
              core::ConfidenceModelName(*model),
              util::FormatNumber(
                  rule->OverallConfidence(*model).value_or(-1.0), 6)
                  .c_str());

  // Threshold sweep mode.
  if (!sweep.empty()) {
    std::vector<double> thresholds;
    for (const std::string& item : util::Split(sweep, ',')) {
      double value = 0.0;
      if (!util::ParseDouble(item, &value)) {
        return Fail("bad --sweep entry: " + item);
      }
      thresholds.push_back(value);
    }
    auto points = core::ThresholdSweep(*rule, request, thresholds);
    if (!points.ok()) return Fail(points.status().ToString());
    std::printf("c_hat,intervals,covered,satisfied\n");
    for (const core::SweepPoint& point : *points) {
      std::printf("%s,%zu,%lld,%s\n",
                  util::FormatNumber(point.c_hat, 4).c_str(),
                  point.tableau_size,
                  static_cast<long long>(point.covered),
                  point.support_satisfied ? "yes" : "no");
    }
    return 0;
  }

  // Incremental replay mode: feed the input through the maintenance engine
  // batch by batch, then cross-check the maintained tableau against a
  // from-scratch discovery over the full series (the engine's exactness
  // contract, enforced here on real inputs as a deployment smoke check).
  if (*append_batch > 0) {
    // Per-tenant/per-generator attribution of the batch latency; the
    // unlabeled incr.batch_seconds recorded inside AppendBatch stays the
    // all-up total. Hoisted here: one family lookup for the whole replay.
    obs::Histogram& batch_seconds =
        obs::LabeledHistogram("incr.batch_seconds",
                              {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0})
            .With({{"tenant", tenant},
                   {"generator", algorithm_name}});

    const int64_t m = *append_batch;
    const series::CountSequence& full = rule->counts();
    const int64_t n = full.n();
    // The first batch grows in steps of m until CountSequence::Create
    // accepts it (a serving tenant holds ticks back the same way); the full
    // series is valid, so this ends by n.
    auto prefix_of = [&full](int64_t len) {
      return series::CountSequence::Create(
          {full.outbound().begin(), full.outbound().begin() + len},
          {full.inbound().begin(), full.inbound().begin() + len});
    };
    int64_t initial = std::min<int64_t>(m, n);
    auto prefix = prefix_of(initial);
    while (!prefix.ok()) {
      initial = std::min<int64_t>(initial + m, n);
      prefix = prefix_of(initial);
    }
    auto discoverer = incr::IncrementalDiscoverer::Create(*prefix, request);
    if (!discoverer.ok()) return Fail(discoverer.status().ToString());
    const std::vector<double>& a = full.outbound();
    const std::vector<double>& b = full.inbound();
    int64_t batches_done = 0;
    for (int64_t at = initial; at < n; at += m) {
      util::Stopwatch batch_timer;
      discoverer->AppendBatch(a.data() + at, b.data() + at,
                              std::min<int64_t>(m, n - at));
      batch_seconds.Record(batch_timer.ElapsedSeconds());
      ++batches_done;
      if (*metrics_every > 0 && batches_done % *metrics_every == 0) {
        // Periodic emission: advance the shared sliding window and write
        // one self-contained JSON progress line to stderr — the end-to-end
        // path the windowed quantiles are designed for. Never stdout: the
        // result stream stays byte-identical with serving/metrics off.
        obs::WindowAggregator::Global().Advance();
        const obs::WindowSnapshot window =
            obs::WindowAggregator::Global().Snapshot();
        std::fprintf(stderr, "{\"batch\":%lld,\"ticks\":%lld,\"windows\":%s}\n",
                     static_cast<long long>(batches_done),
                     static_cast<long long>(std::min<int64_t>(at + m, n)),
                     window.ToJson().c_str());
        std::fflush(stderr);
      }
      if (*batch_pause_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(*batch_pause_ms));
      }
    }
    const incr::IncrStats& st = discoverer->stats();
    std::printf("%s", discoverer->tableau().ToString().c_str());
    std::printf(
        "incremental replay: batches=%lld candidates_extended=%lld "
        "cover_warm_pops=%lld full_rebuilds=%lld dirty_anchors=%lld\n",
        static_cast<long long>(st.batches),
        static_cast<long long>(st.candidates_extended),
        static_cast<long long>(st.cover_warm_pops),
        static_cast<long long>(st.full_rebuilds),
        static_cast<long long>(st.dirty_anchors));
    auto fresh = rule->DiscoverTableau(request);
    if (!fresh.ok()) return Fail(fresh.status().ToString());
    const core::Tableau& inc = discoverer->tableau();
    bool identical = inc.rows.size() == fresh->rows.size() &&
                     inc.covered == fresh->covered &&
                     inc.required == fresh->required &&
                     inc.support_satisfied == fresh->support_satisfied &&
                     inc.num_candidates == fresh->num_candidates;
    for (size_t r = 0; identical && r < inc.rows.size(); ++r) {
      identical = inc.rows[r].interval.begin == fresh->rows[r].interval.begin &&
                  inc.rows[r].interval.end == fresh->rows[r].interval.end &&
                  inc.rows[r].confidence == fresh->rows[r].confidence;
    }
    std::printf("cross-check vs from-scratch: %s\n",
                identical ? "identical" : "MISMATCH");
    return identical ? 0 : 1;
  }

  auto tableau = rule->DiscoverTableau(request);
  if (!tableau.ok()) return Fail(tableau.status().ToString());

  // Everything past discovery goes through one serialized sink and is
  // flushed as a single write per stream: result output (stdout) first,
  // then diagnostics (stderr). Direct printf here used to interleave the
  // two streams timing-dependently under `> log 2>&1`; stdout must also
  // stay bit-identical at any --threads value, which
  // tools/stdout_regression.sh enforces.
  obs::Sink sink;
  const auto kResult = obs::Sink::Channel::kResult;
  const auto kDiagnostic = obs::Sink::Channel::kDiagnostic;

  if (*as_json) {
    if (want_metrics) {
      const obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
      sink.Line(kResult, io::TableauToJson(*tableau, &snapshot));
    } else {
      sink.Line(kResult, io::TableauToJson(*tableau));
    }
    sink.Flush();
    return 0;
  }
  sink.Line(kResult, tableau->ToString());

  // Phase stats are diagnostics: shard counts and wall times vary with
  // --threads, while the result channel stays bit-identical.
  const cover::CoverStats& cs = tableau->cover_stats;
  sink.Line(
      kDiagnostic,
      util::StrFormat(
          "generation: candidates=%llu tested=%llu shards=%d wall=%.4fs",
          static_cast<unsigned long long>(tableau->num_candidates),
          static_cast<unsigned long long>(
              tableau->generation_stats.intervals_tested),
          tableau->generation_stats.shards,
          tableau->generation_stats.wall_seconds));
  sink.Line(
      kDiagnostic,
      util::StrFormat(
          "cover: rounds=%lld heap_pops=%lld stale_reevals=%lld "
          "tick_visits=%lld peak_heap=%lld seed=%.4fs select=%.4fs "
          "total=%.4fs",
          static_cast<long long>(cs.rounds),
          static_cast<long long>(cs.heap_pops),
          static_cast<long long>(cs.stale_reevaluations),
          static_cast<long long>(cs.tick_visits),
          static_cast<long long>(cs.peak_heap_size), cs.seed_seconds,
          cs.select_seconds, tableau->cover_seconds));
  if (*want_cover_stats) {
    sink.Line(
        kResult,
        util::StrFormat(
            "{\"cover_stats\":{\"rounds\":%lld,\"heap_pops\":%lld,"
            "\"stale_reevaluations\":%lld,\"tick_visits\":%lld,"
            "\"peak_heap_size\":%lld,\"seed_seconds\":%s,"
            "\"select_seconds\":%s,\"seconds\":%s}}",
            static_cast<long long>(cs.rounds),
            static_cast<long long>(cs.heap_pops),
            static_cast<long long>(cs.stale_reevaluations),
            static_cast<long long>(cs.tick_visits),
            static_cast<long long>(cs.peak_heap_size),
            util::FormatNumber(cs.seed_seconds, 9).c_str(),
            util::FormatNumber(cs.select_seconds, 9).c_str(),
            util::FormatNumber(tableau->cover_seconds, 9).c_str()));
  }
  if (want_metrics && obs_guard.metrics_path.empty()) {
    // Diagnostic channel only: the selected backend is machine provenance
    // and must not reach the result stream, which stays byte-identical on
    // every CPU.
    sink.Line(kDiagnostic,
              std::string("kernel backend: ") +
                  interval::internal::SimdBackendName(
                      interval::internal::ActiveSimdBackend()));
    sink.Line(kDiagnostic,
              "metrics: " + obs::Registry::Global().Snapshot().ToJson());
  }

  if (*severity) {
    sink.Line(kResult, "\nby severity (misplaced mass):");
    for (const core::SeverityEntry& entry :
         core::RankBySeverity(*rule, *model, *tableau)) {
      sink.Line(kResult,
                util::StrFormat(
                    "  %-14s conf=%.4f misplaced=%s",
                    entry.interval.ToString().c_str(), entry.confidence,
                    util::FormatNumber(entry.misplaced_mass, 2).c_str()));
    }
  }
  sink.Flush();
  return 0;
}
