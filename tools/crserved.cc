// crserved: the multi-tenant conservation serving daemon.
//
// Hosts a fleet of (a,b) tenant streams behind the binary ingest protocol
// (src/serve/protocol.h), applying appends through per-tenant
// StreamSessions on the shared pool and serving live metrics over HTTP.
// docs/SERVING.md is the operator guide.
//
// Usage:
//   crserved [flags]
//
// Ingest:
//   --port=<p>                    ingest port (default 0 = ephemeral)
//   --port_file=<path>            write the bound ingest port atomically
//   --readers=<k>                 reader threads / max concurrent clients
//                                 (default 2)
//   --max_tenant_queue_ticks=<n>  per-tenant admission bound (default 4096)
//   --max_global_queue_ticks=<n>  global admission bound (default 1M)
//
// Tenants (one shared rule config for the fleet):
//   --type=hold|fail --model=balance|credit|debit --c_hat --s_hat
//   --algorithm=exhaustive|area|area_opt|nab|nab_opt --epsilon
//   --window=<w>                  monitor sliding window (default 64)
//   --label_tenants               per-tenant labeled metric children
//   --append_only=true|false      defer cover work to the refresh tick
//                                 (default true)
//   --refresh_ms=<ms>             cover refresh / eviction sweep period
//                                 (default 200; 0 disables)
//   --max_hot=<n>                 hot-session bound; idle LRU tenants have
//                                 their sessions dropped and are rebuilt
//                                 from the raw log on their next append
//                                 (default 0 = unbounded)
//
// Observability:
//   --metrics_port=<p>            serve /metrics on 127.0.0.1:<p>
//   --metrics_port_file=<path>    write the bound metrics port atomically
//   --watchdog_budget_ms=<ms>     stall watchdog over dispatched batches
//
// An unknown flag is an error (exit 2).
//
// Lifecycle: runs until SIGTERM/SIGINT, then drains every accepted tick,
// refreshes deferred covers, prints a drain summary and exits 0.

#include <csignal>
#include <cstdio>
#include <string>

#include "core/tableau.h"
#include "interval/generator.h"
#include "obs/scrape.h"
#include "obs/watchdog.h"
#include "serve/daemon.h"
#include "util/flags.h"
#include "util/status.h"

#include <chrono>
#include <thread>

namespace {

using namespace conservation;

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

int Fail(const std::string& message) {
  std::fprintf(stderr, "crserved: %s\n", message.c_str());
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

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  if (util::Status status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status.ToString());
  }

  serve::TenantConfig tenant_config;
  const std::string type = flags.GetStringOr("type", "fail");
  if (type == "hold") {
    tenant_config.request.type = core::TableauType::kHold;
  } else if (type == "fail") {
    tenant_config.request.type = core::TableauType::kFail;
  } else {
    return Fail("unknown type: " + type);
  }
  auto model = ParseModel(flags.GetStringOr("model", "balance"));
  if (!model.ok()) return Fail(model.status().ToString());
  tenant_config.request.model = *model;
  tenant_config.stream.model = *model;
  auto algorithm = ParseAlgorithm(flags.GetStringOr("algorithm", "area_opt"));
  if (!algorithm.ok()) return Fail(algorithm.status().ToString());
  tenant_config.request.algorithm = *algorithm;
  auto c_hat = flags.GetDoubleOr("c_hat", 0.9);
  auto s_hat = flags.GetDoubleOr("s_hat", 0.1);
  auto epsilon = flags.GetDoubleOr("epsilon", 0.01);
  if (!c_hat.ok()) return Fail(c_hat.status().ToString());
  if (!s_hat.ok()) return Fail(s_hat.status().ToString());
  if (!epsilon.ok()) return Fail(epsilon.status().ToString());
  tenant_config.request.c_hat = *c_hat;
  tenant_config.request.s_hat = *s_hat;
  tenant_config.request.epsilon = *epsilon;
  auto window = flags.GetIntOr("window", 64);
  if (!window.ok() || *window <= 0) return Fail("--window must be > 0");
  tenant_config.stream.window = *window;
  auto label_tenants = flags.GetBoolOr("label_tenants", false);
  if (!label_tenants.ok()) return Fail(label_tenants.status().ToString());
  tenant_config.label_tenants = *label_tenants;
  auto append_only = flags.GetBoolOr("append_only", true);
  if (!append_only.ok()) return Fail(append_only.status().ToString());
  tenant_config.append_only = *append_only;
  auto max_hot = flags.GetIntOr("max_hot", 0);
  if (!max_hot.ok() || *max_hot < 0) return Fail("--max_hot must be >= 0");
  tenant_config.max_hot = *max_hot;

  serve::DaemonOptions options;
  auto port = flags.GetIntOr("port", 0);
  if (!port.ok() || *port < 0 || *port > 65535) {
    return Fail("--port must be in [0, 65535]");
  }
  options.port = static_cast<int>(*port);
  auto readers = flags.GetIntOr("readers", 2);
  if (!readers.ok() || *readers < 1) return Fail("--readers must be >= 1");
  options.readers = static_cast<int>(*readers);
  auto tenant_q = flags.GetIntOr("max_tenant_queue_ticks", 4096);
  auto global_q = flags.GetIntOr("max_global_queue_ticks", 1 << 20);
  if (!tenant_q.ok() || *tenant_q < 1 || !global_q.ok() || *global_q < 1) {
    return Fail("queue bounds must be >= 1");
  }
  options.max_tenant_queue_ticks = *tenant_q;
  options.max_global_queue_ticks = *global_q;
  auto refresh_ms = flags.GetIntOr("refresh_ms", 200);
  if (!refresh_ms.ok() || *refresh_ms < 0) {
    return Fail("--refresh_ms must be >= 0");
  }
  options.refresh_ms = *refresh_ms;
  const std::string port_file = flags.GetStringOr("port_file", "");

  if (flags.Has("watchdog_budget_ms")) {
    auto budget_ms = flags.GetIntOr("watchdog_budget_ms", 0);
    if (!budget_ms.ok() || *budget_ms <= 0) {
      return Fail("--watchdog_budget_ms must be > 0");
    }
    obs::WatchdogOptions watchdog_options;
    watchdog_options.default_budget_seconds =
        static_cast<double>(*budget_ms) / 1000.0;
    obs::StartWatchdog(watchdog_options);
    options.dispatch_budget_seconds = watchdog_options.default_budget_seconds;
  }

  obs::ScrapeServer scrape_server;
  if (flags.Has("metrics_port")) {
    auto metrics_port = flags.GetIntOr("metrics_port", 0);
    if (!metrics_port.ok() || *metrics_port < 0 || *metrics_port > 65535) {
      return Fail("--metrics_port must be in [0, 65535]");
    }
    obs::ScrapeServerOptions scrape_options;
    scrape_options.port = static_cast<int>(*metrics_port);
    scrape_options.port_file = flags.GetStringOr("metrics_port_file", "");
    std::string scrape_error;
    if (!scrape_server.Start(scrape_options, &scrape_error)) {
      return Fail("--metrics_port: " + scrape_error);
    }
    std::fprintf(stderr, "crserved: metrics on 127.0.0.1:%d/metrics\n",
                 scrape_server.port());
  } else if (flags.Has("metrics_port_file")) {
    return Fail("--metrics_port_file requires --metrics_port");
  }

  if (util::Status status = flags.CheckAllRead(); !status.ok()) {
    std::fprintf(stderr, "crserved: %s\n", status.ToString().c_str());
    return 2;
  }

  serve::ServeDaemon daemon(tenant_config, options);
  if (util::Status status = daemon.Start(); !status.ok()) {
    return Fail(status.ToString());
  }
  if (!port_file.empty()) {
    std::string write_error;
    if (!obs::AtomicWriteFile(port_file, std::to_string(daemon.port()) + "\n",
                              &write_error)) {
      return Fail("--port_file: " + write_error);
    }
  }
  std::fprintf(stderr, "crserved: ingest on 127.0.0.1:%d (readers=%d)\n",
               daemon.port(), options.readers);

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::fprintf(stderr, "crserved: draining...\n");
  daemon.Stop();
  const serve::DaemonStats stats = daemon.Stats();
  std::fprintf(stderr,
               "crserved: drained tenants=%lld ticks_ingested=%llu "
               "ticks_processed=%llu appends_accepted=%llu "
               "appends_rejected=%llu refreshes=%llu faults=%lld "
               "evictions=%lld\n",
               static_cast<long long>(daemon.registry().size()),
               static_cast<unsigned long long>(stats.ticks_ingested),
               static_cast<unsigned long long>(stats.ticks_processed),
               static_cast<unsigned long long>(stats.appends_accepted),
               static_cast<unsigned long long>(stats.appends_rejected),
               static_cast<unsigned long long>(stats.cover_refreshes),
               static_cast<long long>(daemon.registry().faults()),
               static_cast<long long>(daemon.registry().evictions()));
  if (stats.ticks_ingested != stats.ticks_processed) {
    std::fprintf(stderr, "crserved: DRAIN MISMATCH\n");
    return 1;
  }
  return 0;
}
