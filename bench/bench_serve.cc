// Many-tenant serving throughput/latency benchmark: an in-process
// ServeDaemon (src/serve/daemon.h) driven over real loopback sockets by a
// small pool of client threads, each blocking on append-to-ack round
// trips for its shard of tenants. Reports, per configuration:
//
//   * p50 / p99 append-to-ack latency (admission is O(1) under the daemon
//     mutex, so the ack RTT measures the ingest path, not tableau work);
//   * sustained processed ticks/sec over the whole run (ingest + drain —
//     every accepted tick applied to its tenant's stream session).
//
// Two pacing modes per row: "burst" (clients push as fast as acks come
// back — the capacity ceiling) and "paced" (clients hold each tenant to
// --rate ticks/sec — the serving SLO shape; the acceptance row is 1000
// tenants at 10 ticks/sec/tenant).
//
// Flags:
//   --tenants=N --ticks=T --batch=M --clients=C --rate=R   single row
//     (R=0 means burst); without --tenants a default sweep runs: burst
//     rows at 256/1000/4096/10000 tenants plus the paced acceptance row.
//   --readers=K         daemon reader threads (default = clients)
//   --max_hot=H         hot-session bound (default 0 = unbounded)
//   --check=1           gate: every accepted tick processed; paced rows
//                       kept pace within 25%; p99 > 0 reported
//   --max_p99_ms=B      additional p99 budget gate (0 = off)
//   --json=PATH         append machine-readable records (bench_diff.py)
//
// Methodology notes: latencies are collected per client thread (one
// steady_clock stamp around each blocking Append) and merged before the
// percentile cut; the tick data is a cheap deterministic LCG stream per
// tenant (the daemon's dominance filter normalizes it), so generation
// cost never shadows the serving path being measured.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "util/check.h"

namespace conservation {
namespace {

struct RowConfig {
  int64_t tenants = 0;
  int64_t ticks = 0;       // per tenant
  int64_t batch = 8;       // ticks per append frame
  int clients = 2;         // driver threads (one connection each)
  double rate = 0.0;       // target ticks/sec/tenant; 0 = burst
};

struct RowResult {
  double wall_seconds = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ticks_per_sec = 0.0;
  int64_t ticks_total = 0;
  int64_t rejected = 0;
  int64_t faults = 0;
  int64_t evictions = 0;
};

// Deterministic per-tenant tick stream: varied positive counts with b
// mostly dominating a (the registry's filter makes any residue valid).
void FillTicks(uint64_t tenant_id, int64_t at, int64_t m, double* a,
               double* b) {
  uint64_t state = tenant_id * 2654435761ULL + 12345;
  for (int64_t k = 0; k < m; ++k) {
    const int64_t t = at + k;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double inbound = 1.0 + static_cast<double>((state >> 33) % 9);
    const double drain =
        static_cast<double>((tenant_id + static_cast<uint64_t>(t)) % 10) /
        10.0;
    b[k] = inbound;
    a[k] = inbound * drain;
  }
}

double PercentileMs(std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const size_t at = std::min(
      sorted_seconds.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_seconds.size())));
  return sorted_seconds[at] * 1000.0;
}

RowResult RunRow(const RowConfig& config, int readers, int64_t max_hot) {
  serve::TenantConfig tenant_config;
  tenant_config.request.type = core::TableauType::kFail;
  tenant_config.request.c_hat = 0.5;
  tenant_config.request.s_hat = 0.05;
  tenant_config.max_hot = max_hot;

  serve::DaemonOptions options;
  options.readers = readers;
  options.refresh_ms = 100;
  serve::ServeDaemon daemon(tenant_config, options);
  CR_CHECK(daemon.Start().ok());

  std::vector<std::vector<double>> latencies(
      static_cast<size_t>(config.clients));
  std::atomic<int64_t> rejected{0};
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> drivers;
  drivers.reserve(static_cast<size_t>(config.clients));
  for (int c = 0; c < config.clients; ++c) {
    drivers.emplace_back([&, c] {
      serve::ServeClient client;
      CR_CHECK(client.Connect(daemon.port()).ok());
      std::vector<double>& lat = latencies[static_cast<size_t>(c)];
      lat.reserve(static_cast<size_t>(
          (config.tenants / config.clients + 1) *
          (config.ticks / config.batch + 1)));
      std::vector<double> a(static_cast<size_t>(config.batch));
      std::vector<double> b(static_cast<size_t>(config.batch));
      // This thread's tenant shard, driven round-robin one batch per
      // visit so queues stay shallow and pacing applies shard-wide.
      std::vector<int64_t> sent;
      std::vector<uint64_t> ids;
      for (int64_t id = c; id < config.tenants; id += config.clients) {
        ids.push_back(static_cast<uint64_t>(id + 1));
        sent.push_back(0);
      }
      bool progress = true;
      while (progress) {
        progress = false;
        for (size_t s = 0; s < ids.size(); ++s) {
          const int64_t remaining = config.ticks - sent[s];
          if (remaining <= 0) continue;
          progress = true;
          const int64_t m = std::min(config.batch, remaining);
          if (config.rate > 0) {
            for (;;) {
              const double elapsed =
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
              if (static_cast<double>(sent[s]) <= config.rate * elapsed) {
                break;
              }
              std::this_thread::sleep_for(std::chrono::microseconds(500));
            }
          }
          FillTicks(ids[s], sent[s], m, a.data(), b.data());
          for (;;) {
            const auto t0 = std::chrono::steady_clock::now();
            auto ack = client.Append(ids[s], a.data(), b.data(), m);
            const auto t1 = std::chrono::steady_clock::now();
            CR_CHECK(ack.ok());
            lat.push_back(std::chrono::duration<double>(t1 - t0).count());
            if (ack->status == serve::AckStatus::kOk) break;
            CR_CHECK(ack->status == serve::AckStatus::kBackpressure);
            rejected.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          sent[s] += m;
        }
      }
    });
  }
  for (std::thread& thread : drivers) thread.join();
  daemon.DrainQueues();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const serve::DaemonStats stats = daemon.Stats();
  const int64_t expected = config.tenants * config.ticks;
  CR_CHECK(stats.ticks_ingested == static_cast<uint64_t>(expected));
  CR_CHECK(stats.ticks_processed == stats.ticks_ingested);

  RowResult result;
  result.wall_seconds = wall;
  result.ticks_total = expected;
  result.ticks_per_sec = wall > 0 ? static_cast<double>(expected) / wall : 0;
  result.rejected = rejected.load();
  result.faults = daemon.registry().faults();
  result.evictions = daemon.registry().evictions();
  std::vector<double> merged;
  for (const std::vector<double>& lat : latencies) {
    merged.insert(merged.end(), lat.begin(), lat.end());
  }
  std::sort(merged.begin(), merged.end());
  result.p50_ms = PercentileMs(merged, 0.50);
  result.p99_ms = PercentileMs(merged, 0.99);
  daemon.Stop();
  return result;
}

}  // namespace
}  // namespace conservation

int main(int argc, char** argv) {
  using namespace conservation;

  const int64_t flag_tenants = bench::IntFlag(argc, argv, "tenants", 0);
  const int64_t flag_ticks = bench::IntFlag(argc, argv, "ticks", 64);
  const int64_t flag_batch = bench::IntFlag(argc, argv, "batch", 8);
  const int64_t flag_clients = bench::IntFlag(argc, argv, "clients", 2);
  const double flag_rate = bench::DoubleFlag(argc, argv, "rate", 0.0);
  const int64_t readers =
      bench::IntFlag(argc, argv, "readers", flag_clients);
  const int64_t max_hot = bench::IntFlag(argc, argv, "max_hot", 0);
  const bool check = bench::IntFlag(argc, argv, "check", 0) != 0;
  const double max_p99_ms = bench::DoubleFlag(argc, argv, "max_p99_ms", 0.0);
  bench::BenchJson json = bench::BenchJson::FromArgs(argc, argv, "serve");

  std::vector<RowConfig> rows;
  if (flag_tenants > 0) {
    RowConfig row;
    row.tenants = flag_tenants;
    row.ticks = flag_ticks;
    row.batch = flag_batch;
    row.clients = static_cast<int>(flag_clients);
    row.rate = flag_rate;
    rows.push_back(row);
  } else {
    // Default sweep: burst capacity at increasing fleet sizes, then the
    // paced acceptance row (1000 tenants at 10 ticks/sec/tenant).
    for (const int64_t tenants : {256, 1000, 4096, 10000}) {
      RowConfig row;
      row.tenants = tenants;
      row.ticks = flag_ticks;
      row.batch = flag_batch;
      row.clients = static_cast<int>(flag_clients);
      rows.push_back(row);
    }
    RowConfig paced;
    paced.tenants = 1000;
    paced.ticks = 30;
    paced.batch = flag_batch;
    paced.clients = static_cast<int>(flag_clients);
    paced.rate = 10.0;
    rows.push_back(paced);
  }

  bench::PrintHeader("multi-tenant serving: append-to-ack latency and "
                     "sustained throughput");
  std::printf("%8s %6s %6s %8s %5s | %9s %9s %9s %11s %9s\n", "tenants",
              "ticks", "batch", "rate", "cli", "wall_s", "p50_ms", "p99_ms",
              "ticks/s", "rejected");
  bool ok = true;
  for (const RowConfig& row : rows) {
    const RowResult result =
        RunRow(row, static_cast<int>(readers), max_hot);
    const char* mode = row.rate > 0 ? "paced" : "burst";
    std::printf("%8lld %6lld %6lld %8.1f %5d | %9.3f %9.3f %9.3f %11.0f "
                "%9lld\n",
                static_cast<long long>(row.tenants),
                static_cast<long long>(row.ticks),
                static_cast<long long>(row.batch), row.rate, row.clients,
                result.wall_seconds, result.p50_ms, result.p99_ms,
                result.ticks_per_sec,
                static_cast<long long>(result.rejected));
    json.AddServe(row.tenants, mode, row.rate, row.clients, row.batch,
                  result.wall_seconds, result.p50_ms, result.p99_ms,
                  result.ticks_per_sec, result.ticks_total, result.rejected,
                  result.faults, result.evictions);
    if (check) {
      if (result.p99_ms <= 0.0) {
        std::fprintf(stderr, "CHECK FAILED: no p99 reported\n");
        ok = false;
      }
      if (row.rate > 0) {
        // Keeping pace: the ideal wall clock is ticks/rate; falling more
        // than 25% behind means the daemon cannot sustain the target.
        const double ideal =
            static_cast<double>(row.ticks) / row.rate;
        if (result.wall_seconds > ideal * 1.25) {
          std::fprintf(stderr,
                       "CHECK FAILED: paced row fell behind: wall %.2fs vs "
                       "ideal %.2fs (+25%% budget)\n",
                       result.wall_seconds, ideal);
          ok = false;
        }
      }
      if (max_p99_ms > 0 && result.p99_ms > max_p99_ms) {
        std::fprintf(stderr,
                     "CHECK FAILED: p99 %.3fms over budget %.3fms\n",
                     result.p99_ms, max_p99_ms);
        ok = false;
      }
    }
  }
  json.Flush();
  if (check && ok) std::printf("check: OK\n");
  return ok ? 0 : 1;
}
