// crserve_driver: replays a simulated node fleet into a running crserved.
//
// The first tenant population for the serving daemon: every link of every
// simulated node (src/network/simulator.h) becomes one tenant stream —
// outbound counts as a, inbound as b — driven over the loopback ingest
// socket in fixed-size tick batches, optionally paced to a target
// ticks/sec/tenant rate. Backpressure acks are honored by retrying the
// rejected batch after a short sleep.
//
// Usage:
//   crserve_driver --port=<p> | --port_file=<path>   (ingest endpoint)
//       --nodes=<n>           fleet size (default 8)
//       --bad_nodes=<n>       nodes with a hidden link (default 1)
//       --ticks=<t>           ticks per tenant to replay (default 512)
//       --batch=<m>           ticks per append frame (default 16)
//       --rate=<r>            ticks/sec/tenant pacing (default 0 = unpaced)
//       --seed=<s>            simulator seed (default 4242)
//
// Exits 0 when every tick was accepted and a final stats poll confirms the
// daemon processed at least this driver's tick volume. An unknown flag is
// an error (exit 2).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "network/simulator.h"
#include "serve/client.h"
#include "util/flags.h"
#include "util/status.h"

namespace {

using namespace conservation;

int Fail(const std::string& message) {
  std::fprintf(stderr, "crserve_driver: %s\n", message.c_str());
  return 1;
}

struct TenantStream {
  uint64_t id = 0;
  std::vector<double> a;
  std::vector<double> b;
  int64_t sent = 0;  // ticks appended so far
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  if (util::Status status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status.ToString());
  }

  auto port_flag = flags.GetIntOr("port", 0);
  if (!port_flag.ok()) return Fail(port_flag.status().ToString());
  int port = static_cast<int>(*port_flag);
  const std::string port_file = flags.GetStringOr("port_file", "");
  if (port == 0 && !port_file.empty()) {
    std::ifstream in(port_file);
    if (!in || !(in >> port)) {
      return Fail("cannot read port from " + port_file);
    }
  }
  if (port <= 0 || port > 65535) {
    return Fail("required: --port=<p> or --port_file=<path>");
  }

  auto nodes = flags.GetIntOr("nodes", 8);
  auto bad_nodes = flags.GetIntOr("bad_nodes", 1);
  auto ticks = flags.GetIntOr("ticks", 512);
  auto batch = flags.GetIntOr("batch", 16);
  auto rate = flags.GetDoubleOr("rate", 0.0);
  auto seed = flags.GetIntOr("seed", 4242);
  if (!nodes.ok() || *nodes < 1) return Fail("--nodes must be >= 1");
  if (!bad_nodes.ok() || *bad_nodes < 0) return Fail("--bad_nodes must be >= 0");
  if (!ticks.ok() || *ticks < 1) return Fail("--ticks must be >= 1");
  if (!batch.ok() || *batch < 1) return Fail("--batch must be >= 1");
  if (!rate.ok() || *rate < 0) return Fail("--rate must be >= 0");
  if (!seed.ok()) return Fail(seed.status().ToString());
  if (util::Status status = flags.CheckAllRead(); !status.ok()) {
    std::fprintf(stderr, "crserve_driver: %s\n", status.ToString().c_str());
    return 2;
  }

  // Build the tenant population: one tenant per observed link direction
  // pair (outbound = a, inbound = b).
  const std::vector<network::NodeSimResult> fleet = network::SimulateNodeFleet(
      static_cast<int>(*nodes), static_cast<int>(*bad_nodes), *ticks,
      static_cast<uint64_t>(*seed));
  std::vector<TenantStream> tenants;
  uint64_t next_id = 1;
  for (const network::NodeSimResult& node : fleet) {
    for (const network::LinkSeries& link : node.observed) {
      TenantStream tenant;
      tenant.id = next_id++;
      tenant.a = link.from_node;
      tenant.b = link.to_node;
      tenants.push_back(std::move(tenant));
    }
  }
  if (tenants.empty()) return Fail("fleet produced no links");
  std::fprintf(stderr, "crserve_driver: %zu tenants x %lld ticks -> port %d\n",
               tenants.size(), static_cast<long long>(*ticks), port);

  serve::ServeClient client;
  if (util::Status status = client.Connect(port); !status.ok()) {
    return Fail(status.ToString());
  }

  // Round-robin across tenants, one batch per visit, so every tenant's
  // queue stays shallow and pacing applies fleet-wide.
  const int64_t m = *batch;
  const double tick_rate = *rate;
  const auto start = std::chrono::steady_clock::now();
  int64_t total_sent = 0;
  int64_t rejected = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (TenantStream& tenant : tenants) {
      const int64_t remaining =
          static_cast<int64_t>(tenant.a.size()) - tenant.sent;
      if (remaining <= 0) continue;
      progress = true;
      const int64_t k = std::min(m, remaining);
      if (tick_rate > 0) {
        // Pace: do not run ahead of rate * elapsed ticks for this tenant.
        for (;;) {
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          if (static_cast<double>(tenant.sent) <= tick_rate * elapsed) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      for (;;) {
        auto ack = client.Append(tenant.id, tenant.a.data() + tenant.sent,
                                 tenant.b.data() + tenant.sent, k);
        if (!ack.ok()) return Fail(ack.status().ToString());
        if (ack->status == serve::AckStatus::kOk) break;
        if (ack->status == serve::AckStatus::kShuttingDown) {
          return Fail("daemon is shutting down");
        }
        if (ack->status == serve::AckStatus::kInvalid) {
          return Fail("daemon rejected a batch as invalid");
        }
        ++rejected;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      tenant.sent += k;
      total_sent += k;
    }
  }

  auto stats = client.Stats();
  if (!stats.ok()) return Fail(stats.status().ToString());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::fprintf(stderr,
               "crserve_driver: sent %lld ticks in %.2fs (%.0f ticks/s, "
               "%lld backpressure retries); daemon ingested=%llu "
               "processed=%llu\n",
               static_cast<long long>(total_sent), elapsed,
               elapsed > 0 ? static_cast<double>(total_sent) / elapsed : 0.0,
               static_cast<long long>(rejected),
               static_cast<unsigned long long>(stats->ticks_ingested),
               static_cast<unsigned long long>(stats->ticks_processed));
  if (stats->ticks_ingested < static_cast<uint64_t>(total_sent)) {
    return Fail("daemon ingested fewer ticks than sent");
  }
  return 0;
}
