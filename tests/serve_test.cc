// Serving daemon tests: protocol framing, admission/backpressure, tenant
// eviction + re-fault identity, and clean drain — the per-component
// counterpart to the end-to-end tools/serve_soak.cc concurrency smoke.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/tenant_registry.h"
#include "series/cumulative.h"
#include "series/preprocess.h"
#include "series/sequence.h"
#include "tests/test_data.h"

namespace conservation {
namespace {

using serve::AckFrame;
using serve::AckStatus;
using serve::Frame;
using serve::FrameReader;
using serve::FrameType;

void ExpectSameTableau(const core::Tableau& lhs, const core::Tableau& rhs,
                       const std::string& context) {
  ASSERT_EQ(lhs.rows.size(), rhs.rows.size()) << context;
  for (size_t r = 0; r < rhs.rows.size(); ++r) {
    EXPECT_EQ(lhs.rows[r].interval.begin, rhs.rows[r].interval.begin)
        << context << " row " << r;
    EXPECT_EQ(lhs.rows[r].interval.end, rhs.rows[r].interval.end)
        << context << " row " << r;
    EXPECT_EQ(std::memcmp(&lhs.rows[r].confidence, &rhs.rows[r].confidence,
                          sizeof(double)),
              0)
        << context << " row " << r;
  }
  EXPECT_EQ(lhs.covered, rhs.covered) << context;
  EXPECT_EQ(lhs.required, rhs.required) << context;
  EXPECT_EQ(lhs.support_satisfied, rhs.support_satisfied) << context;
  EXPECT_EQ(lhs.num_candidates, rhs.num_candidates) << context;
}

// ---------------------------------------------------------------------------
// Protocol framing

TEST(Protocol, AppendRoundTripPreservesBits) {
  const std::vector<double> a = {1.5, 0.0, 3.25, 1e-300};
  const std::vector<double> b = {2.5, 1.0, 3.25, 7.75};
  std::string wire;
  serve::EncodeAppend(0xdeadbeefcafeULL, a.data(), b.data(), 4, &wire);

  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_TRUE(reader.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kAppend);
  EXPECT_EQ(frame.append.tenant_id, 0xdeadbeefcafeULL);
  ASSERT_EQ(frame.append.a.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(std::memcmp(&frame.append.a[k], &a[k], sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&frame.append.b[k], &b[k], sizeof(double)), 0);
  }
  EXPECT_FALSE(reader.Next(&frame));  // exactly one frame
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Protocol, ByteAtATimeFeedingDecodesIdentically) {
  std::string wire;
  serve::EncodePing(&wire);
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {3.0, 4.0};
  serve::EncodeAppend(42, a.data(), b.data(), 2, &wire);
  AckFrame ack;
  ack.tenant_id = 42;
  ack.status = AckStatus::kBackpressure;
  ack.accepted_ticks = 0;
  ack.queued_ticks = 17;
  serve::EncodeAck(ack, &wire);

  FrameReader reader;
  std::vector<FrameType> seen;
  Frame frame;
  for (char byte : wire) {
    reader.Feed(&byte, 1);
    while (reader.Next(&frame)) seen.push_back(frame.type);
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], FrameType::kPing);
  EXPECT_EQ(seen[1], FrameType::kAppend);
  EXPECT_EQ(seen[2], FrameType::kAck);
  EXPECT_EQ(frame.ack.status, AckStatus::kBackpressure);
  EXPECT_EQ(frame.ack.queued_ticks, 17u);

  std::string invalid_wire;
  ack.status = AckStatus::kInvalid;
  serve::EncodeAck(ack, &invalid_wire);
  FrameReader invalid_reader;
  invalid_reader.Feed(invalid_wire.data(), invalid_wire.size());
  ASSERT_TRUE(invalid_reader.Next(&frame));
  EXPECT_EQ(frame.ack.status, AckStatus::kInvalid);
  EXPECT_STREQ(serve::AckStatusName(AckStatus::kInvalid), "invalid");
}

TEST(Protocol, StatsReplyRoundTrip) {
  serve::StatsReplyFrame stats;
  stats.tenants = 1000;
  stats.ticks_ingested = 1234567890123ULL;
  stats.ticks_processed = 1234567890000ULL;
  stats.batches_rejected = 7;
  std::string wire;
  serve::EncodeStatsReply(stats, &wire);
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_TRUE(reader.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kStatsReply);
  EXPECT_EQ(frame.stats.tenants, 1000u);
  EXPECT_EQ(frame.stats.ticks_ingested, 1234567890123ULL);
  EXPECT_EQ(frame.stats.ticks_processed, 1234567890000ULL);
  EXPECT_EQ(frame.stats.batches_rejected, 7u);
}

TEST(Protocol, OversizedFramePoisonsReader) {
  std::string wire;
  const uint32_t huge = serve::kMaxFramePayload + 1;
  wire.push_back(static_cast<char>(huge & 0xff));
  wire.push_back(static_cast<char>((huge >> 8) & 0xff));
  wire.push_back(static_cast<char>((huge >> 16) & 0xff));
  wire.push_back(static_cast<char>((huge >> 24) & 0xff));
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_FALSE(reader.Next(&frame));
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("length"), std::string::npos);
  // Poisoned for good: further feeds/nexts stay failed.
  std::string ping;
  serve::EncodePing(&ping);
  reader.Feed(ping.data(), ping.size());
  EXPECT_FALSE(reader.Next(&frame));
  EXPECT_TRUE(reader.failed());
}

TEST(Protocol, MalformedBodiesAreViolations) {
  // Append whose body says 3 ticks but carries bytes for 2.
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {4, 5, 6};
  std::string wire;
  serve::EncodeAppend(1, a.data(), b.data(), 3, &wire);
  // Truncate the payload by one tick pair and patch the length prefix.
  wire.resize(wire.size() - 16);
  const uint32_t payload = static_cast<uint32_t>(wire.size() - 4);
  wire[0] = static_cast<char>(payload & 0xff);
  wire[1] = static_cast<char>((payload >> 8) & 0xff);
  wire[2] = static_cast<char>((payload >> 16) & 0xff);
  wire[3] = static_cast<char>((payload >> 24) & 0xff);
  FrameReader reader;
  reader.Feed(wire.data(), wire.size());
  Frame frame;
  EXPECT_FALSE(reader.Next(&frame));
  EXPECT_TRUE(reader.failed());

  // Unknown frame type.
  std::string bad = std::string("\x01\x00\x00\x00", 4) + '\x63';
  FrameReader reader2;
  reader2.Feed(bad.data(), bad.size());
  EXPECT_FALSE(reader2.Next(&frame));
  EXPECT_TRUE(reader2.failed());
  EXPECT_NE(reader2.error().find("unknown frame type"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Dominance filter

TEST(DominanceFilter, StreamingMatchesBatchEnforceDominanceBitwise) {
  // Raw counts where a overruns b in places (dominance violated).
  std::vector<double> raw_a = {5, 0, 3, 7,   0, 2.25, 9, 1};
  std::vector<double> raw_b = {1, 4, 3, 0.5, 6, 2.25, 2, 8};
  auto counts = series::CountSequence::Create(raw_a, raw_b);
  ASSERT_TRUE(counts.ok());
  const series::CountSequence batch = series::EnforceDominance(counts.value());

  serve::DominanceFilter filter;
  for (size_t k = 0; k < raw_a.size(); ++k) {
    double fa = raw_a[k];
    double fb = raw_b[k];
    filter.Apply(&fa, &fb);
    EXPECT_EQ(std::memcmp(&fa, &batch.outbound()[k], sizeof(double)), 0)
        << "tick " << k;
    EXPECT_EQ(std::memcmp(&fb, &batch.inbound()[k], sizeof(double)), 0)
        << "tick " << k;
  }
}

// ---------------------------------------------------------------------------
// Daemon end to end (loopback sockets)

serve::TenantConfig TestTenantConfig() {
  serve::TenantConfig config;
  config.request.type = core::TableauType::kFail;
  config.request.c_hat = 0.5;
  config.request.s_hat = 0.05;
  return config;
}

TEST(ServeDaemon, ProtocolOverSocketMatchesFreshDiscovery) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;  // deterministic: no background sweeps

  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/5, 96);
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  for (int64_t at = 0; at < counts.n(); at += 12) {
    const int64_t m = std::min<int64_t>(12, counts.n() - at);
    auto ack = client.Append(7, a.data() + at, b.data() + at, m);
    ASSERT_TRUE(ack.ok()) << ack.status().message();
    EXPECT_EQ(ack->status, AckStatus::kOk);
    EXPECT_EQ(ack->accepted_ticks, static_cast<uint32_t>(m));
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tenants, 1u);
  EXPECT_EQ(stats->ticks_ingested, static_cast<uint64_t>(counts.n()));

  daemon.DrainQueues();
  serve::Tenant* tenant = daemon.registry().Find(7);
  ASSERT_NE(tenant, nullptr);
  ASSERT_NE(tenant->session, nullptr);

  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  auto fresh = core::DiscoverTableau(eval, TestTenantConfig().request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(tenant->session->tableau(), fresh.value(),
                    " socket-replay");
  daemon.Stop();
}

TEST(ServeDaemon, BackpressureRejectsOverfullTenantQueue) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  options.max_tenant_queue_ticks = 8;  // tiny: second append must bounce
                                       // while the first is still queued
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  std::vector<double> a(8, 1.0);
  std::vector<double> b(8, 2.0);

  // Saturate: keep appending until a backpressure ack arrives. The
  // dispatcher is draining concurrently, so acceptance counts vary, but
  // with an 8-tick bound and 8-tick appends a rejection must occur well
  // within the attempt budget on any scheduling.
  bool saw_backpressure = false;
  for (int attempt = 0; attempt < 10000 && !saw_backpressure; ++attempt) {
    auto ack = client.Append(1, a.data(), b.data(), 8);
    ASSERT_TRUE(ack.ok()) << ack.status().message();
    if (ack->status == AckStatus::kBackpressure) {
      saw_backpressure = true;
      EXPECT_EQ(ack->accepted_ticks, 0u);
    }
  }
  EXPECT_TRUE(saw_backpressure);

  // An append larger than the per-tenant bound can never be admitted.
  std::vector<double> big_a(9, 1.0);
  std::vector<double> big_b(9, 2.0);
  auto ack = client.Append(2, big_a.data(), big_b.data(), 9);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status, AckStatus::kBackpressure);

  daemon.Stop();
  const serve::DaemonStats final_stats = daemon.Stats();
  EXPECT_GT(final_stats.appends_rejected, 0u);
  EXPECT_EQ(final_stats.ticks_ingested, final_stats.ticks_processed);
}

// A frame carrying a NaN, infinite or negative count is refused with
// kInvalid. Only that frame is dropped: the connection, the tenant's
// earlier and later appends, and other tenants are unaffected, so the
// tenant's tableau still matches from-scratch discovery over the valid
// ticks bit for bit.
TEST(ServeDaemon, InvalidCountsRejectedPerFrame) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());
  obs::Counter& nonfinite = obs::LabeledCounter("serve.invalid_frames")
                                .With({{"reason", "nonfinite"}});
  obs::Counter& negative = obs::LabeledCounter("serve.invalid_frames")
                               .With({{"reason", "negative"}});
  const uint64_t nonfinite_before = nonfinite.Value();
  const uint64_t negative_before = negative.Value();

  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/13, 64);
  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  auto ack = client.Append(7, a.data(), b.data(), 32);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->status, AckStatus::kOk);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double bad[][2] = {{nan, 1.0}, {1.0, inf}, {-1.0, 0.0}};
  for (const auto& tick : bad) {
    for (const uint64_t tenant : {uint64_t{7}, uint64_t{8}}) {
      ack = client.Append(tenant, &tick[0], &tick[1], 1);
      ASSERT_TRUE(ack.ok()) << ack.status().message();
      EXPECT_EQ(ack->status, AckStatus::kInvalid);
      EXPECT_EQ(ack->accepted_ticks, 0u);
    }
  }
  EXPECT_EQ(daemon.registry().Find(8), nullptr);  // never created

  ack = client.Append(7, a.data() + 32, b.data() + 32, 32);
  ASSERT_TRUE(ack.ok()) << ack.status().message();
  ASSERT_EQ(ack->status, AckStatus::kOk);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ticks_ingested, static_cast<uint64_t>(counts.n()));

  daemon.DrainQueues();
  serve::Tenant* tenant = daemon.registry().Find(7);
  ASSERT_NE(tenant, nullptr);
  ASSERT_NE(tenant->session, nullptr);
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  auto fresh = core::DiscoverTableau(eval, TestTenantConfig().request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(tenant->session->tableau(), fresh.value(),
                    " invalid-frames");

  daemon.Stop();
  EXPECT_EQ(daemon.Stats().appends_invalid, 6u);
  EXPECT_EQ(daemon.Stats().appends_rejected, 0u);
  EXPECT_EQ(nonfinite.Value() - nonfinite_before, 4u);
  EXPECT_EQ(negative.Value() - negative_before, 2u);
}

// The library ingest path validates too: TenantRegistry::Enqueue refuses a
// batch with a NaN, infinite or negative count before it touches the
// dominance filter, the log or the queue. Unvalidated, a NaN would poison
// the filter's running totals and abort ApplyPending in the streaming
// monitor. A refused batch leaves no trace, so later valid appends still
// match from-scratch discovery bit for bit.
TEST(TenantRegistry, EnqueueRefusesInvalidCountsWithoutSideEffects) {
  serve::TenantRegistry registry(TestTenantConfig());
  serve::Tenant& tenant = registry.GetOrCreate(7);
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/13, 64);
  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  ASSERT_TRUE(registry.Enqueue(tenant, a.data(), b.data(), 32).ok());
  registry.ApplyPending(tenant);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double bad[][2] = {{nan, 1.0}, {1.0, inf}, {-1.0, 0.0}};
  for (const auto& tick : bad) {
    // Alone, and as the last tick of an otherwise valid batch.
    std::vector<double> batch_a(a.begin() + 32, a.begin() + 36);
    std::vector<double> batch_b(b.begin() + 32, b.begin() + 36);
    batch_a.push_back(tick[0]);
    batch_b.push_back(tick[1]);
    for (const size_t skip : {size_t{4}, size_t{0}}) {
      const serve::DominanceFilter filter_before = tenant.filter;
      const std::vector<double> log_a_before = tenant.log_a;
      const std::vector<double> log_b_before = tenant.log_b;
      const util::Status status =
          registry.Enqueue(tenant, batch_a.data() + skip,
                           batch_b.data() + skip,
                           static_cast<int64_t>(batch_a.size() - skip));
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
          << tick[0] << "," << tick[1] << " skip=" << skip;
      EXPECT_TRUE(tenant.filter == filter_before);
      EXPECT_EQ(tenant.log_a, log_a_before);
      EXPECT_EQ(tenant.log_b, log_b_before);
      EXPECT_TRUE(tenant.pend_a.empty());
      EXPECT_TRUE(tenant.pend_b.empty());
      EXPECT_EQ(registry.ApplyPending(tenant), 0);
    }
  }

  ASSERT_TRUE(registry.Enqueue(tenant, a.data() + 32, b.data() + 32, 32).ok());
  EXPECT_EQ(registry.ApplyPending(tenant), 32);
  ASSERT_NE(tenant.session, nullptr);
  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative,
                                       core::ConfidenceModel::kBalance);
  auto fresh = core::DiscoverTableau(eval, TestTenantConfig().request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(tenant.session->tableau(), fresh.value(),
                    " registry-invalid");
}

// Sessions start on a tenant's first append, so a request they would
// refuse must stop the process when the registry is built, not when the
// first client sends data.
TEST(TenantRegistry, ConstructionRefusesInvalidRequest) {
  serve::TenantConfig config = TestTenantConfig();
  config.request.c_hat = 2.0;
  EXPECT_DEATH(serve::TenantRegistry registry(config),
               "ValidateTableauRequest");
}

TEST(ServeDaemon, EvictionAndRefaultPreserveTableauBitwise) {
  serve::TenantConfig config = TestTenantConfig();
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  serve::ServeDaemon daemon(config, options);
  ASSERT_TRUE(daemon.Start().ok());

  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/11, 80);
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  // First half, then evict, then second half — the re-faulted session must
  // land exactly where an always-hot one would.
  auto ack = client.Append(3, a.data(), b.data(), 40);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->status, AckStatus::kOk);
  daemon.DrainQueues();

  serve::Tenant* tenant = daemon.registry().Find(3);
  ASSERT_NE(tenant, nullptr);
  ASSERT_NE(tenant->session, nullptr);
  daemon.registry().Evict(*tenant);
  EXPECT_EQ(tenant->session, nullptr);

  ack = client.Append(3, a.data() + 40, b.data() + 40, 40);
  ASSERT_TRUE(ack.ok());
  ASSERT_EQ(ack->status, AckStatus::kOk);
  daemon.DrainQueues();
  ASSERT_NE(tenant->session, nullptr);  // faulted back up

  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative, config.request.model);
  auto fresh = core::DiscoverTableau(eval, config.request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(tenant->session->tableau(), fresh.value(),
                    " evict-refault");
  EXPECT_EQ(daemon.registry().evictions(), 1);
  EXPECT_EQ(daemon.registry().faults(), 2);
  daemon.Stop();
}

TEST(ServeDaemon, StopDrainsEverythingAccepted) {
  serve::DaemonOptions options;
  options.refresh_ms = 5;
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  std::vector<double> a(4, 1.0);
  std::vector<double> b(4, 2.5);
  uint64_t accepted_ticks = 0;
  for (int i = 0; i < 200; ++i) {
    auto ack = client.Append(1 + (i % 16), a.data(), b.data(), 4);
    ASSERT_TRUE(ack.ok());
    if (ack->status == AckStatus::kOk) accepted_ticks += 4;
  }
  daemon.Stop();  // drains without waiting for the client to disconnect
  const serve::DaemonStats stats = daemon.Stats();
  EXPECT_EQ(stats.ticks_ingested, accepted_ticks);
  EXPECT_EQ(stats.ticks_processed, accepted_ticks);
  for (auto& [id, tenant] : daemon.registry().tenants()) {
    EXPECT_TRUE(tenant->pend_a.empty()) << "tenant " << id;
  }
}

// Every apply re-runs the tenant's cover before the worker releases the
// pin, so once DrainQueues returns every hot tableau is fresh with no sweep
// thread (refresh_ms = 0). Each tenant faults up on its first append and
// appends to its session on its second: every one of those dispatches
// counts one refresh and records one serve.cover_refresh_seconds sample.
TEST(ServeDaemon, TableauFreshWhenDispatchFinishes) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  constexpr uint64_t kTenants = 4;
  constexpr int64_t kTicks = 80;
  std::vector<series::CountSequence> counts;
  for (uint64_t id = 0; id < kTenants; ++id) {
    counts.push_back(
        testing_util::RandomDominatedCounts(/*seed=*/40 + id, kTicks));
  }
  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  auto append_half = [&](int64_t at) {
    for (uint64_t id = 0; id < kTenants; ++id) {
      auto ack = client.Append(id + 1, counts[id].outbound().data() + at,
                               counts[id].inbound().data() + at, kTicks / 2);
      ASSERT_TRUE(ack.ok()) << ack.status().message();
      ASSERT_EQ(ack->status, AckStatus::kOk);
    }
    daemon.DrainQueues();
  };
  append_half(0);  // fault-up: Create runs the cover
  if (HasFatalFailure()) return;
  EXPECT_EQ(daemon.Stats().batches_dispatched, kTenants);
  EXPECT_EQ(daemon.Stats().cover_refreshes, kTenants);
  // Looked up only now that the dispatches have registered them, so the
  // bounds read below are the daemon's.
  obs::Registry& registry = obs::Registry::Global();
  const obs::Histogram& dispatch_seconds =
      registry.Histogram("serve.dispatch_batch_seconds", {});
  const obs::Histogram& refresh_seconds =
      registry.Histogram("serve.cover_refresh_seconds", {});
  const uint64_t dispatched_before = dispatch_seconds.TotalCount();
  const uint64_t timed_before = refresh_seconds.TotalCount();
  const uint64_t counted_before =
      registry.Counter("serve.cover_refreshes").Value();
  append_half(kTicks / 2);
  if (HasFatalFailure()) return;

  for (uint64_t id = 0; id < kTenants; ++id) {
    serve::Tenant* tenant = daemon.registry().Find(id + 1);
    ASSERT_NE(tenant, nullptr);
    ASSERT_NE(tenant->session, nullptr);
    const series::CumulativeSeries cumulative(counts[id]);
    const core::ConfidenceEvaluator eval(&cumulative,
                                         core::ConfidenceModel::kBalance);
    auto fresh = core::DiscoverTableau(eval, TestTenantConfig().request);
    ASSERT_TRUE(fresh.ok());
    ExpectSameTableau(tenant->session->tableau(), fresh.value(),
                      " fresh-at-drain tenant " + std::to_string(id));
  }
  EXPECT_EQ(daemon.Stats().batches_dispatched, 2 * kTenants);
  EXPECT_EQ(daemon.Stats().cover_refreshes, 2 * kTenants);
  EXPECT_EQ(registry.Counter("serve.cover_refreshes").Value() -
                counted_before,
            kTenants);
  EXPECT_EQ(refresh_seconds.TotalCount() - timed_before, kTenants);
  EXPECT_EQ(dispatch_seconds.TotalCount() - dispatched_before, kTenants);
  EXPECT_FALSE(refresh_seconds.bounds().empty());
  EXPECT_EQ(refresh_seconds.bounds(), dispatch_seconds.bounds());
  daemon.Stop();
}

TEST(ServeDaemon, AllZeroTenantStaysPendingOnlyUntilValid) {
  serve::DaemonOptions options;
  options.refresh_ms = 0;
  serve::ServeDaemon daemon(TestTenantConfig(), options);
  ASSERT_TRUE(daemon.Start().ok());

  serve::ServeClient client;
  ASSERT_TRUE(client.Connect(daemon.port()).ok());
  std::vector<double> zero(6, 0.0);
  auto ack = client.Append(9, zero.data(), zero.data(), 6);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->status, AckStatus::kOk);  // accepted: the log is the truth
  daemon.DrainQueues();
  serve::Tenant* tenant = daemon.registry().Find(9);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->session, nullptr);  // all-zero: no session possible yet

  std::vector<double> a = {1.0, 0.5};
  std::vector<double> b = {2.0, 2.0};
  ack = client.Append(9, a.data(), b.data(), 2);
  ASSERT_TRUE(ack.ok());
  daemon.DrainQueues();
  ASSERT_NE(tenant->session, nullptr);  // first nonzero tick unlocked it
  EXPECT_EQ(tenant->session->n(), 8);   // zeros included in the series
  daemon.Stop();
}

}  // namespace
}  // namespace conservation
