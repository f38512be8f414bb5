// Differential tests for incremental tableau maintenance: after every
// AppendBatch the maintained tableau must be bit-identical to a from-scratch
// DiscoverTableau over the full series (rows, covered, required,
// support_satisfied, num_candidates — the exactness contract of
// incr/incremental.h), across all five generators, models, tableau types and
// batch patterns. The fresh side deliberately rotates thread count x
// largest-first early exit per batch: those knobs are output-invariant by
// contract, so the incremental engine (sequential) must match every
// configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "incr/incremental.h"
#include "incr/stream_session.h"
#include "interval/generator.h"
#include "series/cumulative.h"
#include "series/sequence.h"
#include "tests/test_data.h"

namespace conservation {
namespace {

using core::ConfidenceModel;
using core::Tableau;
using core::TableauRequest;
using core::TableauType;
using incr::IncrementalDiscoverer;
using interval::AlgorithmKind;

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectSameTableau(const Tableau& incremental, const Tableau& fresh,
                       const std::string& context) {
  ASSERT_EQ(incremental.rows.size(), fresh.rows.size()) << context;
  for (size_t r = 0; r < fresh.rows.size(); ++r) {
    EXPECT_EQ(incremental.rows[r].interval.begin, fresh.rows[r].interval.begin)
        << context << " row " << r;
    EXPECT_EQ(incremental.rows[r].interval.end, fresh.rows[r].interval.end)
        << context << " row " << r;
    EXPECT_TRUE(SameBits(incremental.rows[r].confidence,
                         fresh.rows[r].confidence))
        << context << " row " << r << " conf "
        << incremental.rows[r].confidence << " vs "
        << fresh.rows[r].confidence;
  }
  EXPECT_EQ(incremental.covered, fresh.covered) << context;
  EXPECT_EQ(incremental.required, fresh.required) << context;
  EXPECT_EQ(incremental.support_satisfied, fresh.support_satisfied) << context;
  EXPECT_EQ(incremental.num_candidates, fresh.num_candidates) << context;
}

// Replays `counts` through an IncrementalDiscoverer in batches of
// `batch_size` (0 = one batch with everything) after an initial prefix,
// comparing against DiscoverTableau over each prefix with rotating
// output-invariant fresh-side knobs.
void RunReplay(const series::CountSequence& counts, TableauRequest request,
               int64_t initial_n, int64_t batch_size,
               const std::string& context) {
  request.num_threads = 1;
  auto discoverer =
      IncrementalDiscoverer::Create(counts.Prefix(initial_n), request);
  ASSERT_TRUE(discoverer.ok()) << discoverer.status().message() << context;

  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  int64_t at = initial_n;
  int batch_index = 0;
  while (true) {
    // Fresh recompute over the same prefix, with contract-invariant knobs
    // rotated so every four batches cover threads {1, 4} x largest-first
    // {off, on}.
    const series::CumulativeSeries cumulative(counts.Prefix(at));
    const core::ConfidenceEvaluator eval(&cumulative, request.model);
    TableauRequest fresh_request = request;
    fresh_request.num_threads = (batch_index % 2 == 0) ? 1 : 4;
    fresh_request.largest_first_early_exit = (batch_index / 2) % 2 == 1;
    const auto fresh = core::DiscoverTableau(eval, fresh_request);
    ASSERT_TRUE(fresh.ok()) << fresh.status().message() << context;
    ExpectSameTableau(discoverer->tableau(), fresh.value(),
                      context + " n=" + std::to_string(at));
    if (::testing::Test::HasFailure()) return;  // one replay, first divergence

    if (at >= counts.n()) break;
    const int64_t m = batch_size == 0
                          ? counts.n() - at
                          : std::min<int64_t>(batch_size, counts.n() - at);
    discoverer->AppendBatch(a.data() + at, b.data() + at, m);
    at += m;
    ++batch_index;
  }
  EXPECT_EQ(discoverer->n(), counts.n()) << context;
  EXPECT_GT(discoverer->stats().batches, 0) << context;
}

class IncrDifferential : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(IncrDifferential, MatchesFreshDiscoveryAcrossBatchPatterns) {
  const AlgorithmKind kind = GetParam();
  const bool nab = kind == AlgorithmKind::kNonAreaBased ||
                   kind == AlgorithmKind::kNonAreaBasedOpt;
  const int64_t total_n = 140;
  const int64_t initial_n = 35;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/2026, total_n);

  for (const ConfidenceModel model :
       {ConfidenceModel::kBalance, ConfidenceModel::kCredit,
        ConfidenceModel::kDebit}) {
    if (nab && model != ConfidenceModel::kBalance) continue;
    for (const TableauType type : {TableauType::kHold, TableauType::kFail}) {
      const series::CumulativeSeries cumulative(counts);
      const core::ConfidenceEvaluator eval(&cumulative, model);
      const double overall = eval.Confidence(1, counts.n()).value_or(0.5);

      TableauRequest request;
      request.algorithm = kind;
      request.model = model;
      request.type = type;
      request.c_hat = type == TableauType::kHold
                          ? std::min(1.0, overall * 0.9 + 0.1)
                          : overall * 0.75;
      request.s_hat = 0.4;
      request.epsilon = 0.05;

      for (const int64_t batch_size : {int64_t{1}, int64_t{3}, int64_t{7},
                                       int64_t{64}, int64_t{0}}) {
        const std::string context =
            std::string(" [model=") + core::ConfidenceModelName(model) +
            " type=" + core::TableauTypeName(type) +
            " batch=" + std::to_string(batch_size) + "]";
        RunReplay(counts, request, initial_n, batch_size, context);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, IncrDifferential,
    ::testing::Values(AlgorithmKind::kExhaustive, AlgorithmKind::kAreaBased,
                      AlgorithmKind::kAreaBasedOpt,
                      AlgorithmKind::kNonAreaBased,
                      AlgorithmKind::kNonAreaBasedOpt),
    [](const ::testing::TestParamInfo<AlgorithmKind>& info) {
      return std::string(interval::AlgorithmKindName(info.param));
    });

TEST(IncrementalDiscoverer, RejectsStopOnFullCover) {
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/7, 40);
  TableauRequest request;
  request.stop_on_full_cover = true;
  const auto result = IncrementalDiscoverer::Create(counts, request);
  EXPECT_FALSE(result.ok());
}

// Delta decreasing mid-stream (a later batch introduces a smaller positive
// count) re-levels the AB/AB-opt threshold ladders; the engine must detect
// it, rebuild, and still match a fresh run.
TEST(IncrementalDiscoverer, DeltaDecreaseForcesRebuildAndStaysIdentical) {
  std::vector<double> a;
  std::vector<double> b;
  for (int t = 0; t < 30; ++t) {
    a.push_back(2.0);
    b.push_back(4.0);
  }
  // The appended suffix introduces count 1 < delta=2.
  std::vector<double> a2 = {1.0, 2.0, 0.0, 2.0, 1.0, 2.0};
  std::vector<double> b2 = {4.0, 4.0, 2.0, 4.0, 4.0, 2.0};

  for (const AlgorithmKind kind :
       {AlgorithmKind::kAreaBased, AlgorithmKind::kAreaBasedOpt}) {
    TableauRequest request;
    request.algorithm = kind;
    request.type = TableauType::kHold;
    request.c_hat = 0.6;
    request.s_hat = 0.5;
    request.epsilon = 0.1;

    auto initial = series::CountSequence::Create(a, b);
    ASSERT_TRUE(initial.ok());
    auto discoverer = IncrementalDiscoverer::Create(initial.value(), request);
    ASSERT_TRUE(discoverer.ok());
    discoverer->AppendBatch(a2, b2);
    EXPECT_EQ(discoverer->stats().full_rebuilds, 1)
        << interval::AlgorithmKindName(kind);

    std::vector<double> full_a = a;
    std::vector<double> full_b = b;
    full_a.insert(full_a.end(), a2.begin(), a2.end());
    full_b.insert(full_b.end(), b2.begin(), b2.end());
    auto full = series::CountSequence::Create(full_a, full_b);
    ASSERT_TRUE(full.ok());
    const series::CumulativeSeries cumulative(full.value());
    const core::ConfidenceEvaluator eval(&cumulative, request.model);
    const auto fresh = core::DiscoverTableau(eval, request);
    ASSERT_TRUE(fresh.ok());
    ExpectSameTableau(discoverer->tableau(), fresh.value(),
                      std::string(" delta-rebuild ") +
                          interval::AlgorithmKindName(kind));
  }
}

// A credit-model append that lowers old suffix-min gaps dirties exactly the
// affected anchors; they re-walk and the tableau stays identical.
TEST(IncrementalDiscoverer, CreditGapDropDirtiesAnchorsAndStaysIdentical) {
  std::vector<double> a;
  std::vector<double> b;
  for (int t = 0; t < 25; ++t) {
    a.push_back(1.0);
    b.push_back(3.0);
  }
  // Gap falls from 50 to 45: every old S_i above 45 changes.
  std::vector<double> a2 = {5.0, 1.0};
  std::vector<double> b2 = {0.0, 3.0};

  TableauRequest request;
  request.algorithm = AlgorithmKind::kAreaBased;
  request.model = ConfidenceModel::kCredit;
  request.type = TableauType::kFail;
  request.c_hat = 0.4;
  request.s_hat = 0.5;
  request.epsilon = 0.1;

  auto initial = series::CountSequence::Create(a, b);
  ASSERT_TRUE(initial.ok());
  auto discoverer = IncrementalDiscoverer::Create(initial.value(), request);
  ASSERT_TRUE(discoverer.ok());
  discoverer->AppendBatch(a2, b2);
  EXPECT_GT(discoverer->stats().dirty_anchors, 0);

  std::vector<double> full_a = a;
  std::vector<double> full_b = b;
  full_a.insert(full_a.end(), a2.begin(), a2.end());
  full_b.insert(full_b.end(), b2.begin(), b2.end());
  auto full = series::CountSequence::Create(full_a, full_b);
  ASSERT_TRUE(full.ok());
  const series::CumulativeSeries cumulative(full.value());
  const core::ConfidenceEvaluator eval(&cumulative, request.model);
  const auto fresh = core::DiscoverTableau(eval, request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(discoverer->tableau(), fresh.value(), " credit-dirty");
}

// AB-opt parks an anchor on its init search when the anchor's whole suffix
// area is still within Delta at the end of a batch (the search reaches n).
// Resumed, that search must settle against Delta itself, where a fresh
// walk settles, not against the chain's Delta (1 + epsilon) target. Every
// batch here drains its slack to zero and ends in ticks with a = 0, the
// last of them (0, 1); the next batch opens with (1.02, 1.02). A fail
// tableau's tail anchors thus have suffix area 0 <= Delta = 1 and a
// qualifying conf-0 interval up to the old n, and the opening tick moves
// their area into (Delta, Delta (1 + epsilon)] while their confidence
// stops qualifying: only a search against Delta keeps the old n as a
// breakpoint. The gap never falls below an old tail anchor's suffix
// minimum, so no credit/debit anchor is re-walked from scratch.
// Credit-model fail tableaux park these anchors on the zero search
// instead; the hold runs replay the same batches. AB replays them too: its
// ladder parks the same anchors on its zero and Delta levels.
TEST(IncrementalDiscoverer, AbOptInitParkedAnchorsResumeAcrossBatches) {
  constexpr int64_t kBatch = 16;
  constexpr int64_t kTail = 4;  // ticks with a = 0 after the drain
  util::Rng rng(/*seed=*/2027);
  std::vector<double> a;
  std::vector<double> b;
  double gap = 0.0;  // cumulative b - a
  for (int64_t t = 0; t < 8 * kBatch; ++t) {
    const int64_t pos = t % kBatch;
    double outbound = 0.0;
    double inbound = 0.0;
    if (pos == 0) {
      outbound = inbound = 1.02;
    } else if (pos < kBatch - kTail - 1) {
      inbound = static_cast<double>(rng.UniformInt(1, 5));
      outbound = static_cast<double>(
          rng.UniformInt(0, static_cast<int64_t>(inbound)));
    } else if (pos == kBatch - kTail - 1) {
      outbound = gap;  // drain: the tail anchors start at zero slack
    } else if (pos == kBatch - 1) {
      inbound = 1.0;
    }
    a.push_back(outbound);
    b.push_back(inbound);
    gap += inbound - outbound;
  }
  auto counts = series::CountSequence::Create(a, b);
  ASSERT_TRUE(counts.ok());

  for (const AlgorithmKind algorithm :
       {AlgorithmKind::kAreaBasedOpt, AlgorithmKind::kAreaBased}) {
    for (const ConfidenceModel model :
         {ConfidenceModel::kBalance, ConfidenceModel::kCredit,
          ConfidenceModel::kDebit}) {
      for (const TableauType type : {TableauType::kHold, TableauType::kFail}) {
        TableauRequest request;
        request.algorithm = algorithm;
        request.model = model;
        request.type = type;
        request.c_hat = type == TableauType::kHold ? 0.9 : 0.2;
        request.s_hat = 0.4;
        request.epsilon = 0.05;
        RunReplay(counts.value(), request, kBatch, kBatch,
                  std::string(" [init-park algorithm=") +
                      interval::AlgorithmKindName(algorithm) +
                      " model=" + core::ConfidenceModelName(model) +
                      " type=" + core::TableauTypeName(type) + "]");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// StreamSession drives the monitor and the discoverer off one ingest path.
TEST(StreamSession, FeedsBothPlanesAndMatchesFreshDiscovery) {
  const int64_t total_n = 120;
  const int64_t initial_n = 40;
  const series::CountSequence counts =
      testing_util::RandomDominatedCounts(/*seed=*/23, total_n);

  TableauRequest request;
  request.algorithm = AlgorithmKind::kNonAreaBased;
  request.epsilon = 0.05;
  request.s_hat = 0.4;
  stream::StreamOptions stream_options;
  stream_options.window = 16;

  auto session = incr::StreamSession::Create(counts.Prefix(initial_n), request,
                                             stream_options);
  ASSERT_TRUE(session.ok()) << session.status().message();
  EXPECT_EQ(session->monitor().ticks(), initial_n);

  const std::vector<double>& a = counts.outbound();
  const std::vector<double>& b = counts.inbound();
  for (int64_t at = initial_n; at < total_n; at += 16) {
    const int64_t m = std::min<int64_t>(16, total_n - at);
    session->ObserveBatch(a.data() + at, b.data() + at, m);
  }
  EXPECT_EQ(session->monitor().ticks(), total_n);
  EXPECT_EQ(session->n(), total_n);

  const series::CumulativeSeries cumulative(counts);
  const core::ConfidenceEvaluator eval(&cumulative, request.model);
  const auto fresh = core::DiscoverTableau(eval, request);
  ASSERT_TRUE(fresh.ok());
  ExpectSameTableau(session->tableau(), fresh.value(), " stream-session");
}

}  // namespace
}  // namespace conservation
