// Seeded fuzzing of the serving append path. Random raw appends go through
// serve::TenantRegistry for two tenants at once: counts anywhere from 0 to
// 1e15, runs of zero ticks, batch sizes 1-300, and ApplyPending and Evict
// at random points. The properties checked:
//   * after every ApplyPending that leaves a hot tenant, its tableau is
//     bitwise the tableau core::DiscoverTableau finds over the tenant's
//     applied log;
//   * after every append, the tenant's log is bitwise
//     series::EnforceDominance of all the raw ticks it was sent;
//   * nothing crashes or reads out of bounds (the asan_tenant_append_fuzz
//     ctest entry runs this binary under AddressSanitizer).
// Seeds and iteration budgets are fixed, so every run sees the same inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/confidence.h"
#include "core/tableau.h"
#include "serve/tenant_registry.h"
#include "series/cumulative.h"
#include "series/preprocess.h"
#include "series/sequence.h"
#include "util/random.h"

namespace conservation {
namespace {

constexpr int kAppendsPerSeed = 60;
constexpr uint64_t kTenants = 2;

bool SameBits(double lhs, double rhs) {
  return std::memcmp(&lhs, &rhs, sizeof(double)) == 0;
}

// One raw count: an exact zero, a small integer, or a log-uniform
// magnitude up to 1e15 (integral or not).
double RandomCount(util::Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return 0.0;
    case 1:
      return static_cast<double>(rng.UniformInt(1, 9));
    case 2:
      return std::floor(std::pow(10.0, rng.Uniform(0.0, 15.0)));
    default:
      return std::pow(10.0, rng.Uniform(-3.0, 15.0));
  }
}

// A batch of 1-300 raw ticks, sometimes a run of zeros on one or both
// sides.
void RandomBatch(util::Rng& rng, std::vector<double>* a,
                 std::vector<double>* b) {
  const int64_t m = rng.UniformInt(1, 300);
  const int64_t zero_kind = rng.UniformInt(0, 5);  // 0..2 zero runs
  a->clear();
  b->clear();
  for (int64_t k = 0; k < m; ++k) {
    a->push_back(zero_kind == 0 || zero_kind == 1 ? 0.0 : RandomCount(rng));
    b->push_back(zero_kind == 0 || zero_kind == 2 ? 0.0 : RandomCount(rng));
  }
}

void ExpectLogIsFilteredRaw(const serve::Tenant& tenant,
                            const std::vector<double>& raw_a,
                            const std::vector<double>& raw_b,
                            const std::string& context) {
  ASSERT_EQ(tenant.log_a.size(), raw_a.size()) << context;
  auto raw = series::CountSequence::Create(raw_a, raw_b);
  if (!raw.ok()) return;  // a side still all zero: no batch form to compare
  const series::CountSequence filtered = series::EnforceDominance(raw.value());
  for (size_t k = 0; k < raw_a.size(); ++k) {
    ASSERT_TRUE(SameBits(tenant.log_a[k], filtered.outbound()[k]))
        << context << " a tick " << k;
    ASSERT_TRUE(SameBits(tenant.log_b[k], filtered.inbound()[k]))
        << context << " b tick " << k;
  }
}

void ExpectTableauMatchesFresh(const serve::Tenant& tenant,
                               const core::TableauRequest& request,
                               const std::string& context) {
  const size_t applied = static_cast<size_t>(tenant.applied_ticks());
  auto counts = series::CountSequence::Create(
      std::vector<double>(tenant.log_a.begin(), tenant.log_a.begin() + applied),
      std::vector<double>(tenant.log_b.begin(),
                          tenant.log_b.begin() + applied));
  ASSERT_TRUE(counts.ok()) << context;
  const series::CumulativeSeries cumulative(counts.value());
  const core::ConfidenceEvaluator eval(&cumulative, request.model);
  auto fresh = core::DiscoverTableau(eval, request);
  ASSERT_TRUE(fresh.ok()) << context;

  const core::Tableau& live = tenant.session->tableau();
  ASSERT_EQ(live.rows.size(), fresh->rows.size()) << context;
  for (size_t r = 0; r < live.rows.size(); ++r) {
    EXPECT_EQ(live.rows[r].interval, fresh->rows[r].interval)
        << context << " row " << r;
    EXPECT_TRUE(SameBits(live.rows[r].confidence, fresh->rows[r].confidence))
        << context << " row " << r;
  }
  EXPECT_EQ(live.covered, fresh->covered) << context;
  EXPECT_EQ(live.required, fresh->required) << context;
  EXPECT_EQ(live.support_satisfied, fresh->support_satisfied) << context;
  EXPECT_EQ(live.num_candidates, fresh->num_candidates) << context;
}

// Requests the fuzzer rotates through: the serving default (AB-opt) under
// each model and type, plain AB, and the right-anchored NAB-opt (balance
// only).
core::TableauRequest RequestForSeed(uint64_t seed) {
  core::TableauRequest request;
  request.algorithm = interval::AlgorithmKind::kAreaBasedOpt;
  request.s_hat = 0.3;
  request.epsilon = 0.1;
  switch (seed % 5) {
    case 0:
      request.type = core::TableauType::kFail;
      request.c_hat = 0.5;
      break;
    case 1:
      request.model = core::ConfidenceModel::kCredit;
      request.type = core::TableauType::kFail;
      request.c_hat = 0.6;
      break;
    case 2:
      request.model = core::ConfidenceModel::kDebit;
      request.c_hat = 0.8;
      break;
    case 3:
      request.algorithm = interval::AlgorithmKind::kAreaBased;
      request.type = core::TableauType::kFail;
      request.c_hat = 0.4;
      break;
    default:
      request.algorithm = interval::AlgorithmKind::kNonAreaBasedOpt;
      request.c_hat = 0.9;
      break;
  }
  return request;
}

class TenantAppendFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TenantAppendFuzz, TableauAndLogMatchBatchOracles) {
  const uint64_t seed = GetParam();
  util::Rng rng(seed);
  serve::TenantConfig config;
  config.request = RequestForSeed(seed);
  serve::TenantRegistry registry(config);

  std::vector<double> raw_a[kTenants];
  std::vector<double> raw_b[kTenants];
  std::vector<double> a;
  std::vector<double> b;
  int64_t tableaux_checked = 0;
  for (int step = 0; step < kAppendsPerSeed; ++step) {
    const uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, kTenants - 1));
    serve::Tenant& tenant = registry.GetOrCreate(id);
    const std::string context = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) + " tenant " +
                                std::to_string(id);

    RandomBatch(rng, &a, &b);
    ASSERT_TRUE(
        registry.Enqueue(tenant, a.data(), b.data(),
                         static_cast<int64_t>(a.size()))
            .ok())
        << context;
    raw_a[id].insert(raw_a[id].end(), a.begin(), a.end());
    raw_b[id].insert(raw_b[id].end(), b.begin(), b.end());
    ExpectLogIsFilteredRaw(tenant, raw_a[id], raw_b[id], context);

    if (rng.Bernoulli(0.7)) {
      registry.ApplyPending(tenant);
      if (tenant.session != nullptr) {
        ExpectTableauMatchesFresh(tenant, config.request, context);
        ++tableaux_checked;
      }
    }
    if (tenant.session != nullptr && rng.Bernoulli(0.15)) {
      // The re-fault on the next dispatch rebuilds the session from the
      // log.
      registry.Evict(tenant);
    }
  }
  // Drain both tenants and check the final state once more.
  for (uint64_t id = 0; id < kTenants; ++id) {
    serve::Tenant& tenant = registry.GetOrCreate(id);
    registry.ApplyPending(tenant);
    if (tenant.session == nullptr) continue;
    ExpectTableauMatchesFresh(tenant, config.request,
                              "seed " + std::to_string(seed) + " final tenant " +
                                  std::to_string(id));
    ++tableaux_checked;
  }
  EXPECT_GT(tableaux_checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TenantAppendFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace conservation
