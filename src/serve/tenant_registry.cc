#include "serve/tenant_registry.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "series/sequence.h"
#include "util/check.h"

namespace conservation::serve {
namespace {

obs::Counter& FaultCounter() {
  static obs::Counter& c =
      obs::Registry::Global().Counter("serve.tenant_faults");
  return c;
}

obs::Counter& EvictionCounter() {
  static obs::Counter& c =
      obs::Registry::Global().Counter("serve.tenant_evictions");
  return c;
}

}  // namespace

CountCheck CheckCounts(const double* a, const double* b, int64_t m) {
  for (const double* counts : {a, b}) {
    for (int64_t k = 0; k < m; ++k) {
      if (!std::isfinite(counts[k])) return CountCheck::kNonFinite;
      if (counts[k] < 0.0) return CountCheck::kNegative;
    }
  }
  return CountCheck::kValid;
}

TenantRegistry::TenantRegistry(const TenantConfig& config) : config_(config) {
  // Sessions are created lazily, on a tenant's first append (FaultUp); a
  // request they would refuse must stop the process here, not there.
  CR_CHECK(core::ValidateTableauRequest(config_.request).ok());
  CR_CHECK(!config_.request.stop_on_full_cover);
}

Tenant& TenantRegistry::GetOrCreate(uint64_t id) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    auto tenant = std::make_unique<Tenant>();
    tenant->id = id;
    it = tenants_.emplace(id, std::move(tenant)).first;
  }
  return *it->second;
}

Tenant* TenantRegistry::Find(uint64_t id) {
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second.get();
}

util::Status TenantRegistry::Enqueue(Tenant& tenant, const double* a,
                                     const double* b, int64_t m) {
  switch (CheckCounts(a, b, m)) {
    case CountCheck::kNonFinite:
      return util::Status::InvalidArgument("non-finite count in append");
    case CountCheck::kNegative:
      return util::Status::InvalidArgument("negative count in append");
    case CountCheck::kValid:
      break;
  }
  for (int64_t k = 0; k < m; ++k) {
    double fa = a[k];
    double fb = b[k];
    tenant.filter.Apply(&fa, &fb);
    tenant.log_a.push_back(fa);
    tenant.log_b.push_back(fb);
    tenant.pend_a.push_back(fa);
    tenant.pend_b.push_back(fb);
  }
  return util::Status::Ok();
}

int64_t TenantRegistry::PrepareDispatch(Tenant& tenant, std::vector<double>* a,
                                        std::vector<double>* b, bool* fault) {
  const int64_t m = static_cast<int64_t>(tenant.pend_a.size());
  *fault = tenant.session == nullptr;
  if (*fault) {
    // The full-log copy (not a swap) keeps the canonical log intact; the
    // pending ticks are inside it, so clearing the queue loses nothing.
    *a = tenant.log_a;
    *b = tenant.log_b;
    tenant.pend_a.clear();
    tenant.pend_b.clear();
  } else {
    a->clear();
    b->clear();
    a->swap(tenant.pend_a);
    b->swap(tenant.pend_b);
  }
  return m;
}

void TenantRegistry::ApplyBatch(Tenant& tenant, bool fault,
                                const std::vector<double>& a,
                                const std::vector<double>& b) {
  if (fault) {
    FaultUp(tenant, a, b);
    return;
  }
  CR_CHECK(tenant.session != nullptr);
  if (a.empty()) return;
  tenant.session->ObserveBatch(a, b);
}

int64_t TenantRegistry::ApplyPending(Tenant& tenant) {
  std::vector<double> a;
  std::vector<double> b;
  bool fault = false;
  const int64_t m = PrepareDispatch(tenant, &a, &b, &fault);
  ApplyBatch(tenant, fault, a, b);
  return m;
}

bool TenantRegistry::FaultUp(Tenant& tenant, const std::vector<double>& a,
                             const std::vector<double>& b) {
  auto counts = series::CountSequence::Create(a, b);
  if (!counts.ok()) return false;  // all-zero prefix; stay sessionless
  stream::StreamOptions stream = config_.stream;
  if (config_.label_tenants) {
    stream.tenant = "t" + std::to_string(tenant.id);
  }
  auto session =
      incr::StreamSession::Create(counts.value(), config_.request, stream);
  // The request was validated at registry construction and the sequence
  // just validated; creation cannot fail for data reasons.
  CR_CHECK(session.ok());
  tenant.session =
      std::make_unique<incr::StreamSession>(std::move(session).value());
  tenant.session->discoverer().SetAppendOnly(true);
  hot_count_.fetch_add(1, std::memory_order_relaxed);
  faults_.fetch_add(1, std::memory_order_relaxed);
  FaultCounter().Increment();
  return true;
}

bool TenantRegistry::RefreshCover(Tenant& tenant) {
  if (tenant.session == nullptr) return false;
  incr::IncrementalDiscoverer& discoverer = tenant.session->discoverer();
  if (!discoverer.cover_stale()) return false;
  discoverer.RefreshCover();
  return true;
}

void TenantRegistry::Evict(Tenant& tenant) {
  CR_CHECK(tenant.session != nullptr);
  tenant.session.reset();
  hot_count_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  EvictionCounter().Increment();
}

std::vector<uint64_t> TenantRegistry::HotIdleByLru() const {
  std::vector<std::pair<uint64_t, uint64_t>> order;  // (seq, id)
  for (const auto& [id, tenant] : tenants_) {
    // in_flight first: session is written by the pinned worker outside the
    // daemon mutex, so it is only safe to read once the pin reads clear.
    if (!tenant->in_flight && tenant->pend_a.empty() &&
        tenant->session != nullptr) {
      order.emplace_back(tenant->last_dispatch_seq, id);
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<uint64_t> ids;
  ids.reserve(order.size());
  for (const auto& [seq, id] : order) ids.push_back(id);
  return ids;
}

}  // namespace conservation::serve
