#include "serve/session_router.h"

#include <utility>

namespace gts::serve {

SessionRouter::SessionRouter(std::vector<GtsIndex*> tenants,
                             RouterOptions options)
    : options_(options) {
  // One pool-only executor: tenant flushes only need Submit/ShardBounds,
  // so a single worker budget serves every tenant (see query_executor.h).
  executor_ = std::make_unique<QueryExecutor>(
      nullptr, ExecutorOptions{options_.executor_threads, 0});
  tenants_.reserve(tenants.size());
  for (GtsIndex* index : tenants) {
    auto tenant = std::make_unique<Tenant>();
    tenant->index = index;
    tenant->session = std::make_unique<QuerySession>(index, executor_.get(),
                                                     options_.session);
    tenants_.push_back(std::move(tenant));
  }
}

SessionRouter::~SessionRouter() {
  // Session destructors drain; explicit reset before the executor dies.
  tenants_.clear();
}

bool SessionRouter::OverQuota(const Tenant& tenant) const {
  if (options_.max_inflight_per_tenant == 0) return false;
  return tenant.session->inflight_reads() >= options_.max_inflight_per_tenant;
}

std::future<Response> SessionRouter::Submit(Request request) {
  if (request.tenant >= tenants_.size()) {
    return ResolvedFuture(
        ErrorResponse(request, Status::InvalidArgument("unknown tenant id")));
  }
  Tenant& t = *tenants_[request.tenant];
  // Updates are never quota-limited; only reads occupy the shared pool
  // long enough for a share bound to mean anything.
  if (request.is_read() && OverQuota(t)) {
    t.quota_rejected.fetch_add(1, std::memory_order_relaxed);
    return ResolvedFuture(ErrorResponse(
        request,
        Status::ResourceExhausted("tenant inflight quota exceeded")));
  }
  return t.session->Submit(std::move(request));
}

void SessionRouter::Drain() {
  for (auto& tenant : tenants_) tenant->session->Drain();
}

RouterStats SessionRouter::stats() const {
  RouterStats out;
  out.tenants.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    const SessionStats s = tenant->session->stats();
    TenantStats t;
    t.submitted = s.submitted;
    t.rejected = s.rejected;
    t.quota_rejected = tenant->quota_rejected.load(std::memory_order_relaxed);
    t.completed = s.completed;
    t.deadline_missed = s.deadline_missed;
    t.writer_ops = s.writer_ops;
    t.p50_latency_ms = s.p50_latency_ms;
    t.p95_latency_ms = s.p95_latency_ms;
    {
      // Snapshot-consistent per-tenant index view. Snapshots pin the
      // current version with an epoch guard, so even a tenant mid-rebuild
      // (the writer builds a replacement version off to the side) cannot
      // stall the stats poll.
      const GtsIndex::ReadSnapshot snapshot =
          tenant->index->SnapshotForRead();
      t.alive_objects = snapshot.alive_size();
    }
    out.submitted += t.submitted;
    out.rejected += t.rejected + t.quota_rejected;
    out.completed += t.completed;
    out.deadline_missed += t.deadline_missed;
    out.tenants.push_back(t);
  }
  return out;
}

}  // namespace gts::serve
