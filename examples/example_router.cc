// Multi-tenant serving with serve::SessionRouter and the unified typed
// request plane: two tenants (a geo-location index and a color-histogram
// index) behind one router, every operation submitted through the ONE
// Submit(serve::Request) entry point — deadline-tagged queries scheduled
// earliest-deadline-first, per-tenant inflight quotas, and a RouterStats
// snapshot at the end. The runnable twin of the walkthrough in
// docs/SERVING.md.
//
//   $ ./build/examples/example_router
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/request.h"
#include "serve/session_router.h"

using namespace gts;

namespace {

std::unique_ptr<GtsIndex> BuildIndex(const Dataset& data,
                                     const DistanceMetric* metric,
                                     gpu::Device* device) {
  std::vector<uint32_t> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0u);
  auto built = GtsIndex::Build(data.Slice(ids), metric, device, GtsOptions{});
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(built).value();
}

}  // namespace

int main() {
  // 1. Two tenants: different datasets, different metrics, one device.
  gpu::Device device;
  const Dataset geo = GenerateDataset(DatasetId::kTLoc, 6000, /*seed=*/1);
  const Dataset color = GenerateDataset(DatasetId::kColor, 3000, /*seed=*/2);
  auto geo_metric = MakeDatasetMetric(DatasetId::kTLoc);
  auto color_metric = MakeDatasetMetric(DatasetId::kColor);
  auto geo_index = BuildIndex(geo, geo_metric.get(), &device);
  auto color_index = BuildIndex(color, color_metric.get(), &device);

  // 2. Mount both behind one router: per-tenant sessions (queue, batcher,
  // deadline accounting), one shared 4-thread worker pool, and a quota of
  // 64 unresolved reads per tenant.
  serve::RouterOptions options;
  options.session.max_batch = 32;
  options.session.max_queue = 256;
  options.session.admission = serve::AdmissionPolicy::kReject;
  options.executor_threads = 4;
  options.max_inflight_per_tenant = 64;
  serve::SessionRouter router({geo_index.get(), color_index.get()}, options);

  // 3. Submit interleaved traffic through the unified request plane: one
  // Submit(serve::Request) entry point serves every operation; the typed
  // payload picks range/kNN/insert and ForTenant routes it. Tenant 0
  // queries carry a 5 ms deadline; tenant 1 queries are deadline-free and
  // rank behind urgent work when both tenants' flushes contend for the
  // pool.
  const Dataset geo_queries = SampleQueries(geo, 32, /*seed=*/7);
  const Dataset color_queries = SampleQueries(color, 32, /*seed=*/8);
  const float geo_radius =
      CalibrateRadius(geo, *geo_metric, 8e-4, /*samples=*/100, /*seed=*/3);

  std::vector<std::future<serve::Response>> range_futures, knn_futures;
  for (uint32_t q = 0; q < 32; ++q) {
    range_futures.push_back(router.Submit(
        serve::Request::Range(geo_queries, q, geo_radius,
                              /*deadline_micros=*/5000)
            .ForTenant(0)));
    knn_futures.push_back(router.Submit(
        serve::Request::Knn(color_queries, q, /*k=*/4).ForTenant(1)));
  }
  // Updates ride the same entry point and are never quota-limited.
  auto inserted = router.Submit(serve::Request::Insert(geo, 0).ForTenant(0));

  uint64_t results = 0;
  for (auto& f : range_futures) {
    serve::Response res = f.get();
    if (res.ok()) results += res.range().value().size();
  }
  for (auto& f : knn_futures) {
    serve::Response res = f.get();
    if (res.ok()) results += res.knn().value().size();
  }
  if (!inserted.get().ok()) return 1;
  router.Drain();

  // 4. The whole serving plane in one snapshot.
  const serve::RouterStats stats = router.stats();
  std::printf("%llu result rows over %u tenants\n",
              static_cast<unsigned long long>(results), router.num_tenants());
  for (uint32_t t = 0; t < router.num_tenants(); ++t) {
    const serve::TenantStats& ts = stats.tenants[t];
    std::printf(
        "tenant %u: %llu submitted, %llu completed, %llu rejected "
        "(%llu quota), %llu deadline-missed, p50 %.3f ms, p95 %.3f ms, "
        "%llu alive objects\n",
        t, static_cast<unsigned long long>(ts.submitted),
        static_cast<unsigned long long>(ts.completed),
        static_cast<unsigned long long>(ts.rejected),
        static_cast<unsigned long long>(ts.quota_rejected),
        static_cast<unsigned long long>(ts.deadline_missed),
        ts.p50_latency_ms, ts.p95_latency_ms,
        static_cast<unsigned long long>(ts.alive_objects));
  }

  // Smoke check for ctest: everything submitted must have completed.
  if (stats.completed != 64 || stats.tenants[0].writer_ops != 1) return 1;
  return 0;
}
