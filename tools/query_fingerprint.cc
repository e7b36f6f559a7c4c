// Deterministic whole-stack query fingerprint for the kernel-dispatch CI
// matrix. Builds an index per paper dataset family, runs batched exact,
// approximate and bounded kNN, range queries, a kNN under a device budget
// tight enough to split the batch into several query groups, and a kNN
// over tombstoned leaves, and folds every observable — result ids,
// distance float bits, query-stat counters, metric work counters, the
// device's modeled nanoseconds and kernel launches — into one FNV-1a hash
// per dataset plus a combined digest.
//
// Two modes:
//   query_fingerprint               print one `<dataset> <hex>` line per
//                                   dataset and a final `combined <hex>`,
//                                   under whatever tier GTS_SIMD /
//                                   GTS_FORCE_SCALAR resolve to. CI runs
//                                   this once per forced tier and diffs
//                                   the outputs byte-for-byte.
//   query_fingerprint --self-check  run every tier compiled into this
//                                   binary AND runnable on this CPU
//                                   in-process (simd::ScopedTierForTest)
//                                   and fail (exit 1) unless all agree.
//                                   Registered as the
//                                   `kernel_dispatch_selfcheck` ctest.
//
// The equivalence contract this enforces is documented in metric/simd.h:
// every tier of every kernel is bitwise-identical, so the fingerprint is a
// function of the workload alone, never of the ISA that executed it.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "gpu/device.h"
#include "metric/simd.h"

namespace {

using namespace gts;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Fold(uint64_t* h, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

template <typename T>
void FoldPod(uint64_t* h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  Fold(h, &v, sizeof(v));
}

constexpr uint32_t kK = 5;
constexpr uint64_t kTightSlackBytes = 1024;
constexpr uint32_t kRemovedQueries = 3;

void FoldKnn(uint64_t* h, const KnnResults& knn) {
  for (const auto& res : knn) {
    FoldPod(h, static_cast<uint64_t>(res.size()));
    for (const Neighbor& nb : res) {
      FoldPod(h, nb.id);
      FoldPod(h, nb.dist);  // float BITS: equality is bitwise, not approx
    }
  }
}

// The evaluated distance set — and so every work counter — is part of the
// contract: a tier that skipped or reordered evaluations would change these
// even if the returned results happened to match.
void FoldStats(uint64_t* h, const GtsQueryStats& s) {
  FoldPod(h, s.distance_computations);
  FoldPod(h, s.nodes_visited);
  FoldPod(h, s.objects_verified);
  FoldPod(h, s.query_groups);
  FoldPod(h, s.nodes_pruned);
}

// Fingerprint of one dataset family's full query workload (the exact kNN
// and range part mirrors the TierEquivalenceTest workload so a CI mismatch
// there reproduces under gtest).
uint64_t FingerprintDataset(DatasetId id) {
  const uint32_t n = id == DatasetId::kDna ? 120 : 400;
  Dataset data = GenerateDataset(id, n, 17);
  const Dataset queries = SampleQueries(data, 8, 29);
  auto metric = MakeDatasetMetric(id);
  gpu::Device device;
  GtsOptions options;
  options.node_capacity = 10;
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    std::exit(2);
  }
  GtsIndex& index = *built.value();

  uint64_t h = kFnvOffset;
  FoldPod(&h, static_cast<uint32_t>(id));

  GtsQueryStats knn_stats;
  auto knn = index.KnnQueryBatch(queries, kK, &knn_stats);
  if (!knn.ok()) std::exit(2);
  FoldKnn(&h, knn.value());

  const float radius = id == DatasetId::kDna     ? 18.0f
                       : id == DatasetId::kWords ? 4.0f
                                                 : 0.35f * 282;
  const std::vector<float> radii(queries.size(), radius);
  GtsQueryStats range_stats;
  auto range = index.RangeQueryBatch(queries, radii, &range_stats);
  if (!range.ok()) std::exit(2);
  for (const auto& ids : range.value()) {
    FoldPod(&h, static_cast<uint64_t>(ids.size()));
    for (const uint32_t oid : ids) FoldPod(&h, oid);
  }

  FoldStats(&h, knn_stats);
  FoldStats(&h, range_stats);

  // Approximate mode: the per-query candidate budget decides which
  // candidates are verified at all.
  GtsQueryStats approx_stats;
  auto approx = index.KnnQueryBatchApprox(queries, kK, 0.25, &approx_stats);
  if (!approx.ok()) std::exit(2);
  FoldKnn(&h, approx.value());
  FoldStats(&h, approx_stats);

  // Bounded mode: even queries start capped at their exact k-th distance,
  // odd ones uncapped.
  std::vector<float> bounds(queries.size(),
                            std::numeric_limits<float>::infinity());
  for (uint32_t q = 0; q < queries.size(); q += 2) {
    if (!knn.value()[q].empty()) bounds[q] = knn.value()[q].back().dist;
  }
  GtsQueryStats bounded_stats;
  auto bounded =
      index.KnnQueryBatchBounded(queries, kK, bounds, &bounded_stats);
  if (!bounded.ok()) std::exit(2);
  FoldKnn(&h, bounded.value());
  FoldStats(&h, bounded_stats);

  // A device budget just above the index residency: the frontier no longer
  // fits one group, so the batch runs as several sequential query groups.
  const uint64_t budget = device.memory_bytes();
  device.set_memory_bytes(index.DeviceResidentBytes() + kTightSlackBytes);
  GtsQueryStats tight_stats;
  auto tight = index.KnnQueryBatch(queries, kK, &tight_stats);
  device.set_memory_bytes(budget);
  if (!tight.ok()) std::exit(2);
  if (tight_stats.query_groups <= knn_stats.query_groups) {
    std::fprintf(stderr, "tight budget did not split the batch\n");
    std::exit(2);
  }
  FoldKnn(&h, tight.value());
  FoldStats(&h, tight_stats);

  // Tombstones in the leaves: drop each of the first queries' nearest
  // neighbour (the query object itself when it was sampled from the data).
  for (uint32_t q = 0; q < kRemovedQueries; ++q) {
    const uint32_t victim = knn.value()[q].front().id;
    if (!index.IsAlive(victim)) continue;
    if (!index.Remove(victim).ok()) std::exit(2);
  }
  GtsQueryStats removed_stats;
  auto removed = index.KnnQueryBatch(queries, kK, &removed_stats);
  if (!removed.ok()) std::exit(2);
  FoldKnn(&h, removed.value());
  FoldStats(&h, removed_stats);

  const DistanceStats ms = metric->stats();
  FoldPod(&h, ms.calls);
  FoldPod(&h, ms.ops);
  // Modeled time: double BITS, so any reordered or re-sized charge shows.
  FoldPod(&h, device.clock().ElapsedNs());
  FoldPod(&h, device.clock().kernels_launched());
  return h;
}

struct Report {
  std::vector<uint64_t> per_dataset;
  uint64_t combined = kFnvOffset;
};

Report RunAll() {
  Report r;
  for (const DatasetId id : kAllDatasets) {
    const uint64_t h = FingerprintDataset(id);
    r.per_dataset.push_back(h);
    FoldPod(&r.combined, h);
  }
  return r;
}

void Print(const Report& r, const char* tier) {
  std::printf("tier %s\n", tier);
  size_t i = 0;
  for (const DatasetId id : kAllDatasets) {
    std::printf("%-8s %016" PRIx64 "\n", GetDatasetSpec(id).name,
                r.per_dataset[i++]);
  }
  std::printf("combined %016" PRIx64 "\n", r.combined);
}

int SelfCheck() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier t :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::TierCompiled(t) && simd::TierSupportedByCpu(t)) {
      tiers.push_back(t);
    }
  }
  std::vector<Report> reports;
  for (const simd::Tier t : tiers) {
    simd::ScopedTierForTest scoped(t);
    reports.push_back(RunAll());
    Print(reports.back(), simd::TierName(t));
  }
  int rc = 0;
  for (size_t t = 1; t < reports.size(); ++t) {
    if (reports[t].combined != reports[0].combined) {
      std::fprintf(stderr, "FAIL: tier %s fingerprint differs from %s\n",
                   simd::TierName(tiers[t]), simd::TierName(tiers[0]));
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("self-check OK: %zu tier(s) byte-identical\n", tiers.size());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--self-check") == 0) {
    return SelfCheck();
  }
  Print(RunAll(), simd::TierName(simd::ActiveTier()));
  return 0;
}
