// Micro-benchmarks (google-benchmark, real wall time): distance kernels of
// the metric substrate — the elementary-op generators behind every
// simulated-clock charge.
//
// Three kernel series families, all sized so one iteration scores the same
// 256 objects (so throughput ratios between any two of them are valid):
//
//   BM_Distance/<metric>          historical per-call latency (one call per
//                                 iteration) under the default dispatch.
//   gts-micro/percall-<m>@scalar  256 per-object Distance() calls per
//                                 iteration, scalar tier — the pre-SIMD
//                                 reference path.
//   gts-micro/block-<m>@{scalar,simd}
//                                 one DistanceBlock call scoring 256
//                                 SoA-packed objects per iteration, under
//                                 the forced scalar tier vs the widest
//                                 runnable tier.
//   gts-micro/edit-<ds>@{scalar,bitpar}
//                                 one 256-pair DistanceBatch per iteration:
//                                 scalar tier selects the two-row DP,
//                                 wider tiers the Myers bit-parallel kernel.
//
// And one end-to-end pair, one iteration answering the same 128 exact
// 8-NN queries on T-Loc (n = 100k):
//
//   gts-micro/knn-TLoc@gts        one GtsIndex::KnnQueryBatch call.
//   gts-micro/knn-TLoc@scan       the linear-scan floor: per query, one
//                                 DistanceBatch over every object plus a
//                                 partial_sort by (dist, id).
//
// CI gates the block/bit-parallel speedups with
// `diff_bench.py --require-ratio 'block-X@simd>=K*block-X@scalar'`, and
// exact kNN against its floor with
// `--require-ratio 'knn-TLoc@gts>=knn-TLoc@scan'` — see
// .github/workflows/ci.yml.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "gpu/device.h"
#include "metric/simd.h"
#include "metric/soa.h"

namespace gts {
namespace {

constexpr uint32_t kObjects = 256;

void BM_Distance(benchmark::State& state, DatasetId id) {
  const uint32_t n = kObjects;
  const Dataset data = GenerateDataset(id, n, 3);
  const auto metric = MakeDatasetMetric(id);
  uint32_t i = 0, j = n / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metric->Distance(data, i, j));
    i = (i + 1) % n;
    j = (j + 7) % n;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ops/call"] = static_cast<double>(metric->stats().ops) /
                               static_cast<double>(metric->stats().calls);
}

BENCHMARK_CAPTURE(BM_Distance, L2_TLoc_2d, DatasetId::kTLoc);
BENCHMARK_CAPTURE(BM_Distance, L1_Color_282d, DatasetId::kColor);
BENCHMARK_CAPTURE(BM_Distance, Cosine_Vector_300d, DatasetId::kVector);
BENCHMARK_CAPTURE(BM_Distance, Edit_Words, DatasetId::kWords);
BENCHMARK_CAPTURE(BM_Distance, Edit_DNA, DatasetId::kDna);

// One float-kernel configuration: dataset family providing the payload and
// the metric scoring it (L2_282d pairs the 282-d Color vectors with the L2
// metric, exercising the high-dimensional L2 kernel the 2-d T-Loc series
// cannot).
struct FloatConfig {
  const char* name;
  DatasetId id;
  MetricKind metric;
};

constexpr FloatConfig kFloatConfigs[] = {
    {"L2_TLoc", DatasetId::kTLoc, MetricKind::kL2},
    {"L1_Color", DatasetId::kColor, MetricKind::kL1},
    {"Cosine_Vector", DatasetId::kVector, MetricKind::kAngularCosine},
    {"L2_282d", DatasetId::kColor, MetricKind::kL2},
};

void BlockScore(benchmark::State& state, FloatConfig cfg, simd::Tier tier) {
  const Dataset data = GenerateDataset(cfg.id, kObjects, 3);
  const auto metric = MakeMetric(cfg.metric);
  std::vector<uint32_t> order(kObjects);
  std::iota(order.begin(), order.end(), 0u);
  const SoaPack pack = SoaPack::Pack(data, order);
  std::vector<float> out(kObjects);
  simd::ScopedTierForTest scoped(tier);
  for (auto _ : state) {
    metric->DistanceBlock(data, 0, data, pack, 0, kObjects, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
}

void PerCallScore(benchmark::State& state, FloatConfig cfg) {
  const Dataset data = GenerateDataset(cfg.id, kObjects, 3);
  const auto metric = MakeMetric(cfg.metric);
  std::vector<float> out(kObjects);
  simd::ScopedTierForTest scoped(simd::Tier::kScalar);
  for (auto _ : state) {
    for (uint32_t j = 0; j < kObjects; ++j) {
      out[j] = metric->Distance(data, 0, data, j);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
}

void EditScore(benchmark::State& state, DatasetId id, simd::Tier tier) {
  const Dataset data = GenerateDataset(id, kObjects, 3);
  const auto metric = MakeDatasetMetric(id);
  std::vector<uint32_t> ids(kObjects);
  std::iota(ids.begin(), ids.end(), 0u);
  std::vector<float> out(kObjects);
  simd::ScopedTierForTest scoped(tier);
  for (auto _ : state) {
    metric->DistanceBatch(data, 0, data, ids, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kObjects);
}

// The T-Loc kNN workload both knn-TLoc series answer, built once on first
// use and shared (google-benchmark re-enters a series several times).
struct KnnWorkload {
  static constexpr uint32_t kN = 100'000;
  static constexpr uint32_t kQueries = 128;
  static constexpr uint32_t kK = 8;

  KnnWorkload()
      : data(GenerateDataset(DatasetId::kTLoc, kN, 3)),
        queries(SampleQueries(data, kQueries, 5)),
        metric(MakeDatasetMetric(DatasetId::kTLoc)),
        ids(kN) {
    std::iota(ids.begin(), ids.end(), 0u);
    auto built = GtsIndex::Build(data, metric.get(), &device, GtsOptions{});
    if (!built.ok()) {
      std::fprintf(stderr, "knn-TLoc build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    index = std::move(built).value();
  }

  static const KnnWorkload& Get() {
    static const KnnWorkload workload;
    return workload;
  }

  Dataset data;
  Dataset queries;
  std::unique_ptr<DistanceMetric> metric;
  std::vector<uint32_t> ids;
  gpu::Device device;
  std::unique_ptr<GtsIndex> index;
};

void KnnGts(benchmark::State& state) {
  const KnnWorkload& w = KnnWorkload::Get();
  for (auto _ : state) {
    auto res = w.index->KnnQueryBatch(w.queries, KnnWorkload::kK);
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(res.value().data());
  }
  state.SetItemsProcessed(state.iterations() * KnnWorkload::kQueries);
}

void KnnScan(benchmark::State& state) {
  const KnnWorkload& w = KnnWorkload::Get();
  std::vector<float> dist(w.ids.size());
  std::vector<Neighbor> all(w.ids.size());
  KnnResults out(KnnWorkload::kQueries);
  for (auto _ : state) {
    for (uint32_t q = 0; q < KnnWorkload::kQueries; ++q) {
      w.metric->DistanceBatch(w.queries, q, w.data, w.ids, dist.data());
      for (size_t i = 0; i < all.size(); ++i) {
        all[i] = Neighbor{w.ids[i], dist[i]};
      }
      std::partial_sort(all.begin(), all.begin() + KnnWorkload::kK, all.end(),
                        [](const Neighbor& a, const Neighbor& b) {
                          return a.dist != b.dist ? a.dist < b.dist
                                                  : a.id < b.id;
                        });
      out[q].assign(all.begin(), all.begin() + KnnWorkload::kK);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * KnnWorkload::kQueries);
}

// Explicit registration: the kernel series carry the stable `gts-micro/...`
// names the CI ratio gates reference, not BENCHMARK_CAPTURE's
// function-derived ones.
int RegisterKernelBenches() {
  for (const FloatConfig& cfg : kFloatConfigs) {
    const std::string base = std::string("gts-micro/block-") + cfg.name;
    benchmark::RegisterBenchmark((base + "@scalar").c_str(), BlockScore, cfg,
                                 simd::Tier::kScalar);
    benchmark::RegisterBenchmark((base + "@simd").c_str(), BlockScore, cfg,
                                 simd::BestTier());
    benchmark::RegisterBenchmark(
        (std::string("gts-micro/percall-") + cfg.name + "@scalar").c_str(),
        PerCallScore, cfg);
  }
  constexpr std::pair<const char*, DatasetId> kEditSets[] = {
      {"Words", DatasetId::kWords}, {"DNA", DatasetId::kDna}};
  for (const auto& [name, id] : kEditSets) {
    const std::string base = std::string("gts-micro/edit-") + name;
    benchmark::RegisterBenchmark((base + "@scalar").c_str(), EditScore, id,
                                 simd::Tier::kScalar);
    benchmark::RegisterBenchmark((base + "@bitpar").c_str(), EditScore, id,
                                 simd::BestTier());
  }
  benchmark::RegisterBenchmark("gts-micro/knn-TLoc@gts", KnnGts)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("gts-micro/knn-TLoc@scan", KnnScan)
      ->Unit(benchmark::kMillisecond);
  return 0;
}

const int kKernelBenchesRegistered = RegisterKernelBenches();

}  // namespace
}  // namespace gts
