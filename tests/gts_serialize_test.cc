// Index persistence: a saved-and-reloaded index must answer every query
// identically, carry its update state (tombstones, cache) across the
// round-trip, and reject corrupt or mismatched files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

class GtsSerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "/gts_index_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  gpu::Device device_;
};

TEST_F(GtsSerializeTest, RoundTripPreservesQueries) {
  auto metric = MakeDatasetMetric(DatasetId::kWords);
  Dataset data = GenerateDataset(DatasetId::kWords, 600, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{.node_capacity = 8});
  ASSERT_TRUE(built.ok());
  GtsIndex& original = *built.value();

  const Dataset queries = SampleQueries(original.data(), 12, 3);
  const float r = CalibrateRadius(original.data(), *metric, 0.02, 100, 7);
  const std::vector<float> radii(queries.size(), r);
  auto range_before = original.RangeQueryBatch(queries, radii);
  auto knn_before = original.KnnQueryBatch(queries, 8);
  ASSERT_TRUE(range_before.ok() && knn_before.ok());

  ASSERT_TRUE(original.SaveTo(path_).ok());
  gpu::Device device2;
  auto loaded = GtsIndex::Load(path_, metric.get(), &device2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->height(), original.height());
  EXPECT_EQ(loaded.value()->num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.value()->alive_size(), original.alive_size());
  EXPECT_EQ(loaded.value()->IndexBytes(), original.IndexBytes());
  EXPECT_GT(device2.allocated_bytes(), 0u);

  auto range_after = loaded.value()->RangeQueryBatch(queries, radii);
  auto knn_after = loaded.value()->KnnQueryBatch(queries, 8);
  ASSERT_TRUE(range_after.ok() && knn_after.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(range_after.value()[q], range_before.value()[q]);
    ASSERT_EQ(knn_after.value()[q].size(), knn_before.value()[q].size());
    for (size_t i = 0; i < knn_after.value()[q].size(); ++i) {
      EXPECT_FLOAT_EQ(knn_after.value()[q][i].dist,
                      knn_before.value()[q][i].dist);
    }
  }
}

TEST_F(GtsSerializeTest, RoundTripCarriesUpdateState) {
  auto metric = MakeMetric(MetricKind::kL2);
  Dataset data = GenerateDataset(DatasetId::kTLoc, 400, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{.cache_capacity_bytes = 1 << 20});
  ASSERT_TRUE(built.ok());
  GtsIndex& original = *built.value();

  // Tombstone a few objects, buffer a few inserts in the cache.
  for (uint32_t id = 0; id < 40; ++id) ASSERT_TRUE(original.Remove(id).ok());
  Dataset extra = GenerateDataset(DatasetId::kTLoc, 7, 99);
  for (uint32_t i = 0; i < 7; ++i) ASSERT_TRUE(original.Insert(extra, i).ok());
  ASSERT_EQ(original.cache_size(), 7u);

  ASSERT_TRUE(original.SaveTo(path_).ok());
  gpu::Device device2;
  auto loaded = GtsIndex::Load(path_, metric.get(), &device2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->cache_size(), 7u);
  EXPECT_EQ(loaded.value()->alive_size(), original.alive_size());
  for (uint32_t id = 0; id < 40; ++id) {
    EXPECT_FALSE(loaded.value()->IsAlive(id));
  }

  // Cached inserts remain queryable; tombstoned objects stay invisible.
  Dataset probe = Dataset::FloatVectors(2);
  probe.AppendFrom(extra, 3);
  auto knn = loaded.value()->KnnQueryBatch(probe, 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_FLOAT_EQ(knn.value()[0][0].dist, 0.0f);
  for (const auto& res : knn.value()) {
    for (const auto& nb : res) EXPECT_TRUE(loaded.value()->IsAlive(nb.id));
  }
}

TEST_F(GtsSerializeTest, RejectsMetricMismatch) {
  auto l2 = MakeMetric(MetricKind::kL2);
  Dataset data = GenerateDataset(DatasetId::kTLoc, 100, 5);
  auto built = GtsIndex::Build(std::move(data), l2.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());

  auto l1 = MakeMetric(MetricKind::kL1);
  auto loaded = GtsIndex::Load(path_, l1.get(), &device_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GtsSerializeTest, RejectsGarbageAndTruncation) {
  auto metric = MakeMetric(MetricKind::kL2);
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not an index";
  }
  EXPECT_FALSE(GtsIndex::Load(path_, metric.get(), &device_).ok());

  // A valid file truncated mid-body must be rejected, not crash.
  Dataset data = GenerateDataset(DatasetId::kTLoc, 200, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), contents.size() / 2);
  }
  EXPECT_FALSE(GtsIndex::Load(path_, metric.get(), &device_).ok());
}

TEST_F(GtsSerializeTest, MissingFileIsNotFound) {
  auto metric = MakeMetric(MetricKind::kL2);
  auto loaded =
      GtsIndex::Load("/nonexistent/gts.bin", metric.get(), &device_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(GtsSerializeTest, LoadFailsOnTinyDevice) {
  auto metric = MakeMetric(MetricKind::kL2);
  Dataset data = GenerateDataset(DatasetId::kTLoc, 2000, 5);
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built.value()->SaveTo(path_).ok());

  gpu::Device tiny(gpu::DeviceOptions{.memory_bytes = 1024});
  auto loaded = GtsIndex::Load(path_, metric.get(), &tiny);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kMemoryLimit);
}

}  // namespace
}  // namespace gts
