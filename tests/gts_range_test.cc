// Exactness of the batched metric range query (Algorithm 4) against the
// brute-force reference, across dataset families, radii, node capacities
// and duplicate-heavy data.
#include <gtest/gtest.h>

#include "test_util.h"

#include <limits>
#include <numeric>

#include "baselines/brute_force.h"
#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"

namespace gts {
namespace {

struct Param {
  DatasetId dataset;
  uint32_t nc;
  double selectivity;
};

class GtsRangeTest : public ::testing::TestWithParam<Param> {};

TEST_P(GtsRangeTest, MatchesBruteForce) {
  const Param p = GetParam();
  const uint32_t n = p.dataset == DatasetId::kDna ? 150 : 600;
  Dataset data = GenerateDataset(p.dataset, n, 31);
  auto metric = MakeDatasetMetric(p.dataset);
  gpu::Device device;

  const float r = CalibrateRadius(data, *metric, p.selectivity, 100, 7);
  const Dataset queries = SampleQueries(data, 24, 77);
  const std::vector<float> radii(queries.size(), r);

  BruteForce ref(MethodContext{&device, UINT64_MAX, 42});
  ASSERT_TRUE(ref.Build(&data, metric.get()).ok());
  auto expected = ref.RangeBatch(queries, radii);
  ASSERT_TRUE(expected.ok());

  GtsOptions options;
  options.node_capacity = p.nc;
  auto built = GtsIndex::Build(std::move(data), metric.get(), &device,
                               options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto got = built.value()->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  for (uint32_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(got.value()[q], expected.value()[q]) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GtsRangeTest,
    ::testing::Values(Param{DatasetId::kWords, 4, 0.01},
                      Param{DatasetId::kWords, 20, 0.05},
                      Param{DatasetId::kTLoc, 2, 0.002},
                      Param{DatasetId::kTLoc, 20, 0.01},
                      Param{DatasetId::kTLoc, 80, 0.05},
                      Param{DatasetId::kVector, 10, 0.01},
                      Param{DatasetId::kDna, 4, 0.02},
                      Param{DatasetId::kColor, 20, 0.01},
                      Param{DatasetId::kColor, 5, 0.002}),
    [](const auto& info) {
      return SafeName(std::string(GetDatasetSpec(info.param.dataset).name) + "_Nc" +
             std::to_string(info.param.nc) + "_s" +
             std::to_string(static_cast<int>(info.param.selectivity * 1000)));
    });

class GtsRangeEdgeTest : public ::testing::Test {
 protected:
  gpu::Device device_;
  std::unique_ptr<DistanceMetric> metric_ = MakeMetric(MetricKind::kL2);
};

TEST_F(GtsRangeEdgeTest, ZeroRadiusFindsExactMatches) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 400, 5);
  auto built =
      GtsIndex::Build(data.Slice([&] {
        std::vector<uint32_t> ids(data.size());
        std::iota(ids.begin(), ids.end(), 0u);
        return ids;
      }()), metric_.get(), &device_, GtsOptions{});
  ASSERT_TRUE(built.ok());
  const Dataset queries = SampleQueries(data, 8, 3);
  const std::vector<float> radii(queries.size(), 0.0f);
  auto got = built.value()->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(got.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    // The query is a copy of some dataset object, so r = 0 returns >= 1.
    EXPECT_GE(got.value()[q].size(), 1u);
  }
}

TEST_F(GtsRangeEdgeTest, HugeRadiusReturnsEverything) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 300, 5);
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  const Dataset queries = SampleQueries(built.value()->data(), 4, 3);
  const std::vector<float> radii(queries.size(), 1e9f);
  auto got = built.value()->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(got.ok());
  for (const auto& res : got.value()) EXPECT_EQ(res.size(), 300u);
}

TEST_F(GtsRangeEdgeTest, EmptyIndexReturnsEmpty) {
  auto built = GtsIndex::Build(Dataset::FloatVectors(2), metric_.get(),
                               &device_, GtsOptions{});
  ASSERT_TRUE(built.ok());
  Dataset queries = Dataset::FloatVectors(2);
  queries.AppendVector(std::vector<float>{0.0f, 0.0f});
  const std::vector<float> radii = {10.0f};
  auto got = built.value()->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value()[0].empty());
}

TEST_F(GtsRangeEdgeTest, RejectsMismatchedRadii) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 50, 5);
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  const Dataset queries = SampleQueries(built.value()->data(), 4, 3);
  const std::vector<float> radii = {1.0f};  // 1 radius for 4 queries
  EXPECT_FALSE(built.value()->RangeQueryBatch(queries, radii).ok());
}

TEST_F(GtsRangeEdgeTest, RejectsNegativeAndNanRadii) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 50, 5);
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  const Dataset queries = SampleQueries(built.value()->data(), 2, 3);
  for (const float bad : {-1.0f, std::numeric_limits<float>::quiet_NaN()}) {
    // One bad radius fails the whole batch, wherever it sits.
    const std::vector<float> radii = {1.0f, bad};
    auto got = built.value()->RangeQueryBatch(queries, radii);
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST_F(GtsRangeEdgeTest, DuplicateHeavyDataIsExact) {
  // Fig. 10 workload: 20% distinct objects.
  Dataset data = GenerateWithDistinctFraction(DatasetId::kTLoc, 500, 0.2, 9);
  gpu::Device device;
  BruteForce ref(MethodContext{&device, UINT64_MAX, 42});
  ASSERT_TRUE(ref.Build(&data, metric_.get()).ok());
  const Dataset queries = SampleQueries(data, 12, 4);
  const float r = CalibrateRadius(data, *metric_, 0.01, 100, 7);
  const std::vector<float> radii(queries.size(), r);
  auto expected = ref.RangeBatch(queries, radii);
  ASSERT_TRUE(expected.ok());

  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  auto got = built.value()->RangeQueryBatch(queries, radii);
  ASSERT_TRUE(got.ok());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(got.value()[q], expected.value()[q]);
  }
}

TEST_F(GtsRangeEdgeTest, PruningActuallyPrunes) {
  Dataset data = GenerateDataset(DatasetId::kTLoc, 2000, 5);
  auto built = GtsIndex::Build(std::move(data), metric_.get(), &device_,
                               GtsOptions{});
  ASSERT_TRUE(built.ok());
  GtsIndex& idx = *built.value();
  const Dataset queries = SampleQueries(idx.data(), 16, 3);
  const float r = CalibrateRadius(idx.data(), *metric_, 0.001, 100, 7);
  const std::vector<float> radii(queries.size(), r);
  idx.ResetQueryStats();
  metric_->ResetStats();
  ASSERT_TRUE(idx.RangeQueryBatch(queries, radii).ok());
  // Far fewer distance computations than brute force (16 x 2000).
  EXPECT_LT(idx.query_stats().distance_computations, 16u * 2000u / 3u);
}

}  // namespace
}  // namespace gts
