// Unified request-plane suite: Submit(serve::Request) through QuerySession
// and SessionRouter must be byte-identical to direct batch calls, across
// seeds and operation mixes; rejections must resolve in the request's own
// typed Response alternative, and every front end (QuerySession,
// SessionRouter, ShardedFrontend) must reject the same invalid reads with
// the same message. Runs under the clang-tsan CI job's Serve re-run.
#include <gtest/gtest.h>

#include "test_util.h"

#include <future>
#include <limits>
#include <numeric>
#include <variant>
#include <vector>

#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/query_executor.h"
#include "serve/query_session.h"
#include "serve/request.h"
#include "serve/session_router.h"
#include "serve/sharded_frontend.h"

namespace gts {
namespace {

using serve::Request;
using serve::Response;

struct Env {
  Dataset data = Dataset::Strings();
  std::unique_ptr<DistanceMetric> metric;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<GtsIndex> index;
};

Env MakeIndexedEnv(DatasetId id, uint32_t n, uint64_t seed) {
  Env env;
  env.data = GenerateDataset(id, n, seed);
  env.metric = MakeDatasetMetric(id);
  env.device = std::make_unique<gpu::Device>();
  std::vector<uint32_t> ids(env.data.size());
  std::iota(ids.begin(), ids.end(), 0u);
  auto built = GtsIndex::Build(env.data.Slice(ids), env.metric.get(),
                               env.device.get(), GtsOptions{});
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  env.index = std::move(built).value();
  return env;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    // Exact float equality on purpose: the entry point must not change
    // any query's computation.
    EXPECT_EQ(got[i].dist, want[i].dist);
  }
}

// The unified entry point and the direct batch path must agree
// byte-for-byte on every operation family, across seeds.
TEST(ServeRequestDifferential, UnifiedMatchesBatchAcrossSeeds) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    Env env = MakeIndexedEnv(DatasetId::kTLoc, 700, seed);
    const float r = CalibrateRadius(env.data, *env.metric, 0.02, 100, 7);
    constexpr uint32_t kQueries = 24;
    const Dataset queries = SampleQueries(env.data, kQueries, seed + 100);

    serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
    serve::SessionOptions opts;
    opts.max_batch = 5;  // many flush cycles
    serve::QuerySession session(env.index.get(), &exec, opts);

    std::vector<std::future<Response>> unified_range, unified_knn,
        unified_approx;
    for (uint32_t q = 0; q < kQueries; ++q) {
      const uint64_t deadline = (q % 3 == 0) ? 400 : 0;
      unified_range.push_back(
          session.Submit(Request::Range(queries, q, r, deadline)));
      unified_knn.push_back(session.Submit(Request::Knn(queries, q, 5)));
      unified_approx.push_back(
          session.Submit(Request::KnnApprox(queries, q, 5, 0.5)));
    }

    for (uint32_t q = 0; q < kQueries; ++q) {
      Response range = unified_range[q].get();
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      auto want_range = env.index->RangeQuery(queries, q, r);
      ASSERT_TRUE(want_range.ok());
      EXPECT_EQ(range.range().value(), want_range.value()) << "query " << q;

      Response knn = unified_knn[q].get();
      ASSERT_TRUE(knn.ok());
      auto want_knn = env.index->KnnQuery(queries, q, 5);
      ASSERT_TRUE(want_knn.ok());
      ExpectSameNeighbors(knn.knn().value(), want_knn.value());

      // The approximate answer against the direct batch call on the
      // one-query slice: the candidate budget is per query, so the slice
      // reproduces what the coalesced flush computed for this query.
      Response approx = unified_approx[q].get();
      ASSERT_TRUE(approx.ok());
      const uint32_t one[] = {q};
      auto want_approx =
          env.index->KnnQueryBatchApprox(queries.Slice(one), 5, 0.5);
      ASSERT_TRUE(want_approx.ok());
      ExpectSameNeighbors(approx.knn().value(), want_approx.value()[0]);
    }
    session.Drain();
    const serve::SessionStats stats = session.stats();
    EXPECT_EQ(stats.submitted, stats.completed);
    EXPECT_EQ(stats.rejected, 0u);
  }
}

// Every update family must flow through the unified plane: responses carry
// the typed alternatives and the index state matches a directly-updated
// twin.
TEST(ServeRequestTest, UpdateFamiliesRoundTripThroughUnifiedPlane) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 400, 31);
  Env twin = MakeIndexedEnv(DatasetId::kTLoc, 400, 31);
  const Dataset donors = GenerateDataset(DatasetId::kTLoc, 8, 77);

  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::QuerySession session(env.index.get(), &exec, {});

  // Insert.
  Response inserted = session.Submit(Request::Insert(donors, 2)).get();
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  auto twin_inserted = twin.index->Insert(donors, 2);
  ASSERT_TRUE(twin_inserted.ok());
  EXPECT_EQ(inserted.inserted().value(), twin_inserted.value());

  // Remove.
  Response removed = session.Submit(Request::Remove(3)).get();
  EXPECT_TRUE(removed.ok()) << removed.status().ToString();
  ASSERT_TRUE(twin.index->Remove(3).ok());

  // BatchUpdate.
  std::vector<uint32_t> removal_ids = {5, 9};
  Response batched =
      session.Submit(Request::BatchUpdate(donors, removal_ids)).get();
  EXPECT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_TRUE(twin.index->BatchUpdate(donors, removal_ids).ok());

  // Rebuild.
  Response rebuilt = session.Submit(Request::Rebuild()).get();
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_TRUE(twin.index->Rebuild().ok());

  session.Drain();
  EXPECT_EQ(env.index->alive_size(), twin.index->alive_size());
  EXPECT_EQ(env.index->rebuild_count(), twin.index->rebuild_count());

  // Post-churn answers match the directly-updated twin byte-for-byte.
  const Dataset queries = SampleQueries(env.data, 8, 5);
  for (uint32_t q = 0; q < queries.size(); ++q) {
    Response got = session.Submit(Request::Knn(queries, q, 4)).get();
    ASSERT_TRUE(got.ok());
    auto want = twin.index->KnnQuery(queries, q, 4);
    ASSERT_TRUE(want.ok());
    ExpectSameNeighbors(got.knn().value(), want.value());
  }
}

// Rejections resolve in the request's own typed alternative, so typed
// consumers of Response never see a foreign alternative.
TEST(ServeRequestTest, RejectionsStayTyped) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 300, 41);
  const Dataset queries = SampleQueries(env.data, 4, 5);
  serve::SessionRouter router({env.index.get()});

  // Unknown tenant: each family's alternative carries the error.
  Response range =
      router.Submit(Request::Range(queries, 0, 1.0f).ForTenant(9)).get();
  EXPECT_EQ(range.range().status().code(), StatusCode::kInvalidArgument);
  Response knn =
      router.Submit(Request::Knn(queries, 0, 4).ForTenant(9)).get();
  EXPECT_EQ(knn.knn().status().code(), StatusCode::kInvalidArgument);
  Response insert =
      router.Submit(Request::Insert(queries, 0).ForTenant(9)).get();
  EXPECT_EQ(insert.inserted().status().code(), StatusCode::kInvalidArgument);
  Response rebuild = router.Submit(Request::Rebuild().ForTenant(9)).get();
  EXPECT_EQ(rebuild.update().code(), StatusCode::kInvalidArgument);

  // Out-of-range factory index: the factories never fail, the plane
  // rejects with kInvalidArgument.
  Response oob =
      router.Submit(Request::Knn(queries, queries.size(), 4)).get();
  EXPECT_EQ(oob.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(oob.ok());

  // Bad candidate fraction.
  Response bad_fraction =
      router.Submit(Request::KnnApprox(queries, 0, 4, 0.0)).get();
  EXPECT_EQ(bad_fraction.status().code(), StatusCode::kInvalidArgument);

  // is_read() partitions the families the way admission/quotas do.
  EXPECT_TRUE(Request::Range(queries, 0, 1.0f).is_read());
  EXPECT_TRUE(Request::Knn(queries, 0, 4).is_read());
  EXPECT_TRUE(Request::KnnApprox(queries, 0, 4, 0.5).is_read());
  EXPECT_FALSE(Request::Insert(queries, 0).is_read());
  EXPECT_FALSE(Request::Remove(0).is_read());
  EXPECT_FALSE(Request::Rebuild().is_read());
}

// One read validator serves the whole plane: every invalid read resolves
// kInvalidArgument with the same message, in the request's own Response
// alternative, whether it enters through QuerySession, SessionRouter or
// ShardedFrontend.
TEST(ServeRequestValidation, InvalidReadsRejectedAlikeOnEveryLayer) {
  Env env = MakeIndexedEnv(DatasetId::kTLoc, 300, 91);
  Env other = MakeIndexedEnv(DatasetId::kTLoc, 300, 92);
  const Dataset queries = SampleQueries(env.data, 4, 5);
  const Dataset wrong_kind = GenerateDataset(DatasetId::kWords, 4, 1);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto capped = [&](float cap) {
    Request r = Request::Knn(queries, 0, 4);
    std::get<serve::KnnPayload>(r.payload).bound_cap = cap;
    return r;
  };

  struct Case {
    const char* name;
    Request request;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"nan radius", Request::Range(queries, 0, nan),
       "range radius must be non-negative"},
      {"negative radius", Request::Range(queries, 0, -1.0f),
       "range radius must be non-negative"},
      {"nan bound_cap", capped(nan), "kNN bound_cap must be non-negative"},
      {"negative bound_cap", capped(-1.0f),
       "kNN bound_cap must be non-negative"},
      {"fraction 0", Request::KnnApprox(queries, 0, 4, 0.0),
       "candidate_fraction must be in (0, 1]"},
      {"fraction 1.5", Request::KnnApprox(queries, 0, 4, 1.5),
       "candidate_fraction must be in (0, 1]"},
      {"wrong kind", Request::Knn(wrong_kind, 0, 4),
       "query object invalid for this index"},
      {"factory index out of range",
       Request::Range(queries, queries.size(), 1.0f),
       "query object invalid for this index"},
  };

  serve::QueryExecutor exec(env.index.get(), serve::ExecutorOptions{2, 0});
  serve::QuerySession session(env.index.get(), &exec);
  serve::SessionRouter router({env.index.get()});
  serve::ShardedFrontend frontend(
      std::vector<GtsIndex*>{env.index.get(), other.index.get()});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const bool is_range =
        std::holds_alternative<serve::RangePayload>(c.request.payload);
    const Response got[] = {session.Submit(c.request).get(),
                            router.Submit(c.request).get(),
                            frontend.Submit(c.request).get()};
    for (const Response& response : got) {
      EXPECT_EQ(std::holds_alternative<serve::RangeResult>(response.result),
                is_range);
      EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(response.status().message(), c.message);
    }
  }
  EXPECT_EQ(session.stats().rejected, cases.size());
  EXPECT_EQ(frontend.stats().scatter_reads, 0u);
}

// Routed unified submissions must match the per-tenant direct answers,
// exact and approximate — the router plumbs one entry point.
TEST(ServeRequestDifferential, RouterUnifiedMatchesDirectPerTenant) {
  Env a = MakeIndexedEnv(DatasetId::kTLoc, 500, 61);
  Env b = MakeIndexedEnv(DatasetId::kWords, 300, 62);
  Env* envs[] = {&a, &b};

  serve::RouterOptions options;
  options.session.max_batch = 6;
  options.executor_threads = 2;
  serve::SessionRouter router({a.index.get(), b.index.get()}, options);

  constexpr uint32_t kQueries = 16;
  for (uint32_t t = 0; t < 2; ++t) {
    const Dataset queries = SampleQueries(envs[t]->data, kQueries, 81 + t);
    std::vector<std::future<Response>> unified, approx;
    for (uint32_t q = 0; q < kQueries; ++q) {
      unified.push_back(
          router.Submit(Request::Knn(queries, q, 6).ForTenant(t)));
      approx.push_back(
          router.Submit(Request::KnnApprox(queries, q, 6, 0.5).ForTenant(t)));
    }
    for (uint32_t q = 0; q < kQueries; ++q) {
      Response got = unified[q].get();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      auto want = envs[t]->index->KnnQuery(queries, q, 6);
      ASSERT_TRUE(want.ok());
      ExpectSameNeighbors(got.knn().value(), want.value());

      Response got_approx = approx[q].get();
      ASSERT_TRUE(got_approx.ok()) << got_approx.status().ToString();
      const uint32_t one[] = {q};
      auto want_approx =
          envs[t]->index->KnnQueryBatchApprox(queries.Slice(one), 6, 0.5);
      ASSERT_TRUE(want_approx.ok());
      ExpectSameNeighbors(got_approx.knn().value(), want_approx.value()[0]);
    }
  }
  router.Drain();
}

}  // namespace
}  // namespace gts
