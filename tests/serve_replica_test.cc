// Replicated ShardedFrontend suite: with every logical shard served by
// `replication_factor` content-identical GtsIndex replicas, scatter reads
// must stay byte-identical to a single index over the whole corpus — no
// matter which replica answers, no matter how many replicas are down, on
// a continuous metric (T-Loc/L2) AND a discrete one (Words/edit distance,
// where distance ties are everywhere and only the canonical (dist, id)
// merge order keeps the equality exact). Failover is driven through the
// deterministic fault layer (common/fault.h): a "dead" replica is one
// whose session.flush site always fires, so the replica does no work and
// diverges no state. Runs under the clang-tsan CI job's Serve re-run.
#include <gtest/gtest.h>

#include "test_util.h"

#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "serve/request.h"
#include "serve/sharded_frontend.h"

namespace gts {
namespace {

using serve::Request;
using serve::Response;

/// A keyed always/probabilistic fault spec: fires (with probability `p`)
/// only for evaluations carrying `key` — here, the replica index.
fault::FaultSpec ReplicaFault(double p, uint64_t key) {
  fault::FaultSpec spec;
  spec.probability = p;
  spec.has_match_key = true;
  spec.match_key = key;
  return spec;
}

struct ReplicatedCorpus {
  Dataset data = Dataset::Strings();
  std::unique_ptr<DistanceMetric> metric;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<GtsIndex> whole;  ///< one index over the full corpus
  /// replicas[s][r]: replica r of shard s. All replicas of a shard are
  /// built from the SAME round-robin slice, so they start byte-identical
  /// — the precondition the frontend's replication contract rests on.
  std::vector<std::vector<std::unique_ptr<GtsIndex>>> replicas;

  std::vector<std::vector<GtsIndex*>> Layout() const {
    std::vector<std::vector<GtsIndex*>> layout(replicas.size());
    for (size_t s = 0; s < replicas.size(); ++s) {
      for (const auto& r : replicas[s]) layout[s].push_back(r.get());
    }
    return layout;
  }
};

ReplicatedCorpus MakeReplicatedCorpus(DatasetId id, uint32_t n,
                                      uint32_t num_shards, uint32_t rf,
                                      uint64_t seed) {
  ReplicatedCorpus c;
  c.data = GenerateDataset(id, n, seed);
  c.metric = MakeDatasetMetric(id);
  c.device = std::make_unique<gpu::Device>();

  std::vector<uint32_t> all(c.data.size());
  std::iota(all.begin(), all.end(), 0u);
  auto whole = GtsIndex::Build(c.data.Slice(all), c.metric.get(),
                               c.device.get(), GtsOptions{});
  EXPECT_TRUE(whole.ok()) << whole.status().ToString();
  c.whole = std::move(whole).value();

  c.replicas.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::vector<uint32_t> ids;
    for (uint32_t g = s; g < c.data.size(); g += num_shards) ids.push_back(g);
    for (uint32_t r = 0; r < rf; ++r) {
      auto shard = GtsIndex::Build(c.data.Slice(ids), c.metric.get(),
                                   c.device.get(), GtsOptions{});
      EXPECT_TRUE(shard.ok()) << shard.status().ToString();
      c.replicas[s].push_back(std::move(shard).value());
    }
  }
  return c;
}

/// Byte-identity of one frontend read wave against the whole index: range
/// hits (ids) and exact kNN (ids AND bitwise distances).
void ExpectWaveMatchesWhole(serve::ShardedFrontend* frontend,
                            const ReplicatedCorpus& c, const Dataset& queries,
                            float radius, uint32_t k) {
  std::vector<std::future<Response>> range_futures, knn_futures;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    range_futures.push_back(
        frontend->Submit(Request::Range(queries, q, radius)));
    knn_futures.push_back(frontend->Submit(Request::Knn(queries, q, k)));
  }
  for (uint32_t q = 0; q < queries.size(); ++q) {
    Response range = range_futures[q].get();
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    auto want_range = c.whole->RangeQuery(queries, q, radius);
    ASSERT_TRUE(want_range.ok());
    EXPECT_EQ(range.range().value(), want_range.value()) << "query " << q;

    Response knn = knn_futures[q].get();
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    auto want_knn = c.whole->KnnQuery(queries, q, k);
    ASSERT_TRUE(want_knn.ok());
    const auto& got = knn.knn().value();
    ASSERT_EQ(got.size(), want_knn.value().size()) << "query " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      // Exact equality on purpose: whichever replicas served, the merge
      // must reproduce the single-index computation bit-for-bit.
      EXPECT_EQ(got[i].id, want_knn.value()[i].id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(got[i].dist, want_knn.value()[i].dist);
    }
  }
}

// The headline differential: replication_factor 1/2/3 × 1/2/4 shards on
// both metric families, zero faults armed — results byte-identical to the
// single index, and the failover machinery provably idle (no failovers,
// no degraded picks; replicas all healthy).
TEST(ServeReplicaDifferential, ReplicatedReadsMatchSingleIndex) {
  fault::Registry::Instance().ResetForTest(1);
  struct Config {
    DatasetId id;
    uint32_t n;
  };
  for (const Config& cfg :
       {Config{DatasetId::kTLoc, 600}, Config{DatasetId::kWords, 300}}) {
    for (const uint32_t num_shards : {1u, 2u, 4u}) {
      for (const uint32_t rf : {1u, 2u, 3u}) {
        SCOPED_TRACE("dataset=" + std::string(GetDatasetSpec(cfg.id).name) +
                     " shards=" + std::to_string(num_shards) +
                     " rf=" + std::to_string(rf));
        ReplicatedCorpus c =
            MakeReplicatedCorpus(cfg.id, cfg.n, num_shards, rf, 11);
        const float r = cfg.id == DatasetId::kWords
                            ? 2.0f
                            : CalibrateRadius(c.data, *c.metric, 0.02, 100, 7);
        const Dataset queries = SampleQueries(c.data, 12, 61);

        serve::FrontendOptions options;
        options.session.max_batch = 6;
        options.executor_threads = 4;
        serve::ShardedFrontend frontend(c.Layout(), options);
        ASSERT_EQ(frontend.num_shards(), num_shards);
        ASSERT_EQ(frontend.replication_factor(), rf);

        ExpectWaveMatchesWhole(&frontend, c, queries, r, 7);
        frontend.Drain();

        const serve::FrontendStats stats = frontend.stats();
        EXPECT_EQ(stats.replication_factor, rf);
        ASSERT_EQ(stats.shards.size(), size_t{num_shards} * rf);
        // With nothing armed the failover machinery must be provably
        // inert — this is the zero-fault no-behavior-change regression.
        EXPECT_EQ(stats.failovers, 0u);
        EXPECT_EQ(stats.read_retries, 0u);
        EXPECT_EQ(stats.unhealthy_transitions, 0u);
        EXPECT_EQ(stats.degraded_reads, 0u);
        EXPECT_EQ(stats.rejected, 0u);
        EXPECT_EQ(stats.completed, stats.submitted);
        // Scatter accounting survives replication: each planned read
        // resolves each SHARD exactly once (replicas don't multiply
        // sub-queries — only availability).
        EXPECT_EQ(stats.scatter_reads, uint64_t{2} * queries.size());
        EXPECT_EQ(stats.submitted + stats.pruned_shard_queries,
                  uint64_t{2} * queries.size() * num_shards);
      }
    }
  }
}

// One replica of EVERY shard dead from the start (its flushes always fail
// before any query executes): every read still succeeds, byte-identical,
// on both metric families — and the failover counters prove the dead
// replica was actually hit, failed over from, and marked unhealthy.
TEST(ServeReplicaFailover, DeadReplicaServesByteIdenticalReads) {
  fault::Registry::Instance().ResetForTest(2);
  for (const DatasetId id : {DatasetId::kTLoc, DatasetId::kWords}) {
    SCOPED_TRACE("dataset=" + std::string(GetDatasetSpec(id).name));
    ReplicatedCorpus c = MakeReplicatedCorpus(
        id, id == DatasetId::kWords ? 300 : 600, /*num_shards=*/2,
        /*rf=*/2, 13);
    const float r = id == DatasetId::kWords
                        ? 2.0f
                        : CalibrateRadius(c.data, *c.metric, 0.02, 100, 7);
    const Dataset queries = SampleQueries(c.data, 16, 71);

    serve::FrontendOptions options;
    options.session.max_batch = 4;
    serve::ShardedFrontend frontend(c.Layout(), options);

    {
      // Replica 1 of every shard is dead: its flushes fail wholesale.
      fault::ScopedFaultForTest dead("session.flush",
                                     ReplicaFault(1.0, /*key=*/1));
      ExpectWaveMatchesWhole(&frontend, c, queries, r, 7);
    }
    frontend.Drain();

    const serve::FrontendStats stats = frontend.stats();
    // Round-robin picking must have offered replica 1 work, every such
    // sub-query must have failed over, and the health machinery must
    // have noticed.
    EXPECT_GE(stats.failovers, 1u);
    EXPECT_GE(stats.read_retries, stats.failovers);
    EXPECT_GE(stats.unhealthy_transitions, 1u);
    // Replica 0 stayed healthy throughout: no degraded picks.
    EXPECT_EQ(stats.degraded_reads, 0u);
  }
}

// A replica killed MID-RUN: a healthy wave first, then the kill switch
// flips while reads flow (failover takes over, byte-identity holds), then
// the fault clears and the health probe rediscovers the replica.
TEST(ServeReplicaFailover, ReplicaKilledMidRunThenRecovers) {
  fault::Registry::Instance().ResetForTest(3);
  ReplicatedCorpus c = MakeReplicatedCorpus(DatasetId::kTLoc, 600,
                                            /*num_shards=*/2, /*rf=*/2, 17);
  const float r = CalibrateRadius(c.data, *c.metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(c.data, 12, 81);

  serve::FrontendOptions options;
  options.session.max_batch = 4;
  options.probe_period = 2;  // probe aggressively so recovery is observed
  serve::ShardedFrontend frontend(c.Layout(), options);

  // Wave 1: healthy.
  ExpectWaveMatchesWhole(&frontend, c, queries, r, 5);
  const serve::FrontendStats healthy = frontend.stats();
  EXPECT_EQ(healthy.failovers, 0u);

  // Wave 2: replica 1 dies mid-run; reads keep flowing and stay exact.
  {
    fault::ScopedFaultForTest dead("session.flush",
                                   ReplicaFault(1.0, /*key=*/1));
    ExpectWaveMatchesWhole(&frontend, c, queries, r, 5);
  }
  const serve::FrontendStats after_kill = frontend.stats();
  EXPECT_GE(after_kill.failovers, 1u);
  EXPECT_GE(after_kill.unhealthy_transitions, 1u);

  // Wave 3: the fault is gone; the probe cadence must rediscover replica
  // 1 and flip it back to healthy. Reads stay byte-identical throughout.
  ExpectWaveMatchesWhole(&frontend, c, queries, r, 5);
  frontend.Drain();
  const serve::FrontendStats recovered = frontend.stats();
  EXPECT_GE(recovered.health_probes, 1u);
  EXPECT_GE(recovered.replica_recoveries, 1u);
  EXPECT_EQ(recovered.degraded_reads, 0u);
}

// Satellite: a write whose ack is lost on SOME replicas is an explicit
// kUnavailable naming the failed replica set — never a silent success —
// while the write itself applied everywhere (the ack-drop site fires at
// the gather, after the replicas applied), so replica content never
// forks and reads stay byte-identical afterwards.
TEST(ServeReplicaWrites, PartialAckIsExplicitUnavailable) {
  fault::Registry::Instance().ResetForTest(4);
  ReplicatedCorpus c = MakeReplicatedCorpus(DatasetId::kTLoc, 300,
                                            /*num_shards=*/2, /*rf=*/2, 19);
  const Dataset donors = GenerateDataset(DatasetId::kTLoc, 4, 99);
  serve::ShardedFrontend frontend(c.Layout());

  uint32_t inserted_gid = 0;
  {
    // Replica 1's write acks are dropped AFTER the apply.
    fault::ScopedFaultForTest drop("shard.write-ack",
                                   ReplicaFault(1.0, /*key=*/1));
    Response inserted = frontend.Submit(Request::Insert(donors, 0)).get();
    ASSERT_FALSE(inserted.ok());
    EXPECT_EQ(inserted.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(inserted.status().message().find("replica set {1}"),
              std::string::npos)
        << inserted.status().message();

    Response removed = frontend.Submit(Request::Remove(0)).get();
    ASSERT_FALSE(removed.ok());
    EXPECT_EQ(removed.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(removed.status().message().find("replica set {1}"),
              std::string::npos)
        << removed.status().message();
  }
  frontend.Drain();
  const serve::FrontendStats stats = frontend.stats();
  EXPECT_GE(stats.partial_write_acks, 2u);
  // Both writes applied on BOTH replicas of their shards — content never
  // forked; only the acknowledgement was degraded.
  for (uint32_t s = 0; s < frontend.num_shards(); ++s) {
    EXPECT_EQ(c.replicas[s][0]->alive_size(), c.replicas[s][1]->alive_size())
        << "shard " << s << " replicas diverged on a partial ack";
  }

  // With the fault gone the same insert round-trips cleanly and the
  // object is immediately queryable — at distance 0 from itself.
  Response inserted = frontend.Submit(Request::Insert(donors, 1)).get();
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  inserted_gid = inserted.inserted().value();
  Response knn = frontend.Submit(Request::Knn(donors, 1, 1)).get();
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn.knn().value().size(), 1u);
  EXPECT_EQ(knn.knn().value()[0].dist, 0.0f);
  EXPECT_EQ(knn.knn().value()[0].id, inserted_gid);
}

// Write churn through the frontend keeps every replica of every shard
// byte-identical (same alive counts, same answers to probe queries), and
// the frontend's merged answers equal the whole index mirrored through
// the same id-stable removals — at replication_factor 3.
TEST(ServeReplicaWrites, ChurnKeepsReplicasByteIdentical) {
  fault::Registry::Instance().ResetForTest(5);
  constexpr uint32_t kShards = 2, kRf = 3;
  ReplicatedCorpus c =
      MakeReplicatedCorpus(DatasetId::kTLoc, 600, kShards, kRf, 23);
  const float r = CalibrateRadius(c.data, *c.metric, 0.03, 100, 7);
  const Dataset queries = SampleQueries(c.data, 10, 91);
  const Dataset donors = GenerateDataset(DatasetId::kTLoc, 8, 101);

  serve::ShardedFrontend frontend(c.Layout());

  // Id-stable removal churn, mirrored on the whole index.
  for (const uint32_t id : {3u, 40u, 41u, 202u}) {
    Response removed = frontend.Submit(Request::Remove(id)).get();
    ASSERT_TRUE(removed.ok()) << removed.status().ToString();
    ASSERT_TRUE(c.whole->Remove(id).ok());
  }
  std::vector<uint32_t> batch_removals = {17, 18, 119};
  Response batched =
      frontend
          .Submit(Request::BatchUpdate(
              c.data.Slice(std::span<const uint32_t>{}), batch_removals))
          .get();
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_TRUE(c.whole
                  ->BatchUpdate(c.data.Slice(std::span<const uint32_t>{}),
                                batch_removals)
                  .ok());

  // Hash-routed inserts + their removals (round-tripped so the
  // whole-index mirror stays id-exact), then a rebuild everywhere.
  for (uint32_t d = 0; d < donors.size(); ++d) {
    Response ins = frontend.Submit(Request::Insert(donors, d)).get();
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    Response rem = frontend.Submit(Request::Remove(ins.inserted().value())).get();
    ASSERT_TRUE(rem.ok()) << rem.status().ToString();
  }
  Response rebuilt = frontend.Submit(Request::Rebuild()).get();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_TRUE(c.whole->Rebuild().ok());
  frontend.Drain();

  // Merge identity: the frontend's post-churn answers equal the whole
  // index's.
  ExpectWaveMatchesWhole(&frontend, c, queries, r, 5);
  frontend.Drain();

  // Replica identity: every replica of a shard answers every probe query
  // identically and holds the same alive set size.
  for (uint32_t s = 0; s < kShards; ++s) {
    for (uint32_t rep = 1; rep < kRf; ++rep) {
      SCOPED_TRACE("shard=" + std::to_string(s) +
                   " replica=" + std::to_string(rep));
      EXPECT_EQ(c.replicas[s][rep]->alive_size(),
                c.replicas[s][0]->alive_size());
      for (uint32_t q = 0; q < queries.size(); ++q) {
        auto want = c.replicas[s][0]->KnnQuery(queries, q, 5);
        auto got = c.replicas[s][rep]->KnnQuery(queries, q, 5);
        ASSERT_TRUE(want.ok() && got.ok());
        ASSERT_EQ(got.value().size(), want.value().size()) << "query " << q;
        for (size_t i = 0; i < got.value().size(); ++i) {
          EXPECT_EQ(got.value()[i].id, want.value()[i].id);
          EXPECT_EQ(got.value()[i].dist, want.value()[i].dist);
        }
      }
    }
  }
  // The frontend's writer accounting fanned every update to all replicas:
  // per-replica session writer_ops must agree within each shard.
  const serve::FrontendStats stats = frontend.stats();
  ASSERT_EQ(stats.shards.size(), size_t{kShards} * kRf);
  for (uint32_t s = 0; s < kShards; ++s) {
    for (uint32_t rep = 1; rep < kRf; ++rep) {
      EXPECT_EQ(stats.shards[s * kRf + rep].writer_ops,
                stats.shards[s * kRf].writer_ops)
          << "shard " << s << " replica " << rep;
    }
  }
}

}  // namespace
}  // namespace gts
