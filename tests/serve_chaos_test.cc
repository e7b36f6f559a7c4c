// Chaos soak (ctest-bounded): concurrent write churn and scattered reads
// against a replicated ShardedFrontend while the fault layer randomly
// kills replica 1's flushes, drops its read answers, and loses its write
// acks. The run is DETERMINISTICALLY replayable: every fault decision
// derives from one seed (GTS_FAULT_SEED overrides it; the seed is in
// every failure message via SCOPED_TRACE), so a red run reproduces
// exactly with `GTS_FAULT_SEED=<seed> ctest -R ServeChaos`.
//
// Invariants the soak asserts:
//  - every read succeeds (replica 0 never faults, so failover always has
//    somewhere to land) — no fault combination may surface to a reader;
//  - no lost acks: an insert whose ack came back OK is durably present
//    on EVERY replica of its home shard (distance-0 self-lookup);
//  - no duplicate global ids among acked inserts;
//  - merge identity at the end: the replicas of each shard hold the same
//    alive set and answer probe queries byte-identically — fault-driven
//    failover never forked replica content.
#include <gtest/gtest.h>

#include "test_util.h"

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
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

fault::FaultSpec ReplicaFault(double p, uint64_t key) {
  fault::FaultSpec spec;
  spec.probability = p;
  spec.has_match_key = true;
  spec.match_key = key;
  return spec;
}

TEST(ServeChaosSoak, FaultChurnLosesNoAcksAndForksNoReplica) {
  // One seed drives every fault decision; override to replay a red run.
  const uint64_t seed = static_cast<uint64_t>(
      GetEnvInt64("GTS_FAULT_SEED", 0x676474735f736f6bll));
  SCOPED_TRACE("replay with GTS_FAULT_SEED=" + std::to_string(seed));
  fault::Registry& reg = fault::Registry::Instance();
  reg.ResetForTest(seed);

  constexpr uint32_t kShards = 2, kRf = 2;
  const Dataset data = GenerateDataset(DatasetId::kTLoc, 500, 37);
  const auto metric = MakeDatasetMetric(DatasetId::kTLoc);
  gpu::Device device;
  std::vector<std::vector<std::unique_ptr<GtsIndex>>> replicas(kShards);
  std::vector<std::vector<GtsIndex*>> layout(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    std::vector<uint32_t> ids;
    for (uint32_t g = s; g < data.size(); g += kShards) ids.push_back(g);
    for (uint32_t r = 0; r < kRf; ++r) {
      auto shard = GtsIndex::Build(data.Slice(ids), metric.get(), &device,
                                   GtsOptions{});
      ASSERT_TRUE(shard.ok()) << shard.status().ToString();
      replicas[s].push_back(std::move(shard).value());
      layout[s].push_back(replicas[s][r].get());
    }
  }
  const float r = CalibrateRadius(data, *metric, 0.02, 100, 7);
  const Dataset queries = SampleQueries(data, 16, 47);
  const Dataset donors = GenerateDataset(DatasetId::kTLoc, 24, 211);

  serve::FrontendOptions options;
  options.session.max_batch = 4;
  options.session.admission = serve::AdmissionPolicy::kBlock;
  options.executor_threads = 4;
  serve::ShardedFrontend frontend(layout, options);

  // Replica 1 of every shard is flaky THREE ways at once: its read
  // flushes die outright, surviving answers get dropped at the gather,
  // and its write acks get lost after the apply. Replica 0 never faults
  // — every failover has a healthy landing spot, which is exactly the
  // availability model replication buys.
  reg.Arm("session.flush", ReplicaFault(0.30, /*key=*/1));
  reg.Arm("shard.read", ReplicaFault(0.15, /*key=*/1));
  reg.Arm("shard.write-ack", ReplicaFault(0.10, /*key=*/1));

  std::mutex acked_mu;
  std::vector<uint32_t> acked_gids;     // inserts whose ack came back OK
  std::atomic<uint64_t> read_failures{0};
  std::atomic<uint64_t> removed_ok{0};

  std::vector<std::thread> threads;
  // Inserter: hash-routed donors; an ack lost to the fault layer is an
  // expected kUnavailable (the write still applied — the merge-identity
  // check at the end proves it), an acked gid must be durable.
  threads.emplace_back([&] {
    for (uint32_t d = 0; d < donors.size(); ++d) {
      Response ins = frontend.Submit(Request::Insert(donors, d)).get();
      if (ins.ok()) {
        std::lock_guard<std::mutex> lock(acked_mu);
        acked_gids.push_back(ins.inserted().value());
      } else {
        EXPECT_EQ(ins.status().code(), StatusCode::kUnavailable)
            << ins.status().ToString();
      }
    }
  });
  // Remover: churns a reserved id range the probe queries never assert
  // on. A lost ack reports kUnavailable though the removal applied;
  // either way replica content must stay identical.
  threads.emplace_back([&] {
    for (uint32_t id = 400; id < 420; ++id) {
      Response rem = frontend.Submit(Request::Remove(id)).get();
      if (rem.ok()) {
        removed_ok.fetch_add(1);
      } else {
        EXPECT_EQ(rem.status().code(), StatusCode::kUnavailable)
            << rem.status().ToString();
      }
    }
  });
  // Readers: scattered range reads, no deadlines (failover is driven by
  // unavailability alone, so success is deterministic: replica 0 always
  // answers). EVERY read must succeed while replicas flap.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        Response got =
            frontend
                .Submit(Request::Range(queries, (t + i) % queries.size(), r))
                .get();
        if (!got.ok()) read_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  frontend.Drain();
  reg.ResetForTest(seed);  // disarm before the verification reads

  EXPECT_EQ(read_failures.load(), 0u);

  // No duplicate global ids among acked inserts.
  std::set<uint32_t> unique_gids(acked_gids.begin(), acked_gids.end());
  EXPECT_EQ(unique_gids.size(), acked_gids.size());

  // No lost acks: every acked insert is ALIVE on EVERY replica of its
  // home shard under the local id its global id encodes (the donors'
  // local ids sit above the seed corpus, so the remover's churn range
  // cannot collide with them).
  for (const uint32_t gid : acked_gids) {
    const uint32_t shard = frontend.ShardOfId(gid);
    const uint32_t local = frontend.LocalId(gid);
    for (uint32_t rep = 0; rep < kRf; ++rep) {
      EXPECT_TRUE(replicas[shard][rep]->IsAlive(local))
          << "acked gid " << gid << " missing on shard " << shard
          << " replica " << rep;
    }
  }

  // Merge identity: replica content never forked. Same alive sets, and
  // byte-identical answers to every probe query on every shard.
  const serve::FrontendStats stats = frontend.stats();
  for (uint32_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard=" + std::to_string(s));
    EXPECT_EQ(replicas[s][0]->alive_size(), replicas[s][1]->alive_size());
    for (uint32_t q = 0; q < queries.size(); ++q) {
      auto want = replicas[s][0]->KnnQuery(queries, q, 5);
      auto got = replicas[s][1]->KnnQuery(queries, q, 5);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(got.value().size(), want.value().size()) << "query " << q;
      for (size_t i = 0; i < want.value().size(); ++i) {
        EXPECT_EQ(got.value()[i].id, want.value()[i].id)
            << "query " << q << " rank " << i;
        EXPECT_EQ(got.value()[i].dist, want.value()[i].dist);
      }
    }
    // Replicas saw the same writer traffic (writes fan out regardless of
    // health).
    EXPECT_EQ(stats.shards[s * kRf].writer_ops,
              stats.shards[s * kRf + 1].writer_ops);
  }
  reg.ResetForTest(0);
}

}  // namespace
}  // namespace gts
