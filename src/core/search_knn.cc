// Batched metric kNN query (paper Algorithm 5).
//
// Level-synchronous descent like Algorithm 4; every probed pivot is a real
// dataset object, so its distance feeds a per-query running top-k whose k-th
// value is the pruning bound of Lemma 5.2. The running top-k deduplicates by
// object id (a pivot is re-seen when its leaf is verified) and skips
// tombstoned objects, both required for exactness.
//
// Like the range query, the descent reads only through the QueryContext's
// pinned version — lock-free, and unperturbed by concurrent updates.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "core/gts.h"
#include "gpu/primitives.h"

namespace gts {

namespace {
constexpr float kNoParent = std::numeric_limits<float>::quiet_NaN();
// Candidates a query orders in its first round of lazy selection (see
// VerifyKnnLeaves); each later round orders twice as many.
constexpr size_t kFirstChunk = 256;
}  // namespace

void GtsIndex::KnnState::Offer(uint32_t id, float dist) {
  // The running top-k keeps the canonical (dist, id) total order: distance
  // ties break toward the smaller object id. The order is a result
  // contract, not a convenience — selection by a total order commutes with
  // partitioning the candidate set, which is what lets an object-sharded
  // deployment (serve::ShardedFrontend) merge per-shard top-k lists back
  // byte-identically to a single-index run even on discrete metrics (edit
  // distance) where ties are everywhere. The pruning bound (Bound() =
  // topk.back().dist) is unchanged by the tie order, so traversal, stats,
  // and modeled time are identical to a tie-agnostic top-k.
  if (topk.size() == k &&
      (dist > topk.back().dist ||
       (dist == topk.back().dist && id >= topk.back().id))) {
    return;
  }
  for (const Neighbor& nb : topk) {
    if (nb.id == id) return;  // duplicate sample of the same object
  }
  const auto it = std::lower_bound(
      topk.begin(), topk.end(), Neighbor{id, dist},
      [](const Neighbor& a, const Neighbor& b) {
        if (a.dist != b.dist) return a.dist < b.dist;
        return a.id < b.id;
      });
  topk.insert(it, Neighbor{id, dist});
  if (topk.size() > k) topk.pop_back();
}

Result<KnnResults> GtsIndex::KnnQueryBatchApprox(const Dataset& queries,
                                                 uint32_t k,
                                                 double candidate_fraction,
                                                 GtsQueryStats* stats_out) const {
  epoch::Guard guard(&epoch_);  // pin BEFORE the version load
  return KnnQueryBatchOn(Current(), queries, k, candidate_fraction, {},
                         stats_out);
}

Result<KnnResults> GtsIndex::KnnQueryBatch(const Dataset& queries, uint32_t k,
                                           GtsQueryStats* stats_out) const {
  epoch::Guard guard(&epoch_);  // pin BEFORE the version load
  return KnnQueryBatchOn(Current(), queries, k, /*candidate_fraction=*/1.0,
                         {}, stats_out);
}

Result<KnnResults> GtsIndex::KnnQueryBatchBounded(
    const Dataset& queries, uint32_t k, std::span<const float> initial_bounds,
    GtsQueryStats* stats_out) const {
  epoch::Guard guard(&epoch_);  // pin BEFORE the version load
  return KnnQueryBatchOn(Current(), queries, k, /*candidate_fraction=*/1.0,
                         initial_bounds, stats_out);
}

Result<KnnResults> GtsIndex::KnnQueryBatchOn(
    const Version& v, const Dataset& queries, uint32_t k,
    double candidate_fraction, std::span<const float> initial_bounds,
    GtsQueryStats* stats_out, double anchor_ns) const {
  if (candidate_fraction <= 0.0 || candidate_fraction > 1.0) {
    return Status::InvalidArgument("candidate_fraction must be in (0, 1]");
  }
  if (!initial_bounds.empty() && initial_bounds.size() != queries.size()) {
    return Status::InvalidArgument("one initial bound per query required");
  }
  for (const float b : initial_bounds) {
    if (!(b >= 0.0f)) {  // rejects negatives and NaN
      return Status::InvalidArgument("initial bounds must be non-negative");
    }
  }
  QueryContext ctx(*device_, v);
  if (anchor_ns >= 0.0) ctx.start_ns = anchor_ns;
  ctx.candidate_fraction = candidate_fraction;
  auto result = KnnQueryBatchImpl(queries, k, initial_bounds, &ctx);
  AccumulateStats(ctx, stats_out);
  return result;
}

Result<KnnResults> GtsIndex::KnnQueryBatchImpl(
    const Dataset& queries, uint32_t k, std::span<const float> initial_bounds,
    QueryContext* ctx) const {
  if (!queries.CompatibleWith(ctx->data())) {
    return Status::InvalidArgument("query objects incompatible with dataset");
  }
  KnnResults out(queries.size());
  if (k == 0) return out;

  std::vector<KnnState> states(queries.size());
  for (auto& s : states) s.k = k;
  for (size_t q = 0; q < initial_bounds.size(); ++q) {
    states[q].cap = initial_bounds[q];
  }

  if (ctx->indexed_count() > 0) {
    std::vector<Entry> frontier;
    frontier.reserve(queries.size());
    for (uint32_t q = 0; q < queries.size(); ++q) {
      frontier.push_back(Entry{1, q, kNoParent});
    }
    GTS_RETURN_IF_ERROR(KnnLevel(frontier, 1, queries, &states, ctx));
  }
  SearchCacheKnn(queries, &states, ctx);

  for (uint32_t q = 0; q < queries.size(); ++q) {
    out[q] = std::move(states[q].topk);
  }
  return out;
}

Status GtsIndex::KnnLevel(std::span<const Entry> frontier, uint32_t layer,
                          const Dataset& queries,
                          std::vector<KnnState>* states,
                          QueryContext* ctx) const {
  if (frontier.empty()) return Status::Ok();
  if (layer == ctx->height()) {
    VerifyKnnLeaves(frontier, queries, states, ctx);
    return Status::Ok();
  }

  const uint32_t nc = options_.node_capacity;
  const auto groups = GroupFrontier(frontier, LevelEntryLimit(layer, *ctx));
  ctx->stats.query_groups += groups.size();

  for (const auto& [begin, end] : groups) {
    const auto group = frontier.subspan(begin, end - begin);

    auto buf_r = gpu::DeviceBuffer<Entry>::Create(
        device_, group.size() * nc, "MkNNQ frontier");
    if (!buf_r.ok()) return buf_r.status();
    auto& buf = buf_r.value();

    // Kernel A: pivot distances, batched per query segment (the frontier
    // is sorted by query); each is an exact object distance and feeds the
    // query's running top-k (Algorithm 5 lines 7-12). The Offers happen
    // after a segment's distances are computed, in the original entry
    // order — the top-k is a selection, so its content is order-free, and
    // the pruning bound is only read after this kernel completes.
    std::vector<float> dq(group.size());
    {
      gpu::KernelDistanceScope scope(&ctx->clock, metric_, group.size());
      std::vector<uint32_t> pivots;
      size_t i = 0;
      while (i < group.size()) {
        size_t j = i;
        pivots.clear();
        while (j < group.size() && group[j].query == group[i].query) {
          pivots.push_back(ctx->node(group[j].node).pivot);
          ++j;
        }
        QueryObjectDistances(queries, group[i].query, pivots, ctx,
                             dq.data() + i);
        for (size_t t = i; t < j; ++t) {
          if (ctx->alive()[pivots[t - i]]) {
            (*states)[group[t].query].Offer(pivots[t - i], dq[t]);
          }
        }
        i = j;
      }
    }
    // The paper locates the running k-th distance with a device-wide
    // encode-sort of the candidate distances; charge the equivalent.
    ctx->clock.ChargeSort(group.size());
    ctx->stats.nodes_visited += group.size();

    // Kernel B: ring pruning with the current bound (Lemma 5.2).
    size_t emitted = 0;
    for (size_t i = 0; i < group.size(); ++i) {
      const float bound = (*states)[group[i].query].Bound();
      for (uint32_t j = 0; j < nc; ++j) {
        const uint64_t cid = ChildNodeId(group[i].node, j, nc);
        const GtsNode& child = ctx->node(cid);
        if (child.size == 0) continue;
        if (dq[i] - child.max_dis > bound || child.min_dis - dq[i] > bound) {
          ++ctx->stats.nodes_pruned;
          continue;
        }
        buf[emitted++] =
            Entry{static_cast<uint32_t>(cid), group[i].query, dq[i]};
      }
    }
    ctx->clock.ChargeKernel(static_cast<uint64_t>(group.size()) * nc,
                            static_cast<uint64_t>(group.size()) * nc * 4);

    GTS_RETURN_IF_ERROR(KnnLevel(std::span<const Entry>(buf.data(), emitted),
                                 layer + 1, queries, states, ctx));
  }
  return Status::Ok();
}

void GtsIndex::VerifyKnnLeaves(std::span<const Entry> frontier,
                               const Dataset& queries,
                               std::vector<KnnState>* states,
                               QueryContext* ctx) const {
  const std::span<const float> tl_dis = ctx->tl_dis();
  const std::span<const uint32_t> tl_object = ctx->tl_object();
  const std::span<const uint8_t> alive = ctx->alive();

  // Two-kernel leaf verification (Algorithm 5's "select the current best k
  // to derive the narrowed bound, then prune"): kernel A verifies each
  // query's first surviving leaf to seed the k-bound; kernel B filters the
  // remaining leaves' objects through the stored pivot column against that
  // bound before computing exact distances.
  // Pre-pass: per query, pick the leaf whose ring best matches the query's
  // pivot distance — its objects are the likeliest near-neighbours.
  std::vector<size_t> seed_entry(states->size(), SIZE_MAX);
  for (size_t i = 0; i < frontier.size(); ++i) {
    const Entry& e = frontier[i];
    if (std::isnan(e.parent_dq)) {  // single-level tree: any leaf
      if (seed_entry[e.query] == SIZE_MAX) seed_entry[e.query] = i;
      continue;
    }
    const auto ring_gap = [&](size_t fi) {
      const GtsNode& leaf = ctx->node(frontier[fi].node);
      if (frontier[fi].parent_dq < leaf.min_dis) {
        return leaf.min_dis - frontier[fi].parent_dq;
      }
      if (frontier[fi].parent_dq > leaf.max_dis) {
        return frontier[fi].parent_dq - leaf.max_dis;
      }
      return 0.0f;
    };
    if (seed_entry[e.query] == SIZE_MAX ||
        ring_gap(i) < ring_gap(seed_entry[e.query])) {
      seed_entry[e.query] = i;
    }
  }
  ctx->clock.ChargeScan(frontier.size());

  // Kernel A scores each seed leaf with one block call per run of alive
  // slots (the whole leaf when nothing is tombstoned), then feeds the
  // top-k in slot order — the evaluated set and every Offer are identical
  // to the historical per-object loop.
  uint64_t seed_scanned = 0;
  {
    gpu::KernelDistanceScope scope(&ctx->clock, metric_,
                                   gpu::KernelDistanceScope::kAutoItems);
    std::vector<float> dist;
    for (const size_t i : seed_entry) {
      if (i == SIZE_MAX) continue;
      const Entry& e = frontier[i];
      const GtsNode& leaf = ctx->node(e.node);
      seed_scanned += leaf.size;
      for (uint32_t j = 0; j < leaf.size;) {
        if (!alive[tl_object[leaf.pos + j]]) {
          ++j;
          continue;
        }
        uint32_t run = j + 1;
        while (run < leaf.size && alive[tl_object[leaf.pos + run]]) ++run;
        dist.resize(run - j);
        QuerySlotDistances(queries, e.query, leaf.pos + j, run - j, ctx,
                           dist.data());
        for (uint32_t t = j; t < run; ++t) {
          (*states)[e.query].Offer(tl_object[leaf.pos + t], dist[t - j]);
        }
        j = run;
      }
    }
  }
  ctx->stats.objects_verified += seed_scanned;

  // Kernels B1 + B2, fused into one pass per query over its contiguous run
  // of the frontier (sorted by query, as GroupFrontier relies on). B1
  // filters the query's non-seed leaves through the stored pivot column
  // against the seeded bound; each survivor carries its annulus gap
  // |tl_dis - dq|, a lower bound on its true distance (Lemma 5.2). B2
  // verifies survivors in ascending (gap, idx) order so the bound tightens
  // as early as possible, re-checking each gap against the bound the
  // previous Offers tightened — whether a distance is evaluated at all
  // depends on the preceding evaluations, so they stay one call each. The
  // table index breaks gap ties: equal-gap candidates must verify in a
  // deterministic order or ties at the k-th boundary would depend on how
  // the batch was composed (the sharded executor must be byte-identical to
  // the single-threaded batch).
  //
  // Algorithm 5 orders the candidates with a device-wide encode-sort, and
  // the model charges that sort. The host orders them lazily instead, in
  // rounds: each moves the next chunk of smallest keys to the front
  // (nth_element), sorts just that chunk and verifies it, and the chunk
  // doubles every round. Verification stops at the first gap above
  // Bound(): the bound never grows, so the sorted scan would skip every
  // later candidate too. Both evaluate the same candidates in the same
  // order, but a query the bound stops early (T-Loc: a few hundred of
  // ~40k candidates) costs the host about one linear pass, and one that
  // verifies most of its candidates (edit distance, Color) about one sort.
  //
  // Keys pack (gap, idx) into one word, gap bits high: gaps are
  // non-negative floats, whose bit patterns order like their values.
  std::vector<uint64_t> candidates;  // one query's, reused
  uint64_t scanned = 0;
  uint64_t total_candidates = 0;
  const DistanceStats b2_start = DistanceMetric::ThreadStats();
  for (size_t begin = 0; begin < frontier.size();) {
    const uint32_t q = frontier[begin].query;
    assert(begin == 0 || frontier[begin - 1].query < q);
    size_t end = begin;
    while (end < frontier.size() && frontier[end].query == q) ++end;
    KnnState& state = (*states)[q];

    // B1: filter with the seeded bound.
    const float bound = state.Bound();
    candidates.clear();
    for (size_t fi = begin; fi < end; ++fi) {
      if (seed_entry[q] == fi) continue;  // already verified
      const Entry& e = frontier[fi];
      const GtsNode& leaf = ctx->node(e.node);
      const bool has_parent = e.node != 1;
      scanned += leaf.size;
      for (uint32_t j = 0; j < leaf.size; ++j) {
        const uint32_t idx = leaf.pos + j;
        const float gap =
            has_parent ? std::fabs(tl_dis[idx] - e.parent_dq) : 0.0f;
        if (gap > bound) continue;
        if (!alive[tl_object[idx]]) continue;
        candidates.push_back(uint64_t{std::bit_cast<uint32_t>(gap)} << 32 |
                             idx);
      }
    }
    total_candidates += candidates.size();
    begin = end;

    // Approximate mode: the query verifies only the best fraction of its
    // candidates (by annulus gap), never fewer than 2k; the budget is spent
    // by every candidate reached, verified or not. Exact mode keeps all.
    size_t budget = candidates.size();
    if (ctx->candidate_fraction < 1.0) {
      const uint32_t total = static_cast<uint32_t>(candidates.size());
      budget = std::max<uint32_t>(
          state.k * 2, static_cast<uint32_t>(ctx->candidate_fraction * total));
    }

    // B2: verify in ascending (gap, idx) order until the bound or the
    // budget runs out.
    bool open = true;  // false once a gap exceeds the bound
    auto first = candidates.begin();
    for (size_t chunk = kFirstChunk;
         open && budget > 0 && first != candidates.end(); chunk *= 2) {
      auto last = candidates.end();
      if (static_cast<size_t>(last - first) > chunk) {
        last = first + chunk;
        std::nth_element(first, last, candidates.end());
      }
      std::sort(first, last);
      for (; budget > 0 && first != last; ++first, --budget) {
        const float gap =
            std::bit_cast<float>(static_cast<uint32_t>(*first >> 32));
        if (gap > state.Bound()) {
          open = false;
          break;
        }
        const uint32_t id = tl_object[static_cast<uint32_t>(*first)];
        state.Offer(id, QueryObjectDistance(queries, q, id, ctx));
      }
    }
  }
  const DistanceStats b2_end = DistanceMetric::ThreadStats();

  // The model keeps the paper's kernel sequence: the B1 filter, the
  // encode-sort of all candidates, then the B2 distance kernel (charged
  // from the work measured around the fused pass, as KernelDistanceScope
  // would have).
  ctx->clock.ChargeKernel(scanned, scanned * 2);
  ctx->stats.objects_verified += scanned;
  ctx->clock.ChargeSort(total_candidates);
  ctx->clock.ChargeKernel(b2_end.calls - b2_start.calls,
                          b2_end.ops - b2_start.ops);
}

void GtsIndex::SearchCacheKnn(const Dataset& queries,
                              std::vector<KnnState>* states,
                              QueryContext* ctx) const {
  const CacheList& cache = ctx->cache();
  if (cache.empty()) return;
  const auto ids = cache.ids();
  gpu::KernelDistanceScope scope(&ctx->clock, metric_,
                                 static_cast<uint64_t>(queries.size()) *
                                     ids.size());
  std::vector<float> dist(ids.size());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    QueryObjectDistances(queries, q, ids, ctx, dist.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      (*states)[q].Offer(ids[i], dist[i]);
    }
  }
}

}  // namespace gts
