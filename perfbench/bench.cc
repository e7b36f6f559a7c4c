// gts_perfbench — the repository benchmark.
//
//   gts_perfbench --workload <tloc-batch|tloc-stream|words-churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload against the public API of src/core, src/serve,
// src/metric and src/gpu, checks every answer against an independent
// linear scan, and prints one line per metric followed by a final JSON
// line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run is split into
// an untraced and a traced half and the metrics are the per-layer ones,
// taken from spans and counters recorded around the benchmark's own calls
// into each layer (see perfbench/README.md for every definition).
//
// Exit status: 0 on a complete run with every answer correct, 1 when an
// answer disagrees with the scan, 2 on a usage or set-up error.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/gts.h"
#include "data/generators.h"
#include "data/workload.h"
#include "gpu/device.h"
#include "metric/dataset.h"
#include "metric/distance.h"
#include "serve/query_executor.h"
#include "serve/query_session.h"
#include "serve/request.h"
#include "serve/sharded_frontend.h"
#include "trace.h"

namespace perfbench {
namespace {

using gts::Dataset;
using gts::DatasetId;
using gts::DistanceMetric;
using gts::GtsIndex;
using gts::GtsQueryStats;
using gts::Neighbor;
namespace serve = gts::serve;
namespace gpu = gts::gpu;

// --- Fixed workload parameters ---------------------------------------------
constexpr uint32_t kBatch = 128;        // tloc-batch queries per call
constexpr uint32_t kK = 8;              // kNN k (paper default)
constexpr int kRadiusStep = 8;          // range radius, x0.01% selectivity
constexpr uint32_t kTLocN = 100'000;
constexpr uint32_t kWordsN = 20'000;
constexpr uint32_t kQueryPool = 1024;   // distinct queries per run
constexpr uint32_t kWorkers = 2;        // executor pool threads
constexpr int kSetupRepeats = 21;       // setup_s is the median of these
// The corpora, the range radius, the query pool and the words-churn
// writes (inserted words, removal order) are fixed; --seed draws the reads
// (which pool queries, in which order). Runs with different seeds therefore
// send the same kind of traffic to the same index, and their spread is the
// code's, not the draw's. Drawn per seed, the pool made words-churn range
// latency differ by a third between seeds, and so did the writes: the
// index rebuilt after one seed's churn answered a range query in 1.37 ms
// (single-thread replay), after another's in 0.98 ms.
constexpr uint64_t kCorpusSeed = 20240611;
// The device budget that makes the two-stage search split each 128-query
// kNN batch into 3 groups on T-Loc (256 MB gives 2).
constexpr uint64_t kBatchDeviceBytes = 16ull << 20;
constexpr double kStreamRate = 8000.0;  // tloc-stream requests/s
constexpr uint32_t kStreamShards = 2;
constexpr uint32_t kStreamModelReads = 4096;  // replayed for sim_qpm
constexpr double kChurnReadRate = 100.0;  // words-churn reads/s
constexpr uint32_t kChurnWriteEvery = 8;  // one Insert + one Remove per 8 reads
constexpr uint32_t kChurnBatchEvery = 2000;  // one BatchUpdate per 2000 reads
// The first BatchUpdate lands at read 1999 (~20 s in), inside both a full
// run and the traced second half of a --trace 1 run.
constexpr uint32_t kChurnBatchOffset = kChurnBatchEvery - 1;
constexpr uint32_t kChurnBatchSize = 64;
constexpr uint32_t kChurnFresh = 8192;        // fresh words for inserts
constexpr uint64_t kChurnCacheWarmBytes = 4608;  // of the 5 KB cache table
constexpr uint32_t kChurnProbes = 16;  // post-Drain probes per read kind
constexpr double kWarmupSeconds = 0.25;

Tracer g_tracer;

// --- Small helpers ----------------------------------------------------------
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}
double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t s = seed * 0x9E3779B97F4A7C15ull + salt;
  return gts::SplitMix64(&s);
}

void Shuffle(std::vector<uint32_t>* v, gts::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->UniformU64(i)]);
  }
}

Dataset SliceRange(const Dataset& d, uint32_t begin, uint32_t end) {
  std::vector<uint32_t> ids(end - begin);
  std::iota(ids.begin(), ids.end(), begin);
  return d.Slice(ids);
}

/// Sleeps the submitting thread until a request's due time. The thread's
/// timer slack is cut to 1 us first (the default 50 us would make every
/// wake-up late by up to that much); the remaining wake-up delay is
/// reported as loadgen lag and counted in the request's latency.
void SleepUntil(Clock::time_point t) {
  static thread_local const bool slack_set = prctl(PR_SET_TIMERSLACK, 1000UL) == 0;
  (void)slack_set;
  std::this_thread::sleep_until(t);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "gts_perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(gts::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

// --- Metric table -------------------------------------------------------------
// Every name, unit and tag the program can print. BENCHMARK.json lists the
// same names and units; run.py refuses a result whose metric set or units
// differ from it. `model` marks values computed on the simulated device
// clock (gpu/sim_clock.h) rather than measured on the host.
struct MetricDef {
  const char* name;
  const char* unit;
  bool model;
};
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", false},          {"peak_rss_mb", "MB", false},
    {"read_qps", "1/s", false},       {"range_p50_ms", "ms", false},
    {"read_p90_ms", "ms", false},     {"sim_qpm", "q/sim-min", true},
};
constexpr MetricDef kPerLayer[] = {
    {"data.gen_s", "s", false},
    {"core.build_s", "s", false},
    {"metric.calls_per_q", "count", false},
    {"metric.ops_per_q", "count", false},
    {"metric.ns_per_call", "ns", false},
    {"core.range_us_per_q", "us", false},
    {"core.knn_us_per_q", "us", false},
    {"core.nodes_visited_per_q", "count", false},
    {"core.nodes_pruned_frac", "fraction", false},
    {"core.verified_per_q", "count", false},
    {"core.verify_yield", "fraction", false},
    {"core.groups_per_batch", "count", false},
    {"core.insert_us", "us", false},
    {"core.remove_us", "us", false},
    {"core.batch_update_ms", "ms", false},
    {"core.rebuild_ms", "ms", false},
    {"core.rebuilds", "count", false},
    {"core.cache_entries_peak", "count", false},
    {"core.versions_unreclaimed_peak", "count", false},
    {"gpu.sim_us_per_q", "sim-us", true},
    {"gpu.kernels_per_q", "count", true},
    {"gpu.resident_mb", "MB", true},
    {"gpu.peak_alloc_mb", "MB", true},
    {"serve.submit_us", "us", false},
    {"serve.overhead_us", "us", false},
    {"serve.flush_batch", "count", false},
    {"serve.reject_frac", "fraction", false},
    {"serve.backlog_peak", "count", false},
    {"serve.pruned_shard_frac", "fraction", false},
    {"floor.range_us_per_q", "us", false},
    {"floor.knn_us_per_q", "us", false},
    {"floor.knn_ratio", "ratio", false},
    {"loadgen.lag_p99_ms", "ms", false},
    {"trace.overhead_frac", "fraction", false},
    {"self.data_s", "s", false},
    {"self.core_s", "s", false},
    {"self.metric_s", "s", false},
    {"self.serve_s", "s", false},
    {"self.floor_s", "s", false},
    {"self.loadgen_s", "s", false},
};

class Report {
 public:
  /// Records a metric value with its sample count. `note` is printed
  /// beside it (e.g. why a layer reads 0 on this workload).
  void Set(const std::string& name, double value, uint64_t samples,
           std::string note = {}) {
    values_[name] = Entry{value, samples, std::move(note)};
  }
  /// A layer this workload does not exercise reads 0, with the reason.
  void Bypassed(std::initializer_list<const char*> names, const char* why) {
    for (const char* n : names) Set(n, 0.0, 0, why);
  }
  /// Extra human-readable lines (not part of the JSON result).
  void Info(const std::string& name, double value, const char* unit,
            uint64_t samples) {
    std::printf("info   %-30s %14.6g %-10s n=%llu\n", name.c_str(), value,
                unit, static_cast<unsigned long long>(samples));
  }

  /// Prints every metric of `defs` and the final JSON line. Dies when one
  /// was never set: a silently missing metric would read as a pass.
  template <size_t N>
  void Print(const MetricDef (&defs)[N], bool correct, uint64_t attempted,
             uint64_t failed) {
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : defs) {
      auto it = values_.find(d.name);
      if (it == values_.end()) Die(std::string("metric not set: ") + d.name);
      const Entry& e = it->second;
      if (!std::isfinite(e.value)) Die(std::string("metric not finite: ") + d.name);
      std::printf("metric %-30s %14.6g %-10s [%s] n=%llu%s%s\n", d.name,
                  e.value, d.unit, d.model ? "model" : "measured",
                  static_cast<unsigned long long>(e.samples),
                  e.note.empty() ? "" : "  # ", e.note.c_str());
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", e.value);
      json.append(first ? "\"" : ", \"").append(d.name);
      json.append("\": {\"value\": ").append(buf);
      json.append(", \"unit\": \"").append(d.unit).append("\"}");
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    double value;
    uint64_t samples;
    std::string note;
  };
  std::map<std::string, Entry> values_;
};

// --- Scan floor (and correctness oracle) -------------------------------------
// A linear scan through the repo's own SIMD kernels (DistanceBatch), with
// the same range predicate (d <= r) and kNN order ((dist, id) ascending)
// the index promises. It is the correctness reference for every answer and
// the performance floor every query path is compared with.
class ScanFloor {
 public:
  explicit ScanFloor(const DistanceMetric* metric) : metric_(metric) {}

  std::vector<uint32_t> Range(const Dataset& q, uint32_t qi,
                              const Dataset& data,
                              std::span<const uint32_t> ids, float r) {
    ScopedSpan span(&g_tracer, "floor.range_scan", "floor");
    Score(q, qi, data, ids, span.id());
    std::vector<uint32_t> out;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (dist_[i] <= r) out.push_back(ids[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<Neighbor> Knn(const Dataset& q, uint32_t qi, const Dataset& data,
                            std::span<const uint32_t> ids, uint32_t k) {
    ScopedSpan span(&g_tracer, "floor.knn_scan", "floor");
    Score(q, qi, data, ids, span.id());
    std::vector<Neighbor> all(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) all[i] = Neighbor{ids[i], dist_[i]};
    const size_t take = std::min<size_t>(k, all.size());
    std::partial_sort(all.begin(), all.begin() + take, all.end(),
                      [](const Neighbor& a, const Neighbor& b) {
                        return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
                      });
    return std::vector<Neighbor>(all.begin(), all.begin() + take);
  }

  /// Seconds spent inside DistanceBatch and the calls it made.
  double kernel_seconds() const { return kernel_seconds_; }
  uint64_t kernel_calls() const { return kernel_calls_; }

 private:
  void Score(const Dataset& q, uint32_t qi, const Dataset& data,
             std::span<const uint32_t> ids, uint64_t parent) {
    dist_.resize(ids.size());
    const auto t0 = Clock::now();
    metric_->DistanceBatch(q, qi, data, ids, dist_.data());
    const auto t1 = Clock::now();
    g_tracer.Record("metric.DistanceBatch", "metric", t0, t1, parent);
    kernel_seconds_ += Seconds(t0, t1);
    kernel_calls_ += ids.size();
  }

  const DistanceMetric* metric_;
  std::vector<float> dist_;
  double kernel_seconds_ = 0.0;
  uint64_t kernel_calls_ = 0;
};

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].dist, &b[i].dist, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameIds(std::vector<uint32_t> got, const std::vector<uint32_t>& want) {
  std::sort(got.begin(), got.end());
  return got == want;
}

/// Oracle answers for every query of a pool, timed as the floor.
struct PoolOracle {
  std::vector<std::vector<uint32_t>> range;
  std::vector<std::vector<Neighbor>> knn;
  double range_seconds = 0.0;
  double knn_seconds = 0.0;
  double kernel_seconds = 0.0;
  uint64_t kernel_calls = 0;
};

/// Every pool query gets a range answer; the first `knn_queries` get a kNN
/// answer (all of them where the workload sends kNN, a sample where it only
/// reports the floor).
PoolOracle BuildOracle(const DistanceMetric* metric, const Dataset& data,
                       const Dataset& pool, float radius, uint32_t knn_queries) {
  ScanFloor floor(metric);
  std::vector<uint32_t> ids(data.size());
  std::iota(ids.begin(), ids.end(), 0u);
  PoolOracle o;
  o.range.resize(pool.size());
  auto t0 = Clock::now();
  for (uint32_t q = 0; q < pool.size(); ++q) {
    o.range[q] = floor.Range(pool, q, data, ids, radius);
  }
  auto t1 = Clock::now();
  o.range_seconds = Seconds(t0, t1) / pool.size();
  const uint32_t knn_n = std::min(knn_queries, pool.size());
  o.knn.resize(knn_n);
  for (uint32_t q = 0; q < knn_n; ++q) {
    o.knn[q] = floor.Knn(pool, q, data, ids, kK);
  }
  o.knn_seconds = Seconds(t1, Clock::now()) / std::max<uint32_t>(1, knn_n);
  o.kernel_seconds = floor.kernel_seconds();
  o.kernel_calls = floor.kernel_calls();
  return o;
}

// --- Completion stamping --------------------------------------------------------
// One thread stamps each response when it becomes ready. Promise-backed
// futures (QuerySession) are polled, so a response is stamped when it is
// ready rather than when the ones submitted before it are. The sharded
// frontend returns deferred futures whose get() runs the gather, which
// cannot be polled; they are taken in submission order, which matches the
// order they become ready because each shard session runs its flushes one
// at a time in admission order.
struct Pending {
  std::future<serve::Response> fut;
  uint32_t op = 0;
  Clock::time_point due;
  Clock::time_point submitted;  // when Submit returned
  uint64_t root_span = 0;
};

class Collector {
 public:
  using OnDone = std::function<void(Pending&, serve::Response&,
                                    Clock::time_point done)>;
  Collector(bool poll, OnDone on_done)
      : poll_(poll), on_done_(std::move(on_done)), thread_([this] { Loop(); }) {}
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Add(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  /// Waits until every added response has been stamped, then joins.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (done_) return;
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Complete(Pending& p) {
    serve::Response r = p.fut.get();
    const auto done = Clock::now();
    on_done_(p, r, done);
  }
  void Loop() {
    std::vector<Pending> live;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (live.empty()) {
          cv_.wait(lock, [&] { return !queue_.empty() || done_; });
        }
        if (live.empty() && queue_.empty() && done_) return;
        while (!queue_.empty()) {
          live.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
      if (!poll_) {
        for (Pending& p : live) Complete(p);
        live.clear();
        continue;
      }
      size_t kept = 0;
      for (size_t i = 0; i < live.size(); ++i) {
        if (live[i].fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          Complete(live[i]);
        } else {
          if (kept != i) live[kept] = std::move(live[i]);
          ++kept;
        }
      }
      const bool progressed = kept < live.size();
      live.resize(kept);
      // Block on the oldest response; a later one that resolves first
      // (writes run ahead of queued reads) is stamped within kPollSlack.
      if (!progressed && !live.empty()) live.front().fut.wait_for(kPollSlack);
    }
  }

  static constexpr auto kPollSlack = std::chrono::microseconds(200);
  const bool poll_;
  OnDone on_done_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool done_ = false;
  std::thread thread_;
};

// --- Shared result bookkeeping ------------------------------------------------
// Every failure counts in `failed`. All but admission rejects also make
// the run incorrect: nothing in a healthy run fails, and a call that fails
// fast must not read as a faster system.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t rejected = 0;    // reads refused by admission control (shed load)
  uint64_t errors = 0;      // any other failed operation
  uint64_t mismatched = 0;  // answers that disagree with the scan
  uint64_t failed() const { return rejected + errors + mismatched; }
  bool correct() const { return errors == 0 && mismatched == 0; }
  void Count(const gts::Status& st) {
    if (st.code() == gts::StatusCode::kResourceExhausted) ++rejected;
    else ++errors;
  }
};

struct DeviceProbe {
  double sim_ns = 0.0;
  uint64_t kernels = 0;
};
DeviceProbe ReadDevice(const gpu::Device& d) {
  return DeviceProbe{d.clock().ElapsedNs(), d.clock().kernels_launched()};
}

struct Setup {
  double gen_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
};

/// Runs `make` kSetupRepeats times and keeps the last instance; each run
/// reports its generation, build and total set-up seconds.
template <typename T>
std::unique_ptr<T> RepeatSetup(const std::function<std::unique_ptr<T>(Setup*)>& make,
                               std::vector<Setup>* timings) {
  std::unique_ptr<T> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();
    Setup s;
    const auto t0 = Clock::now();
    kept = make(&s);
    s.total_s = Seconds(t0, Clock::now());
    timings->push_back(s);
  }
  return kept;
}

void ReportSetup(const std::vector<Setup>& timings, Report* rep) {
  std::vector<double> total, gen, build;
  for (const Setup& s : timings) {
    total.push_back(s.total_s);
    gen.push_back(s.gen_s);
    build.push_back(s.build_s);
  }
  rep->Set("setup_s", Median(total), timings.size());
  rep->Set("data.gen_s", Median(gen), timings.size());
  rep->Set("core.build_s", Median(build), timings.size());
}

void ReportSelfTimes(Report* rep) {
  const auto self = g_tracer.SelfSecondsByLayer();
  auto get = [&](const char* layer) {
    auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  for (const char* layer : {"data", "core", "metric", "serve", "floor",
                            "loadgen"}) {
    rep->Set(std::string("self.") + layer + "_s", get(layer), g_tracer.size());
  }
}

void ReportFloor(const PoolOracle& o, double core_knn_us, Report* rep,
                 uint64_t range_n, uint64_t knn_n) {
  rep->Set("floor.range_us_per_q", o.range_seconds * 1e6, range_n);
  rep->Set("floor.knn_us_per_q", o.knn_seconds * 1e6, knn_n);
  rep->Set("metric.ns_per_call", Ratio(o.kernel_seconds * 1e9,
                                       static_cast<double>(o.kernel_calls)),
           o.kernel_calls);
  if (core_knn_us > 0.0) {
    rep->Set("floor.knn_ratio", Ratio(core_knn_us, o.knn_seconds * 1e6), knn_n,
             ">1 means the index loses to the scan");
  }
}

void ReportQueryStats(const GtsQueryStats& st, uint64_t queries,
                      uint64_t results, Report* rep) {
  const double q = static_cast<double>(queries);
  rep->Set("core.nodes_visited_per_q", Ratio(st.nodes_visited, q), queries);
  rep->Set("core.nodes_pruned_frac",
           Ratio(st.nodes_pruned, st.nodes_pruned + st.nodes_visited), queries);
  rep->Set("core.verified_per_q", Ratio(st.objects_verified, q), queries);
  rep->Set("core.verify_yield", Ratio(results, st.objects_verified), queries);
}

std::string g_trace_dir;  // <directory of the binary>/traces

/// Prints the run's result and returns the exit status. A traced run also
/// reports per-layer self times and writes the Chrome trace.
int Conclude(Report* rep, const Outcome& out, const char* workload, uint64_t seed,
             bool trace) {
  const uint64_t failed = out.failed();
  rep->Info("fail_frac", Ratio(failed, out.attempted), "fraction", out.attempted);
  if (out.rejected > 0) rep->Info("rejected", out.rejected, "count", out.attempted);
  if (out.errors > 0) rep->Info("errors", out.errors, "count", out.attempted);
  if (!trace) {
    rep->Print(kEndToEnd, out.correct(), out.attempted, failed);
  } else {
    ReportSelfTimes(rep);
    std::error_code ec;
    std::filesystem::create_directories(g_trace_dir, ec);
    const std::string path =
        g_trace_dir + "/" + workload + "-" + std::to_string(seed) + ".trace.json";
    if (!g_tracer.DumpChromeJson(path)) Die("cannot write " + path);
    rep->Info("trace.spans", g_tracer.size(), "count", g_tracer.dropped());
    std::printf("trace  %s\n", path.c_str());
    rep->Print(kPerLayer, out.correct(), out.attempted, failed);
  }
  return out.correct() ? 0 : 1;
}

// ============================================================================
// tloc-batch: closed loop, one caller, direct GtsIndex batch calls.
// ============================================================================
struct BatchSystem {
  Dataset data = Dataset::FloatVectors(2);
  Dataset pool = Dataset::FloatVectors(2);
  float radius = 0.0f;
  std::unique_ptr<DistanceMetric> metric;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<GtsIndex> index;
};

struct BatchPhase {
  std::vector<double> range_ms, knn_ms;  // per call
  uint64_t reads = 0;
  uint64_t range_results = 0, knn_results = 0;
  GtsQueryStats range_stats, knn_stats;
  double sim_ns = 0.0;
  uint64_t kernels = 0;
  gts::DistanceStats metric0, metric1;
  double call_seconds() const {
    return (std::accumulate(range_ms.begin(), range_ms.end(), 0.0) +
            std::accumulate(knn_ms.begin(), knn_ms.end(), 0.0)) / 1e3;
  }
};

/// Each iteration draws 128 queries from the pool, then issues them as one
/// range batch and one kNN batch. Only calls that succeed count as reads
/// and give latency samples; a failed call counts its 128 queries as
/// errors, which makes the run incorrect.
BatchPhase RunBatchPhase(BatchSystem* sys, const PoolOracle& oracle,
                         double seconds, gts::Rng* rng, Outcome* out) {
  BatchPhase ph;
  const std::vector<float> radii(kBatch, sys->radius);
  const DeviceProbe d0 = ReadDevice(*sys->device);
  ph.metric0 = sys->metric->stats();
  const auto start = Clock::now();
  uint64_t calls = 0;
  while (calls == 0 || Seconds(start, Clock::now()) < seconds) {
    std::vector<uint32_t> picks(kBatch);
    for (uint32_t& q : picks) q = static_cast<uint32_t>(rng->UniformU64(sys->pool.size()));
    const Dataset batch = sys->pool.Slice(picks);
    const uint64_t b = calls++;
    out->attempted += 2 * kBatch;

    GtsQueryStats rs;
    auto t0 = Clock::now();
    auto range = sys->index->RangeQueryBatch(batch, radii, &rs);
    auto t1 = Clock::now();
    g_tracer.Record("core.RangeQueryBatch", "core", t0, t1, 0, b);
    if (range.ok()) {
      ph.range_ms.push_back(Seconds(t0, t1) * 1e3);
      ph.range_stats += rs;
      ph.reads += kBatch;
      for (uint32_t i = 0; i < kBatch; ++i) {
        ph.range_results += range.value()[i].size();
        if (!SameIds(range.value()[i], oracle.range[picks[i]])) ++out->mismatched;
      }
    } else {
      out->errors += kBatch;
    }

    GtsQueryStats ks;
    t0 = Clock::now();
    auto knn = sys->index->KnnQueryBatch(batch, kK, &ks);
    t1 = Clock::now();
    g_tracer.Record("core.KnnQueryBatch", "core", t0, t1, 0, b);
    if (knn.ok()) {
      ph.knn_ms.push_back(Seconds(t0, t1) * 1e3);
      ph.knn_stats += ks;
      ph.reads += kBatch;
      for (uint32_t i = 0; i < kBatch; ++i) {
        ph.knn_results += knn.value()[i].size();
        if (!SameNeighbors(knn.value()[i], oracle.knn[picks[i]])) ++out->mismatched;
      }
    } else {
      out->errors += kBatch;
    }
  }
  const DeviceProbe d1 = ReadDevice(*sys->device);
  ph.sim_ns = d1.sim_ns - d0.sim_ns;
  ph.kernels = d1.kernels - d0.kernels;
  ph.metric1 = sys->metric->stats();
  return ph;
}

int RunTLocBatch(uint64_t seed, double seconds, bool trace) {
  Report rep;
  std::vector<Setup> timings;
  auto sys = RepeatSetup<BatchSystem>(
      [&](Setup* s) {
        auto t0 = Clock::now();
        auto b = std::make_unique<BatchSystem>();
        {
          ScopedSpan span(&g_tracer, "data.generate", "data");
          b->data = gts::GenerateDataset(DatasetId::kTLoc, kTLocN, kCorpusSeed);
          b->pool = gts::SampleQueries(b->data, kQueryPool, kCorpusSeed + 2);
          b->metric = gts::MakeDatasetMetric(DatasetId::kTLoc);
          b->radius = gts::CalibrateRadius(b->data, *b->metric, kRadiusStep * 1e-4,
                                           200, kCorpusSeed + 3);
        }
        auto t1 = Clock::now();
        gpu::DeviceOptions dopt;
        dopt.memory_bytes = kBatchDeviceBytes;
        b->device = std::make_unique<gpu::Device>(dopt);
        {
          ScopedSpan span(&g_tracer, "core.Build", "core");
          b->index = Unwrap(GtsIndex::Build(b->data, b->metric.get(),
                                            b->device.get(), gts::GtsOptions{}),
                            "build");
        }
        s->gen_s = Seconds(t0, t1);
        s->build_s = Seconds(t1, Clock::now());
        return b;
      },
      &timings);
  ReportSetup(timings, &rep);
  const PoolOracle oracle =
      BuildOracle(sys->metric.get(), sys->data, sys->pool, sys->radius, kQueryPool);

  g_tracer.Enable(false);

  // Warm-up: one range and one kNN batch, unmeasured and unchecked.
  {
    const std::vector<float> radii(kBatch, sys->radius);
    const Dataset first = SliceRange(sys->pool, 0, kBatch);
    (void)sys->index->RangeQueryBatch(first, radii);
    (void)sys->index->KnnQueryBatch(first, kK);
  }

  Outcome out;
  gts::Rng rng(SubSeed(seed, 6));
  if (!trace) {
    const BatchPhase ph = RunBatchPhase(sys.get(), oracle, seconds, &rng, &out);
    const uint64_t range_q = ph.range_ms.size() * kBatch;
    const uint64_t knn_q = ph.knn_ms.size() * kBatch;
    rep.Set("read_qps", Ratio(ph.reads, ph.call_seconds()), ph.reads);
    rep.Set("range_p50_ms", Median(ph.range_ms), ph.range_ms.size(),
            "per 128-query range call");
    rep.Set("read_p90_ms", Quantile(ph.knn_ms, 0.9), ph.knn_ms.size(),
            "per 128-query kNN call");
    rep.Set("sim_qpm", Ratio(ph.reads, ph.sim_ns / 6e10), ph.reads);
    rep.Set("peak_rss_mb", PeakRssMb(), 1);
    rep.Info("range_qps", Ratio(range_q, Mean(ph.range_ms) * ph.range_ms.size() / 1e3),
             "1/s", range_q);
    rep.Info("knn_qps", Ratio(knn_q, Mean(ph.knn_ms) * ph.knn_ms.size() / 1e3), "1/s",
             knn_q);
    rep.Info("knn_p50_ms", Median(ph.knn_ms), "ms", ph.knn_ms.size());
    return Conclude(&rep, out, "tloc-batch", seed, false);
  }

  // Traced run: an untraced half, then a traced half of the same loop.
  const BatchPhase plain = RunBatchPhase(sys.get(), oracle, seconds / 2, &rng, &out);
  g_tracer.Enable(true);
  const BatchPhase ph = RunBatchPhase(sys.get(), oracle, seconds / 2, &rng, &out);
  g_tracer.Enable(false);
  const uint64_t range_q = ph.range_ms.size() * kBatch;
  const uint64_t knn_q = ph.knn_ms.size() * kBatch;
  const double core_range_us = Mean(ph.range_ms) * 1e3 / kBatch;
  const double core_knn_us = Mean(ph.knn_ms) * 1e3 / kBatch;
  rep.Set("core.range_us_per_q", core_range_us, range_q);
  rep.Set("core.knn_us_per_q", core_knn_us, knn_q);
  GtsQueryStats st = ph.range_stats;
  st += ph.knn_stats;
  ReportQueryStats(st, ph.reads, ph.range_results + ph.knn_results, &rep);
  rep.Set("core.groups_per_batch", Ratio(ph.knn_stats.query_groups, ph.knn_ms.size()),
          ph.knn_ms.size(), "per kNN call");
  rep.Set("metric.calls_per_q", Ratio(ph.metric1.calls - ph.metric0.calls, ph.reads),
          ph.reads);
  rep.Set("metric.ops_per_q", Ratio(ph.metric1.ops - ph.metric0.ops, ph.reads), ph.reads);
  rep.Set("gpu.sim_us_per_q", Ratio(ph.sim_ns / 1e3, ph.reads), ph.reads);
  rep.Set("gpu.kernels_per_q", Ratio(ph.kernels, ph.reads), ph.reads);
  rep.Set("gpu.resident_mb", sys->index->DeviceResidentBytes() / 1e6, 1);
  rep.Set("gpu.peak_alloc_mb", sys->device->peak_allocated_bytes() / 1e6, 1);
  ReportFloor(oracle, core_knn_us, &rep, kQueryPool, kQueryPool);
  rep.Set("core.rebuilds", 0, 0, "read-only workload");
  rep.Set("core.cache_entries_peak", sys->index->cache_size(), 1, "read-only workload");
  rep.Set("core.versions_unreclaimed_peak",
          sys->index->versions_retired() - sys->index->versions_reclaimed(), 1,
          "read-only workload");
  rep.Bypassed({"core.insert_us", "core.remove_us", "core.batch_update_ms",
                "core.rebuild_ms"},
               "no writes on this workload");
  rep.Bypassed({"serve.submit_us", "serve.overhead_us", "serve.flush_batch",
                "serve.reject_frac", "serve.backlog_peak", "serve.pruned_shard_frac"},
               "serve is bypassed");
  rep.Bypassed({"loadgen.lag_p99_ms"}, "closed loop: no schedule to lag");
  const double plain_qps = Ratio(plain.reads, plain.call_seconds());
  const double traced_qps = Ratio(ph.reads, ph.call_seconds());
  rep.Set("trace.overhead_frac", Ratio(plain_qps - traced_qps, plain_qps), ph.reads,
          "read_qps, untraced vs traced half");
  return Conclude(&rep, out, "tloc-batch", seed, true);
}

// ============================================================================
// Open-loop machinery shared by tloc-stream and words-churn.
// ============================================================================
struct OpenLoopSamples {
  std::vector<double> range_ms, knn_ms, write_ms;  // due -> ready
  std::vector<uint32_t> range_ops, knn_ops;        // op index per sample
  std::vector<double> submit_us;                   // time inside Submit
  std::vector<double> lag_ms;                      // submit start - due
  uint64_t reads_ok = 0;
  Clock::time_point first_due, last_done;
  std::vector<double> reads_ms() const {
    std::vector<double> all = range_ms;
    all.insert(all.end(), knn_ms.begin(), knn_ms.end());
    return all;
  }
  double goodput() const {
    return Ratio(reads_ok, Seconds(first_due, last_done));
  }
};

/// One open-loop phase: op i is due `due(i)` after the phase starts and is
/// sent by `submit(i)`. `answer(i, response, ms)` gets every response that
/// succeeded with its latency from due time, records it, and returns false
/// when the answer is wrong. `sample()` runs on the submitting thread every
/// `sample_every` ops; `finish()` runs after the last op is submitted.
struct OpenLoop {
  uint32_t ops = 0;
  std::function<Clock::duration(uint32_t)> due;
  std::function<std::future<serve::Response>(uint32_t)> submit;
  std::function<bool(uint32_t, serve::Response&, double)> answer;
  uint32_t sample_every = 1;
  std::function<void()> sample;
  std::function<void()> finish;
  bool poll = true;  // see Collector
};

/// Sends every op at its due time from this thread, stamps each response on
/// the completion thread when it becomes ready, and returns once every
/// response is stamped.
void RunOpenLoop(const OpenLoop& loop, OpenLoopSamples* s, Outcome* out) {
  Outcome seen;  // written on the completion thread, read after Finish()
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  s->first_due = t0;
  s->last_done = t0;
  Collector collector(loop.poll, [&](Pending& p, serve::Response& r, Clock::time_point done) {
    g_tracer.Record("serve.await", "serve", p.submitted, done, p.root_span, p.op);
    g_tracer.Finish(p.root_span, done);
    s->last_done = std::max(s->last_done, done);
    if (!r.ok()) {
      seen.Count(r.status());
    } else if (!loop.answer(p.op, r, Seconds(p.due, done) * 1e3)) {
      ++seen.mismatched;
    }
  });
  for (uint32_t i = 0; i < loop.ops; ++i) {
    const auto due = t0 + loop.due(i);
    SleepUntil(due);
    Pending p;
    p.op = i;
    p.due = due;
    p.root_span = g_tracer.Open("loadgen.request", "loadgen", due, 0, i);
    const auto s0 = Clock::now();
    p.fut = loop.submit(i);
    p.submitted = Clock::now();
    g_tracer.Record("serve.Submit", "serve", s0, p.submitted, p.root_span, i);
    s->lag_ms.push_back(Seconds(due, s0) * 1e3);
    s->submit_us.push_back(Seconds(s0, p.submitted) * 1e6);
    collector.Add(std::move(p));
    if (i % loop.sample_every == 0) loop.sample();
  }
  loop.finish();
  collector.Finish();
  out->attempted += loop.ops;
  out->rejected += seen.rejected;
  out->errors += seen.errors;
  out->mismatched += seen.mismatched;
}

/// Pool queries replayed as one batch call on `index` from a single thread:
/// its core time without the serving plane, and its modeled device time
/// and kernel launches. `radius` < 0 replays kNN queries.
struct Replayed {
  double us = 0.0;
  double sim_ns = 0.0;
  uint64_t kernels = 0;
};
Replayed ReplayBatch(GtsIndex* index, const Dataset& pool, std::span<const uint32_t> queries,
                     float radius, GtsQueryStats* st, uint64_t* results) {
  const Dataset batch = pool.Slice(queries);
  const std::vector<float> radii(queries.size(), radius);
  const DeviceProbe d0 = ReadDevice(*index->device());
  GtsQueryStats qs;
  gts::Status status;
  const auto t0 = Clock::now();
  auto count = [&](const auto& r) {
    status = r.status();
    if (r.ok()) {
      for (const auto& answer : r.value()) *results += answer.size();
    }
  };
  if (radius < 0.0f) {
    count(index->KnnQueryBatch(batch, kK, &qs));
  } else {
    count(index->RangeQueryBatch(batch, radii, &qs));
  }
  const auto t1 = Clock::now();
  const DeviceProbe d1 = ReadDevice(*index->device());
  if (!status.ok()) Die("replay query failed: " + status.ToString());
  g_tracer.Record(radius < 0.0f ? "core.replay.KnnQueryBatch" : "core.replay.RangeQueryBatch",
                  "core", t0, t1, 0, queries[0]);
  *st += qs;
  return Replayed{Seconds(t0, t1) * 1e6, d1.sim_ns - d0.sim_ns, d1.kernels - d0.kernels};
}

/// `sim_qpm` is `sim_reads` over `sim_ns` of modeled device time.
void ReportOpenLoopE2E(const OpenLoopSamples& s, uint64_t sim_reads, double sim_ns,
                       Report* rep) {
  const std::vector<double> reads = s.reads_ms();
  rep->Set("read_qps", s.goodput(), s.reads_ok,
           "answered per s at the nominal rate: falls only if reads are shed or fall behind");
  rep->Set("range_p50_ms", Median(s.range_ms), s.range_ms.size());
  rep->Set("read_p90_ms", Quantile(reads, 0.9), reads.size());
  rep->Set("sim_qpm", Ratio(sim_reads, sim_ns / 6e10), sim_reads);
  rep->Set("peak_rss_mb", PeakRssMb(), 1);
  rep->Info("read_p50_ms", Median(reads), "ms", reads.size());
  rep->Info("read_p99_ms", Quantile(reads, 0.99), "ms", reads.size());
  if (!s.knn_ms.empty()) rep->Info("knn_p50_ms", Median(s.knn_ms), "ms", s.knn_ms.size());
  if (!s.write_ms.empty()) {
    rep->Info("write_p50_ms", Median(s.write_ms), "ms", s.write_ms.size());
    rep->Info("write_p99_ms", Quantile(s.write_ms, 0.99), "ms", s.write_ms.size());
  }
  rep->Info("loadgen.lag_p99_ms", Quantile(s.lag_ms, 0.99), "ms", s.lag_ms.size());
}

// ============================================================================
// tloc-stream: open loop of single Range requests through ShardedFrontend.
// ============================================================================
struct StreamSystem {
  Dataset data = Dataset::FloatVectors(2);
  Dataset pool = Dataset::FloatVectors(2);
  float radius = 0.0f;
  std::unique_ptr<DistanceMetric> metric;
  std::vector<std::unique_ptr<gpu::Device>> devices;
  std::vector<std::unique_ptr<GtsIndex>> shards;
  std::unique_ptr<serve::ShardedFrontend> frontend;
};

struct FrontendCounters {
  uint64_t submitted = 0, rejected = 0, completed = 0, flushes = 0;
  uint64_t scatter = 0, pruned = 0;
};
FrontendCounters ReadFrontend(const serve::ShardedFrontend& f) {
  const serve::FrontendStats st = f.stats();
  FrontendCounters c;
  c.submitted = st.submitted;
  c.rejected = st.rejected;
  c.completed = st.completed;
  for (const serve::SessionStats& s : st.shards) c.flushes += s.flushes;
  c.scatter = st.scatter_reads;
  c.pruned = st.pruned_shard_queries;
  return c;
}

struct StreamPhase {
  OpenLoopSamples s;
  std::vector<uint32_t> query_of_op;
  uint64_t backlog_peak = 0;
  gts::DistanceStats metric0, metric1;
  FrontendCounters f0, f1;
};

StreamPhase RunStreamPhase(StreamSystem* sys, const PoolOracle& oracle,
                           double seconds, uint64_t phase_seed, Outcome* out) {
  StreamPhase ph;
  const uint32_t n = static_cast<uint32_t>(kStreamRate * seconds);
  gts::Rng rng(phase_seed);
  ph.query_of_op.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    ph.query_of_op[i] = static_cast<uint32_t>(rng.UniformU64(sys->pool.size()));
  }
  const auto period = std::chrono::duration<double>(1.0 / kStreamRate);
  OpenLoop loop;
  loop.ops = n;
  loop.due = [&](uint32_t i) {
    return std::chrono::duration_cast<Clock::duration>(period * i);
  };
  loop.submit = [&](uint32_t i) {
    return sys->frontend->Submit(
        serve::Request::Range(sys->pool, ph.query_of_op[i], sys->radius));
  };
  loop.answer = [&](uint32_t i, serve::Response& r, double ms) {
    ph.s.range_ms.push_back(ms);
    ph.s.range_ops.push_back(i);
    ++ph.s.reads_ok;
    return SameIds(r.range().value(), oracle.range[ph.query_of_op[i]]);
  };
  loop.sample_every = 64;
  loop.sample = [&] {
    uint64_t backlog = 0;
    for (uint32_t s = 0; s < sys->frontend->num_shards(); ++s) {
      backlog += sys->frontend->session(s)->inflight_reads();
    }
    ph.backlog_peak = std::max(ph.backlog_peak, backlog);
  };
  loop.finish = [&] { sys->frontend->Flush(); };
  loop.poll = false;
  ph.metric0 = sys->metric->stats();
  ph.f0 = ReadFrontend(*sys->frontend);
  RunOpenLoop(loop, &ph.s, out);
  sys->frontend->Drain();
  ph.metric1 = sys->metric->stats();
  ph.f1 = ReadFrontend(*sys->frontend);
  return ph;
}

/// A stream phase's answered reads replayed straight into the shards from
/// one thread. Each distinct query runs alone on each shard: its core time
/// without the serving plane. The first kStreamModelReads reads run in
/// batches of the session's full flush size: the modeled device time of
/// this traffic, which depends only on the queries sent. Shards run in
/// parallel when served, so a query's or batch's time is its slowest
/// shard's; kernels add up.
struct StreamReplay {
  std::vector<double> core_us;  // by pool index, single-query
  std::vector<double> us;       // one entry per distinct query
  GtsQueryStats stats;          // of the single-query calls
  uint64_t results = 0;
  uint64_t model_reads = 0;
  double sim_ns = 0.0;          // of the model_reads batched reads
  uint64_t kernels = 0;
};
StreamReplay ReplayStream(StreamSystem* sys, const StreamPhase& ph) {
  StreamReplay rp;
  rp.core_us.assign(sys->pool.size(), -1.0);
  std::vector<uint32_t> answered;
  for (uint32_t op : ph.s.range_ops) {
    const uint32_t q = ph.query_of_op[op];
    answered.push_back(q);
    if (rp.core_us[q] >= 0.0) continue;
    double slowest = 0.0;
    for (auto& shard : sys->shards) {
      slowest = std::max(slowest, ReplayBatch(shard.get(), sys->pool, {&q, 1}, sys->radius,
                                              &rp.stats, &rp.results).us);
    }
    rp.core_us[q] = slowest;
    rp.us.push_back(slowest);
  }
  const size_t batch = serve::SessionOptions{}.max_batch;
  GtsQueryStats unused_stats;
  uint64_t unused_results = 0;
  for (size_t i = 0; i + batch <= std::min<size_t>(answered.size(), kStreamModelReads);
       i += batch) {
    double slowest = 0.0;
    for (auto& shard : sys->shards) {
      const Replayed r =
          ReplayBatch(shard.get(), sys->pool, std::span(answered).subspan(i, batch),
                      sys->radius, &unused_stats, &unused_results);
      slowest = std::max(slowest, r.sim_ns);
      rp.kernels += r.kernels;
    }
    rp.sim_ns += slowest;
    rp.model_reads += batch;
  }
  return rp;
}

int RunTLocStream(uint64_t seed, double seconds, bool trace) {
  Report rep;
  std::vector<Setup> timings;
  auto sys = RepeatSetup<StreamSystem>(
      [&](Setup* s) {
        auto t0 = Clock::now();
        auto b = std::make_unique<StreamSystem>();
        std::vector<Dataset> parts;
        {
          ScopedSpan span(&g_tracer, "data.generate", "data");
          b->data = gts::GenerateDataset(DatasetId::kTLoc, kTLocN, kCorpusSeed);
          b->pool = gts::SampleQueries(b->data, kQueryPool, kCorpusSeed + 2);
          b->metric = gts::MakeDatasetMetric(DatasetId::kTLoc);
          b->radius = gts::CalibrateRadius(b->data, *b->metric, kRadiusStep * 1e-4,
                                           200, kCorpusSeed + 3);
          // Round-robin partition: object g on shard g % N, so frontend
          // global ids coincide with corpus ids.
          for (uint32_t sh = 0; sh < kStreamShards; ++sh) {
            std::vector<uint32_t> ids;
            for (uint32_t g = sh; g < b->data.size(); g += kStreamShards) ids.push_back(g);
            parts.push_back(b->data.Slice(ids));
          }
        }
        auto t1 = Clock::now();
        std::vector<GtsIndex*> shard_ptrs;
        for (uint32_t sh = 0; sh < kStreamShards; ++sh) {
          b->devices.push_back(std::make_unique<gpu::Device>());
          ScopedSpan span(&g_tracer, "core.Build", "core");
          b->shards.push_back(Unwrap(GtsIndex::Build(std::move(parts[sh]), b->metric.get(),
                                                     b->devices.back().get(),
                                                     gts::GtsOptions{}),
                                     "shard build"));
          shard_ptrs.push_back(b->shards.back().get());
        }
        s->build_s = Seconds(t1, Clock::now());
        serve::FrontendOptions fo;
        fo.executor_threads = kWorkers;
        b->frontend = std::make_unique<serve::ShardedFrontend>(shard_ptrs, fo);
        s->gen_s = Seconds(t0, t1);
        return b;
      },
      &timings);
  ReportSetup(timings, &rep);

  // No kNN traffic: 64 kNN scans only report the floor.
  const PoolOracle oracle =
      BuildOracle(sys->metric.get(), sys->data, sys->pool, sys->radius, 64);
  g_tracer.Enable(false);
  Outcome out;
  Outcome warm;
  RunStreamPhase(sys.get(), oracle, kWarmupSeconds, SubSeed(seed, 10), &warm);
  out.errors += warm.errors;
  out.mismatched += warm.mismatched;

  // sim_qpm comes from the replay, not from the device clocks of the live
  // run: those fold concurrent flushes by their overlap in wall time, and
  // flush sizes follow arrival timing, so the live figure moves with host
  // jitter. The replay's figure depends only on the queries sent.
  if (!trace) {
    const StreamPhase ph =
        RunStreamPhase(sys.get(), oracle, seconds, SubSeed(seed, 11), &out);
    const StreamReplay rp = ReplayStream(sys.get(), ph);
    ReportOpenLoopE2E(ph.s, rp.model_reads, rp.sim_ns, &rep);
    return Conclude(&rep, out, "tloc-stream", seed, false);
  }

  const StreamPhase plain =
      RunStreamPhase(sys.get(), oracle, seconds / 2, SubSeed(seed, 11), &out);
  g_tracer.Enable(true);
  const StreamPhase ph =
      RunStreamPhase(sys.get(), oracle, seconds / 2, SubSeed(seed, 12), &out);
  const StreamReplay rp = ReplayStream(sys.get(), ph);
  g_tracer.Enable(false);
  std::vector<double> overhead_us;
  for (size_t i = 0; i < ph.s.range_ops.size(); ++i) {
    const uint32_t q = ph.query_of_op[ph.s.range_ops[i]];
    overhead_us.push_back(ph.s.range_ms[i] * 1e3 - rp.core_us[q]);
  }
  const uint64_t replayed = rp.us.size();
  rep.Set("core.range_us_per_q", Mean(rp.us), replayed,
          "single-query replay, slowest shard");
  rep.Set("core.knn_us_per_q", 0.0, 0, "no kNN on this workload");
  ReportQueryStats(rp.stats, replayed, rp.results, &rep);
  rep.Set("core.groups_per_batch", Ratio(rp.stats.query_groups, replayed * kStreamShards),
          replayed * kStreamShards, "per single-query replay call");
  const uint64_t reads = ph.s.reads_ok;
  rep.Set("metric.calls_per_q", Ratio(ph.metric1.calls - ph.metric0.calls, reads), reads);
  rep.Set("metric.ops_per_q", Ratio(ph.metric1.ops - ph.metric0.ops, reads), reads);
  rep.Set("gpu.sim_us_per_q", Ratio(rp.sim_ns / 1e3, rp.model_reads), rp.model_reads,
          "batched replay, slowest shard");
  rep.Set("gpu.kernels_per_q", Ratio(rp.kernels, rp.model_reads), rp.model_reads,
          "batched replay, both shards");
  double resident = 0.0, peak = 0.0;
  for (size_t i = 0; i < sys->shards.size(); ++i) {
    resident += sys->shards[i]->DeviceResidentBytes() / 1e6;
    peak += sys->devices[i]->peak_allocated_bytes() / 1e6;
  }
  rep.Set("gpu.resident_mb", resident, sys->shards.size());
  rep.Set("gpu.peak_alloc_mb", peak, sys->shards.size());
  ReportFloor(oracle, 0.0, &rep, kQueryPool, oracle.knn.size());
  rep.Set("floor.knn_ratio", 0.0, 0, "no kNN on this workload");
  uint64_t cache = 0, unreclaimed = 0;
  for (auto& shard : sys->shards) {
    cache += shard->cache_size();
    unreclaimed += shard->versions_retired() - shard->versions_reclaimed();
  }
  rep.Set("core.rebuilds", 0, 0, "read-only workload");
  rep.Set("core.cache_entries_peak", cache, 1, "read-only workload");
  rep.Set("core.versions_unreclaimed_peak", unreclaimed, 1, "read-only workload");
  rep.Bypassed({"core.insert_us", "core.remove_us", "core.batch_update_ms",
                "core.rebuild_ms"},
               "no writes on this workload");
  rep.Set("serve.submit_us", Median(ph.s.submit_us), ph.s.submit_us.size());
  rep.Set("serve.overhead_us", Median(overhead_us), overhead_us.size(),
          "read latency minus replayed core time");
  const uint64_t completed = ph.f1.completed - ph.f0.completed;
  const uint64_t flushes = ph.f1.flushes - ph.f0.flushes;
  rep.Set("serve.flush_batch", Ratio(completed, flushes), flushes);
  const uint64_t rejected = ph.f1.rejected - ph.f0.rejected;
  const uint64_t offered = ph.f1.submitted - ph.f0.submitted + rejected;
  rep.Set("serve.reject_frac", Ratio(rejected, offered), offered);
  rep.Set("serve.backlog_peak", ph.backlog_peak, ph.s.submit_us.size() / 64);
  const uint64_t scatter = ph.f1.scatter - ph.f0.scatter;
  rep.Set("serve.pruned_shard_frac",
          Ratio(ph.f1.pruned - ph.f0.pruned, scatter * kStreamShards), scatter,
          "round-robin shards: expected 0");
  rep.Set("loadgen.lag_p99_ms", Quantile(ph.s.lag_ms, 0.99), ph.s.lag_ms.size());
  const double plain_p50 = Median(plain.s.range_ms);
  rep.Set("trace.overhead_frac",
          Ratio(Median(ph.s.range_ms) - plain_p50, plain_p50), ph.s.range_ms.size(),
          "range_p50_ms, traced vs untraced half");
  return Conclude(&rep, out, "tloc-stream", seed, true);
}

// ============================================================================
// words-churn: open loop of reads and writes through one QuerySession.
// ============================================================================
struct ChurnOp {
  enum class Kind { kRange, kKnn, kInsert, kRemove, kBatchUpdate } kind;
  Clock::duration due;            // offset from the phase start
  uint32_t query = 0;             // pool index (reads)
  uint32_t fresh = 0;             // first fresh-word index (inserts)
  uint32_t count = 0;             // BatchUpdate size
  uint32_t remove = 0;            // first index into the removal order
};

/// Hands out pool queries as successive seeded shuffles of the whole pool,
/// so every run sends each pool query about equally often. Words queries
/// differ widely in cost (edit distance grows with word length), and
/// independent draws made runs differ in how many costly ones they sent.
class PoolDeck {
 public:
  PoolDeck(uint32_t pool, uint64_t seed) : rng_(seed), order_(pool), next_(pool) {
    std::iota(order_.begin(), order_.end(), 0u);
  }
  uint32_t Next() {
    if (next_ == order_.size()) {
      Shuffle(&order_, &rng_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  gts::Rng rng_;
  std::vector<uint32_t> order_;
  size_t next_;
};

/// Where the op sequence stands; it carries over from one phase to the next.
struct ChurnCursors {
  PoolDeck range, knn;
  uint32_t fresh = 0;   // next fresh word to insert
  uint32_t remove = 0;  // next index into the removal order
};

/// The deterministic op sequence of reads [first_read, first_read + reads):
/// range and kNN alternate.
std::vector<ChurnOp> ChurnSchedule(uint32_t first_read, uint32_t reads, ChurnCursors* c) {
  std::vector<ChurnOp> ops;
  const auto period = std::chrono::duration<double>(1.0 / kChurnReadRate);
  for (uint32_t j = 0; j < reads; ++j) {
    const uint32_t read = first_read + j;
    const auto due = std::chrono::duration_cast<Clock::duration>(period * j);
    ChurnOp r{};
    r.kind = read % 2 == 0 ? ChurnOp::Kind::kRange : ChurnOp::Kind::kKnn;
    r.due = due;
    r.query = read % 2 == 0 ? c->range.Next() : c->knn.Next();
    ops.push_back(r);
    if (read % kChurnWriteEvery == kChurnWriteEvery - 1) {
      ops.push_back(ChurnOp{ChurnOp::Kind::kInsert, due, 0, c->fresh++, 1, 0});
      ops.push_back(ChurnOp{ChurnOp::Kind::kRemove, due, 0, 0, 1, c->remove++});
    }
    if (read % kChurnBatchEvery == kChurnBatchOffset) {
      ops.push_back(ChurnOp{ChurnOp::Kind::kBatchUpdate, due, 0, c->fresh, kChurnBatchSize,
                            c->remove});
      c->fresh += kChurnBatchSize;
      c->remove += kChurnBatchSize;
    }
  }
  if (c->fresh > kChurnFresh) Die("words-churn: run longer than the fresh-word pool");
  return ops;
}

struct ChurnSystem {
  Dataset data = Dataset::Strings();
  Dataset fresh = Dataset::Strings();
  Dataset pool = Dataset::Strings();
  std::vector<uint32_t> removal_order;  // original ids, shuffled
  uint32_t warm_inserts = 0;            // fresh words inserted at set-up
  float radius = 0.0f;
  std::unique_ptr<DistanceMetric> metric;
  std::unique_ptr<gpu::Device> device;
  std::unique_ptr<GtsIndex> index;
  std::unique_ptr<serve::QueryExecutor> executor;
  std::unique_ptr<serve::QuerySession> session;
};

/// Applies the cache warm-up: fresh words straight into the index until the
/// cache table holds kChurnCacheWarmBytes, so the phase's inserts overflow
/// it and force a rebuild while readers are live.
uint32_t WarmCache(GtsIndex* index, const Dataset& fresh) {
  uint64_t bytes = 0;
  uint32_t i = 0;
  while (bytes < kChurnCacheWarmBytes) {
    Unwrap(index->Insert(fresh, i), "warm insert");
    bytes += fresh.ObjectBytes(i);
    ++i;
  }
  return i;
}

serve::Request ChurnRequest(const ChurnSystem& sys, const ChurnOp& op,
                            uint32_t fresh_base) {
  switch (op.kind) {
    case ChurnOp::Kind::kRange:
      return serve::Request::Range(sys.pool, op.query, sys.radius);
    case ChurnOp::Kind::kKnn:
      return serve::Request::Knn(sys.pool, op.query, kK);
    case ChurnOp::Kind::kInsert:
      return serve::Request::Insert(sys.fresh, fresh_base + op.fresh);
    case ChurnOp::Kind::kRemove:
      return serve::Request::Remove(sys.removal_order[op.remove]);
    case ChurnOp::Kind::kBatchUpdate: {
      Dataset ins = SliceRange(sys.fresh, fresh_base + op.fresh,
                               fresh_base + op.fresh + op.count);
      std::vector<uint32_t> rm(sys.removal_order.begin() + op.remove,
                               sys.removal_order.begin() + op.remove + op.count);
      return serve::Request::BatchUpdate(std::move(ins), std::move(rm));
    }
  }
  return serve::Request::Rebuild();
}

struct ChurnPhase {
  OpenLoopSamples s;
  std::vector<ChurnOp> ops;
  uint64_t backlog_peak = 0, cache_peak = 0, unreclaimed_peak = 0;
  uint64_t rebuilds = 0;
  double sim_ns = 0.0;
  uint64_t kernels = 0;
  gts::DistanceStats metric0, metric1;
  serve::SessionStats st0, st1;
};

ChurnPhase RunChurnPhase(ChurnSystem* sys, std::vector<ChurnOp> ops, Outcome* out) {
  ChurnPhase ph;
  ph.ops = std::move(ops);
  // Reads are checked after Drain (CheckChurnProbes): their answers depend
  // on which writes they raced.
  OpenLoop loop;
  loop.ops = static_cast<uint32_t>(ph.ops.size());
  loop.due = [&](uint32_t i) { return ph.ops[i].due; };
  loop.submit = [&](uint32_t i) {
    return sys->session->Submit(ChurnRequest(*sys, ph.ops[i], sys->warm_inserts));
  };
  loop.answer = [&](uint32_t i, serve::Response&, double ms) {
    switch (ph.ops[i].kind) {
      case ChurnOp::Kind::kRange:
        ph.s.range_ms.push_back(ms);
        ph.s.range_ops.push_back(i);
        ++ph.s.reads_ok;
        break;
      case ChurnOp::Kind::kKnn:
        ph.s.knn_ms.push_back(ms);
        ph.s.knn_ops.push_back(i);
        ++ph.s.reads_ok;
        break;
      default:
        ph.s.write_ms.push_back(ms);
    }
    return true;
  };
  loop.sample_every = 8;
  loop.sample = [&] {
    ph.backlog_peak = std::max<uint64_t>(ph.backlog_peak, sys->session->inflight_reads());
    ph.cache_peak = std::max<uint64_t>(ph.cache_peak, sys->index->cache_size());
    ph.unreclaimed_peak = std::max<uint64_t>(
        ph.unreclaimed_peak, sys->index->versions_retired() - sys->index->versions_reclaimed());
  };
  loop.finish = [&] {
    sys->session->Flush();
    sys->session->Drain();
  };
  ph.metric0 = sys->metric->stats();
  ph.st0 = sys->session->stats();
  const DeviceProbe d0 = ReadDevice(*sys->device);
  const uint64_t rebuilds0 = sys->index->rebuild_count();
  RunOpenLoop(loop, &ph.s, out);
  const DeviceProbe d1 = ReadDevice(*sys->device);
  ph.sim_ns = d1.sim_ns - d0.sim_ns;
  ph.kernels = d1.kernels - d0.kernels;
  ph.metric1 = sys->metric->stats();
  ph.st1 = sys->session->stats();
  ph.rebuilds = sys->index->rebuild_count() - rebuilds0;
  return ph;
}

/// After Drain: a fixed probe set through the session, each answer compared
/// with a scan over the ids the index reports alive.
struct ProbeResult {
  uint64_t checked = 0, mismatched = 0, failed = 0;
  double range_us = 0.0, knn_us = 0.0;
  double kernel_seconds = 0.0;
  uint64_t kernel_calls = 0;
};
ProbeResult CheckChurnProbes(ChurnSystem* sys) {
  ProbeResult res;
  const GtsIndex& index = *sys->index;
  const Dataset& data = index.data();
  std::vector<uint32_t> alive;
  for (uint32_t id = 0; id < index.size(); ++id) {
    if (index.IsAlive(id)) alive.push_back(id);
  }
  ScanFloor floor(sys->metric.get());
  double range_s = 0.0, knn_s = 0.0;
  for (uint32_t q = 0; q < kChurnProbes; ++q) {
    auto fr = sys->session->Submit(serve::Request::Range(sys->pool, q, sys->radius));
    auto fk = sys->session->Submit(serve::Request::Knn(sys->pool, q, kK));
    serve::Response rr = fr.get();
    serve::Response rk = fk.get();
    auto t0 = Clock::now();
    const auto want_r = floor.Range(sys->pool, q, data, alive, sys->radius);
    auto t1 = Clock::now();
    const auto want_k = floor.Knn(sys->pool, q, data, alive, kK);
    auto t2 = Clock::now();
    range_s += Seconds(t0, t1);
    knn_s += Seconds(t1, t2);
    res.checked += 2;
    if (!rr.ok()) ++res.failed;
    else if (!SameIds(rr.range().value(), want_r)) ++res.mismatched;
    if (!rk.ok()) ++res.failed;
    else if (!SameNeighbors(rk.knn().value(), want_k)) ++res.mismatched;
  }
  res.range_us = range_s * 1e6 / kChurnProbes;
  res.knn_us = knn_s * 1e6 / kChurnProbes;
  res.kernel_seconds = floor.kernel_seconds();
  res.kernel_calls = floor.kernel_calls();
  return res;
}

int RunWordsChurn(uint64_t seed, double seconds, bool trace) {
  Report rep;
  std::vector<Setup> timings;
  auto make_index = [&](ChurnSystem* b, gpu::Device* device) {
    ScopedSpan span(&g_tracer, "core.Build", "core");
    return Unwrap(GtsIndex::Build(b->data, b->metric.get(), device, gts::GtsOptions{}),
                  "build");
  };
  auto sys = RepeatSetup<ChurnSystem>(
      [&](Setup* s) {
        auto t0 = Clock::now();
        auto b = std::make_unique<ChurnSystem>();
        {
          ScopedSpan span(&g_tracer, "data.generate", "data");
          const Dataset all = gts::GenerateDataset(DatasetId::kWords, kWordsN + kChurnFresh,
                                                   kCorpusSeed);
          b->data = SliceRange(all, 0, kWordsN);
          std::vector<uint32_t> fresh_ids(kChurnFresh);
          std::iota(fresh_ids.begin(), fresh_ids.end(), kWordsN);
          gts::Rng fresh_rng(kCorpusSeed + 5);
          Shuffle(&fresh_ids, &fresh_rng);
          b->fresh = all.Slice(fresh_ids);
          b->pool = gts::SampleQueries(b->data, kQueryPool, kCorpusSeed + 2);
          b->metric = gts::MakeDatasetMetric(DatasetId::kWords);
          b->radius = gts::CalibrateRadius(b->data, *b->metric, kRadiusStep * 1e-4,
                                           200, kCorpusSeed + 3);
          b->removal_order.resize(kWordsN);
          std::iota(b->removal_order.begin(), b->removal_order.end(), 0u);
          gts::Rng rng(kCorpusSeed + 4);
          Shuffle(&b->removal_order, &rng);
        }
        auto t1 = Clock::now();
        b->device = std::make_unique<gpu::Device>();
        b->index = make_index(b.get(), b->device.get());
        b->warm_inserts = WarmCache(b->index.get(), b->fresh);
        s->build_s = Seconds(t1, Clock::now());
        serve::ExecutorOptions eo;
        eo.num_threads = kWorkers;
        b->executor = std::make_unique<serve::QueryExecutor>(b->index.get(), eo);
        b->session = std::make_unique<serve::QuerySession>(b->index.get(),
                                                           b->executor.get());
        s->gen_s = Seconds(t0, t1);
        return b;
      },
      &timings);
  ReportSetup(timings, &rep);

  ChurnCursors cursors{PoolDeck(sys->pool.size(), SubSeed(seed, 20)),
                       PoolDeck(sys->pool.size(), SubSeed(seed, 21))};
  Outcome out;
  if (!trace) {
    const uint32_t reads = static_cast<uint32_t>(kChurnReadRate * seconds);
    const ChurnPhase ph = RunChurnPhase(sys.get(), ChurnSchedule(0, reads, &cursors), &out);
    const ProbeResult probe = CheckChurnProbes(sys.get());
    out.attempted += probe.checked;
    out.errors += probe.failed;
    out.mismatched += probe.mismatched;
    ReportOpenLoopE2E(ph.s, ph.s.reads_ok, ph.sim_ns, &rep);
    rep.Info("core.rebuilds", ph.rebuilds, "count", 1);
    return Conclude(&rep, out, "words-churn", seed, false);
  }

  const uint32_t half = static_cast<uint32_t>(kChurnReadRate * seconds / 2);
  g_tracer.Enable(false);
  const ChurnPhase plain = RunChurnPhase(sys.get(), ChurnSchedule(0, half, &cursors), &out);
  g_tracer.Enable(true);
  const ChurnPhase ph = RunChurnPhase(sys.get(), ChurnSchedule(half, half, &cursors), &out);
  const ProbeResult probe = CheckChurnProbes(sys.get());
  out.attempted += probe.checked;
  out.errors += probe.failed;
  out.mismatched += probe.mismatched;

  // Single-thread replay of the whole op sequence on a fresh copy of the
  // index: the untraced half only applies its writes, the traced half is
  // timed op by op. Returns the op's time in microseconds.
  gpu::Device replay_device;
  std::unique_ptr<GtsIndex> replay = make_index(sys.get(), &replay_device);
  WarmCache(replay.get(), sys->fresh);
  GtsQueryStats st;
  uint64_t results = 0;
  auto apply = [&](const ChurnOp& op, bool timed) {
    if (op.kind == ChurnOp::Kind::kRange || op.kind == ChurnOp::Kind::kKnn) {
      if (!timed) return 0.0;
      const float radius = op.kind == ChurnOp::Kind::kRange ? sys->radius : -1.0f;
      return ReplayBatch(replay.get(), sys->pool, {&op.query, 1}, radius, &st, &results).us;
    }
    const char* name = "core.replay.Insert";
    gts::Status status;
    const auto t0 = Clock::now();
    if (op.kind == ChurnOp::Kind::kInsert) {
      status = replay->Insert(sys->fresh, sys->warm_inserts + op.fresh).status();
    } else if (op.kind == ChurnOp::Kind::kRemove) {
      status = replay->Remove(sys->removal_order[op.remove]);
      name = "core.replay.Remove";
    } else {
      const Dataset ins = SliceRange(sys->fresh, sys->warm_inserts + op.fresh,
                                     sys->warm_inserts + op.fresh + op.count);
      const std::vector<uint32_t> rm(sys->removal_order.begin() + op.remove,
                                     sys->removal_order.begin() + op.remove + op.count);
      status = replay->BatchUpdate(ins, rm);
      name = "core.replay.BatchUpdate";
    }
    const auto t1 = Clock::now();
    if (!status.ok()) Die(std::string(name) + ": " + status.ToString());
    if (timed) g_tracer.Record(name, "core", t0, t1);
    return Seconds(t0, t1) * 1e6;
  };
  g_tracer.Enable(false);
  for (const ChurnOp& op : plain.ops) apply(op, false);
  g_tracer.Enable(true);
  std::vector<double> op_core_us(ph.ops.size(), 0.0);
  std::vector<double> range_us, knn_us, insert_us, remove_us, batch_ms;
  for (size_t i = 0; i < ph.ops.size(); ++i) {
    const double us = apply(ph.ops[i], true);
    op_core_us[i] = us;
    switch (ph.ops[i].kind) {
      case ChurnOp::Kind::kRange: range_us.push_back(us); break;
      case ChurnOp::Kind::kKnn: knn_us.push_back(us); break;
      case ChurnOp::Kind::kInsert: insert_us.push_back(us); break;
      case ChurnOp::Kind::kRemove: remove_us.push_back(us); break;
      case ChurnOp::Kind::kBatchUpdate: batch_ms.push_back(us / 1e3); break;
    }
  }
  std::vector<double> rebuild_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    if (!replay->Rebuild().ok()) Die("replay rebuild failed");
    const auto t1 = Clock::now();
    g_tracer.Record("core.replay.Rebuild", "core", t0, t1);
    rebuild_ms.push_back(Seconds(t0, t1) * 1e3);
  }
  g_tracer.Enable(false);

  const uint64_t reads = range_us.size() + knn_us.size();
  rep.Set("core.range_us_per_q", Mean(range_us), range_us.size(), "single-query replay");
  rep.Set("core.knn_us_per_q", Mean(knn_us), knn_us.size(), "single-query replay");
  ReportQueryStats(st, reads, results, &rep);
  rep.Set("core.groups_per_batch", Ratio(st.query_groups, reads), reads,
          "per single-query replay call");
  rep.Set("core.insert_us", Median(insert_us), insert_us.size(), "replay median");
  rep.Set("core.remove_us", Median(remove_us), remove_us.size(), "replay median");
  if (batch_ms.empty()) {
    rep.Set("core.batch_update_ms", 0.0, 0, "no BatchUpdate in the traced half");
  } else {
    rep.Set("core.batch_update_ms", Median(batch_ms), batch_ms.size());
  }
  rep.Set("core.rebuild_ms", Median(rebuild_ms), rebuild_ms.size(), "explicit Rebuild()");
  rep.Set("core.rebuilds", ph.rebuilds, 1, "live index, traced half");
  rep.Set("core.cache_entries_peak", ph.cache_peak, ph.ops.size() / 8);
  rep.Set("core.versions_unreclaimed_peak", ph.unreclaimed_peak, ph.ops.size() / 8);
  const uint64_t live_reads = ph.s.reads_ok;
  rep.Set("metric.calls_per_q", Ratio(ph.metric1.calls - ph.metric0.calls, live_reads),
          live_reads, "includes the writes' distance work");
  rep.Set("metric.ops_per_q", Ratio(ph.metric1.ops - ph.metric0.ops, live_reads),
          live_reads);
  rep.Set("gpu.sim_us_per_q", Ratio(ph.sim_ns / 1e3, live_reads), live_reads);
  rep.Set("gpu.kernels_per_q", Ratio(ph.kernels, live_reads), live_reads);
  rep.Set("gpu.resident_mb", sys->index->DeviceResidentBytes() / 1e6, 1);
  rep.Set("gpu.peak_alloc_mb", sys->device->peak_allocated_bytes() / 1e6, 1);
  rep.Set("floor.range_us_per_q", probe.range_us, kChurnProbes, "scan over alive ids");
  rep.Set("floor.knn_us_per_q", probe.knn_us, kChurnProbes, "scan over alive ids");
  rep.Set("metric.ns_per_call",
          Ratio(probe.kernel_seconds * 1e9, static_cast<double>(probe.kernel_calls)),
          probe.kernel_calls);
  rep.Set("floor.knn_ratio", Ratio(Mean(knn_us), probe.knn_us), knn_us.size(),
          ">1 means the index loses to the scan");
  rep.Set("serve.submit_us", Median(ph.s.submit_us), ph.s.submit_us.size());
  std::vector<double> overhead_us;
  for (size_t i = 0; i < ph.s.range_ops.size(); ++i) {
    overhead_us.push_back(ph.s.range_ms[i] * 1e3 - op_core_us[ph.s.range_ops[i]]);
  }
  for (size_t i = 0; i < ph.s.knn_ops.size(); ++i) {
    overhead_us.push_back(ph.s.knn_ms[i] * 1e3 - op_core_us[ph.s.knn_ops[i]]);
  }
  rep.Set("serve.overhead_us", Median(overhead_us), overhead_us.size(),
          "read latency minus replayed core time");
  const uint64_t flushes = ph.st1.flushes - ph.st0.flushes;
  rep.Set("serve.flush_batch", Ratio(ph.st1.completed - ph.st0.completed, flushes), flushes);
  const uint64_t rejected = ph.st1.rejected - ph.st0.rejected;
  const uint64_t offered = ph.st1.submitted - ph.st0.submitted + rejected;
  rep.Set("serve.reject_frac", Ratio(rejected, offered), offered);
  rep.Set("serve.backlog_peak", ph.backlog_peak, ph.ops.size() / 8);
  rep.Set("serve.pruned_shard_frac", 0.0, 0, "one session, no shards");
  rep.Set("loadgen.lag_p99_ms", Quantile(ph.s.lag_ms, 0.99), ph.s.lag_ms.size());
  const auto plain_reads = plain.s.reads_ms();
  const double plain_p50 = Median(plain_reads);
  rep.Set("trace.overhead_frac", Ratio(Median(ph.s.reads_ms()) - plain_p50, plain_p50),
          live_reads, "read p50, traced vs untraced half");
  return Conclude(&rep, out, "words-churn", seed, true);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val, nullptr);
    else if (key == "--trace") trace = std::atoi(val);
    else perfbench::Die("unknown argument " + std::string(key));
  }
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) {
    perfbench::Die("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  perfbench::g_trace_dir =
      (std::filesystem::path(argv[0]).parent_path() / "traces").string();
  if (trace == 1) perfbench::g_tracer.Enable(true);  // set-up spans
  if (workload == "tloc-batch") return perfbench::RunTLocBatch(seed, seconds, trace == 1);
  if (workload == "tloc-stream") return perfbench::RunTLocStream(seed, seconds, trace == 1);
  if (workload == "words-churn") return perfbench::RunWordsChurn(seed, seconds, trace == 1);
  perfbench::Die("unknown workload '" + workload + "'");
}
