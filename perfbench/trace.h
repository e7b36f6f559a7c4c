// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around each call
// it makes into a layer's public functions (index builds, batch calls,
// Submit, a future becoming ready, floor scans, replay calls). A span has
// a name, a layer, a start and an end on the steady clock, the span that
// caused it, and the request it belongs to. Nothing is written while the
// workload runs: spans stay in memory and are dumped as Chrome trace-event
// JSON at exit, and per-layer self time (span time minus the time its
// child spans cover) is computed from the same records.
#ifndef GTS_PERFBENCH_TRACE_H_
#define GTS_PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  static constexpr uint64_t kNoParent = 0;
  static constexpr size_t kMaxSpans = 600'000;

  /// Tracing is off until Enable(true); a disabled tracer records nothing
  /// and costs one relaxed load per call.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a finished span and returns its id (0 when disabled or full).
  uint64_t Record(const char* name, const char* layer, Clock::time_point start,
                  Clock::time_point end, uint64_t parent = kNoParent,
                  uint64_t request = 0) {
    if (!enabled()) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return 0;
    }
    const uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{name, layer, start, end, parent, request, id,
                          ThreadIndexLocked()});
    return id;
  }

  /// Reserves an id for a span whose end is not known yet (a request's
  /// root span, parent of spans recorded on other threads). Close it with
  /// Finish; an unfinished span is dropped from every output.
  uint64_t Open(const char* name, const char* layer, Clock::time_point start,
                uint64_t parent = kNoParent, uint64_t request = 0) {
    return Record(name, layer, start, Clock::time_point::min(), parent,
                  request);
  }
  void Finish(uint64_t id, Clock::time_point end) {
    if (id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = end;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  /// Self time per layer, in seconds: each finished span's duration minus
  /// the union of its finished children's intervals clipped to it.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_map<uint64_t, std::vector<std::pair<Clock::time_point,
                                                       Clock::time_point>>>
        children;
    for (const Span& s : spans_) {
      if (s.parent != kNoParent && Finished(s)) {
        children[s.parent].emplace_back(s.start, s.end);
      }
    }
    std::map<std::string, double> self;
    for (const Span& s : spans_) {
      if (!Finished(s)) continue;
      double covered = 0.0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        Clock::time_point cur_start = s.start, cur_end = s.start;
        for (auto [a, b] : iv) {
          a = std::max(a, s.start);
          b = std::min(b, s.end);
          if (b <= a) continue;
          if (a > cur_end) {
            covered += Seconds(cur_start, cur_end);
            cur_start = a;
            cur_end = b;
          } else {
            cur_end = std::max(cur_end, b);
          }
        }
        covered += Seconds(cur_start, cur_end);
      }
      self[s.layer] += std::max(0.0, Seconds(s.start, s.end) - covered);
    }
    return self;
  }

  /// Writes every finished span as Chrome trace-event JSON ("X" events,
  /// microseconds from the first span). Returns false if the file cannot
  /// be written.
  bool DumpChromeJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    Clock::time_point origin = Clock::time_point::max();
    for (const Span& s : spans_) origin = std::min(origin, s.start);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    bool first = true;
    for (const Span& s : spans_) {
      if (!Finished(s)) continue;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu}}",
                   first ? "" : ",\n", s.name, s.layer, s.thread,
                   Seconds(origin, s.start) * 1e6, Seconds(s.start, s.end) * 1e6,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    const char* layer;
    Clock::time_point start;
    Clock::time_point end;
    uint64_t parent;
    uint64_t request;
    uint64_t id;
    uint32_t thread;
  };
  static bool Finished(const Span& s) {
    return s.end != Clock::time_point::min() && s.end >= s.start;
  }
  uint32_t ThreadIndexLocked() {
    const auto me = std::this_thread::get_id();
    auto it = threads_.find(me);
    if (it != threads_.end()) return it->second;
    const uint32_t idx = static_cast<uint32_t>(threads_.size()) + 1;
    threads_.emplace(me, idx);
    return idx;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, uint32_t> threads_;
  uint64_t dropped_ = 0;
};

/// RAII span on the calling thread: records [construction, destruction].
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             uint64_t parent = Tracer::kNoParent, uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer->Open(name, layer, Clock::now(), parent, request)) {}
  ~ScopedSpan() { tracer_->Finish(id_, Clock::now()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // GTS_PERFBENCH_TRACE_H_
