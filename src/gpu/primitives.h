// Device-wide parallel primitives of the simulator: ParallelFor,
// encode-sort (the paper's global partitioning workhorse), reductions,
// scans and top-k selection. Each primitive executes on the host and
// charges the device clock according to the lane-parallel model.
#ifndef GTS_GPU_PRIMITIVES_H_
#define GTS_GPU_PRIMITIVES_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "gpu/device.h"
#include "metric/distance.h"

namespace gts::gpu {

/// Executes fn(i) for i in [0, n) as one kernel of n work items costing
/// `ops_per_item` elementary operations each.
template <typename Fn>
void ParallelFor(Device* device, uint64_t n, double ops_per_item, Fn&& fn) {
  for (uint64_t i = 0; i < n; ++i) fn(i);
  device->clock().ChargeKernel(n, static_cast<uint64_t>(ops_per_item * n));
}

/// Charges one kernel of distance computations whose elementary-op cost is
/// measured from the metric's per-thread op counter (exact even while other
/// threads compute distances concurrently — the kernel's work never leaves
/// this thread). Work items are the individual distance evaluations; pass
/// kAutoItems when the count is not known upfront (it is then taken from
/// the call-count delta). Charges the device's shared clock, or — for
/// callers that fold concurrent timelines with SimClock::MergeConcurrent,
/// like the per-call query contexts — any private clock. Usage:
///   { KernelDistanceScope scope(device, metric, items);
///     ... compute distances via metric ... }
class KernelDistanceScope {
 public:
  static constexpr uint64_t kAutoItems = 0;

  KernelDistanceScope(SimClock* clock, const DistanceMetric* metric,
                      uint64_t items)
      : clock_(clock), items_(items),
        start_(DistanceMetric::ThreadStats()) {
    (void)metric;  // the per-thread counters are metric-instance-agnostic
  }
  KernelDistanceScope(Device* device, const DistanceMetric* metric,
                      uint64_t items)
      : KernelDistanceScope(&device->clock(), metric, items) {}
  ~KernelDistanceScope() {
    const DistanceStats now = DistanceMetric::ThreadStats();
    const uint64_t items =
        items_ != kAutoItems ? items_ : now.calls - start_.calls;
    if (items > 0) {
      clock_->ChargeKernel(items, now.ops - start_.ops);
    }
  }
  KernelDistanceScope(const KernelDistanceScope&) = delete;
  KernelDistanceScope& operator=(const KernelDistanceScope&) = delete;

 private:
  SimClock* clock_;
  uint64_t items_;
  DistanceStats start_;
};

/// Sorts `values` by `keys` (both permuted), charging a device sort.
/// This is the global concurrent sort of Algorithm 3.
void SortPairsByKey(Device* device, std::span<double> keys,
                    std::span<uint32_t> values);

/// Variant carrying the table list through the sort: permutes `objects` and
/// `dis` together by ascending `keys`. The paper decodes distances back from
/// the encoded keys; carrying the exact float values instead costs the same
/// on the model and avoids decode rounding.
void SortTableByKey(Device* device, std::span<double> keys,
                    std::span<uint32_t> objects, std::span<float> dis);

/// Device-wide maximum over floats (0 for empty input).
float ReduceMax(Device* device, std::span<const float> values);

/// Exclusive prefix sum.
void ExclusiveScan(Device* device, std::span<const uint32_t> in,
                   std::span<uint32_t> out);

/// Returns the indices of the k smallest values (delegate-centric partial
/// selection in the spirit of Dr. Top-k [23]): lanes-many segments produce
/// local candidates which are then merged and sorted.
std::vector<uint32_t> SelectKSmallest(Device* device,
                                      std::span<const float> values,
                                      uint32_t k);

}  // namespace gts::gpu

#endif  // GTS_GPU_PRIMITIVES_H_
