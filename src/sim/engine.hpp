#pragma once
// Event-driven multi-stream GPU execution simulator.
//
// This is the reproduction's substitute for running kernels through cuDNN on
// real CUDA streams (Section 5 of the paper). The model:
//
//  * Each stream executes its kernels in order; a kernel becomes *active*
//    `kernel_launch_us` after its predecessor in the stream finishes.
//  * Active kernels share the device. Kernel k demands `warps_k` resident
//    warps; if total demand exceeds the device's warp slots, allocations are
//    scaled proportionally (the hardware work distributor interleaves thread
//    blocks from concurrent grids).
//  * Device-level throughput saturates with total resident warps A:
//        eff_c(A) = 1 - exp(-A / (slots * compute_sat_frac))
//        eff_m(A) = 1 - exp(-A / (slots * memory_sat_frac))
//    so a single small kernel leaves the device under-utilized (the paper's
//    Figures 1-2) while concurrent kernels raise utilization until the
//    slots saturate, after which they only contend (the paper's "resource
//    contention" effect that penalizes the greedy schedule).
//  * Kernel k's instantaneous progress is roofline-limited:
//        rate_k = min( P * eff_c(A) * share_k * efficiency_k / flops_k,
//                      BW * eff_m(A) * share_k / bytes_k )
//    with share_k = alloc_k / A. Compute- and memory-bound kernels therefore
//    contend for the right resource.
//
// The simulator is deterministic. One event loop serves two callers:
//
//  * run() records the full kernel timeline plus a resident-warp trace
//    (schedule traces, trace export, the paper's Figure 8);
//  * makespan_us() records nothing and reuses per-thread scratch, so it makes
//    no heap allocation in steady state. This is the search path: every cost
//    model miss is one makespan_us() call.
//
// Recording only appends to the result; it never feeds back into the event
// times, so both return bit-identical makespans for the same streams.

#include <vector>

#include "sim/device.hpp"
#include "sim/kernel.hpp"

namespace ios {

/// Kernel streams by pointer, flattened: stream s runs kernels
/// [ends[s-1], ends[s]) of `kernels` (ends[-1] = 0). This is the form the
/// event loop reads, so a caller that owns its KernelDescs (the Executor's
/// per-op kernel table) simulates a stage without copying any of them.
struct StreamRefs {
  std::vector<const KernelDesc*> kernels;
  std::vector<int> ends;

  int num_streams() const { return static_cast<int>(ends.size()); }
  void clear() {
    kernels.clear();
    ends.clear();
  }
  void push(const KernelDesc& k) { kernels.push_back(&k); }
  void end_stream() { ends.push_back(static_cast<int>(kernels.size())); }
  /// Refers to every kernel of `streams`, which must outlive the refs.
  void assign(const std::vector<KernelStream>& streams);
};

class Engine {
 public:
  explicit Engine(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& device() const { return spec_; }

  /// Simulates the concurrent execution of the given streams starting at
  /// t = 0. Returns the makespan and traces.
  SimResult run(const std::vector<KernelStream>& streams) const;

  /// The makespan run() would report, without building its traces.
  double makespan_us(const std::vector<KernelStream>& streams) const;
  double makespan_us(const StreamRefs& streams) const;

  /// Latency of a single kernel executed alone (including launch overhead).
  double kernel_latency_us(const KernelDesc& k) const;

 private:
  /// The event loop. Appends the timeline and warp trace to `record` when
  /// it is non-null; returns the makespan either way.
  double simulate(const StreamRefs& streams, SimResult* record) const;

  DeviceSpec spec_;
};

}  // namespace ios
