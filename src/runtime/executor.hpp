#pragma once
// Executor: runs a Schedule on the simulated GPU and reports latency. This
// mirrors the paper's C++/cuDNN execution engine: each group of a concurrent
// stage becomes a CUDA-stream-like kernel stream; a merge stage becomes one
// stacked convolution followed by channel splits; stages are separated by a
// synchronization whose cost is only paid when the stage actually used
// multiple streams.
//
// The kernel of every schedulable op is built once, at construction, into a
// per-op table; the graph must not change while an Executor refers to it.
// stage_latency_us() and schedule_latency_us() simulate concurrent stages
// straight from table pointers through Engine::makespan_us (no traces, no
// copies); run_schedule() and stage_streams() build the full KernelStreams
// and traces for inspection. Both paths report bit-identical latencies.

#include "graph/graph.hpp"
#include "schedule/merge.hpp"
#include "schedule/schedule.hpp"
#include "sim/engine.hpp"
#include "sim/kernel_model.hpp"

namespace ios {

struct ExecConfig {
  DeviceSpec device;
  KernelModelParams kernel_params;
};

class Executor {
 public:
  Executor(const Graph& g, ExecConfig cfg);

  const Graph& graph() const { return graph_; }
  const DeviceSpec& device() const { return engine_.device(); }
  const KernelModelParams& kernel_params() const { return kparams_; }

  /// The simulated kernel of schedulable op `id` (kernel_for_op, built once
  /// at construction).
  const KernelDesc& kernel(OpId id) const {
    return kernels_[static_cast<std::size_t>(id)];
  }

  /// Latency of one stage in microseconds, including the closing
  /// synchronization when the stage ran more than one stream.
  double stage_latency_us(const Stage& stage) const;

  /// End-to-end latency of the schedule (sum of stage latencies).
  double schedule_latency_us(const Schedule& q) const;

  /// Full simulation of the schedule: kernel timeline and resident-warp
  /// trace across all stages (stage t=0 offsets applied).
  SimResult run_schedule(const Schedule& q) const;

  /// The kernel streams a stage expands to (exposed for tests).
  std::vector<KernelStream> stage_streams(const Stage& stage) const;

 private:
  /// The closing synchronization of a stage that ran `num_streams` streams
  /// (0 for a single stream).
  double sync_us(std::size_t num_streams) const;

  const Graph& graph_;
  Engine engine_;
  KernelModelParams kparams_;
  /// kernel_for_op of every schedulable op, indexed by OpId (input ops keep
  /// a default entry and are never looked up).
  std::vector<KernelDesc> kernels_;
};

/// Kernel for a merged convolution stage: one stacked conv reading the
/// shared input once, plus one split (channel slice copy) per original op.
KernelStream merged_stage_stream(const Graph& g, const MergeInfo& info,
                                 const KernelModelParams& params);

}  // namespace ios
