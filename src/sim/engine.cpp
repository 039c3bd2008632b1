#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ios {

double SimResult::warp_time_integral() const {
  double integral = 0;
  for (std::size_t i = 0; i < warp_trace.size(); ++i) {
    const double t0 = warp_trace[i].t_us;
    const double t1 =
        i + 1 < warp_trace.size() ? warp_trace[i + 1].t_us : makespan_us;
    integral += warp_trace[i].active_warps * (t1 - t0);
  }
  return integral;
}

double SimResult::mean_active_warps() const {
  return makespan_us > 0 ? warp_time_integral() / makespan_us : 0.0;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-9;  // microsecond-scale epsilon

struct ActiveKernel {
  const KernelDesc* kernel = nullptr;
  int stream = 0;
  int pos = 0;              // index into StreamRefs::kernels
  double start_us = 0;      // activation time
  double remaining = 1.0;   // fraction of the kernel's work left
  double rate = 0;          // fraction per microsecond (recomputed per epoch)
};

/// Event-loop state, one per thread and reused by every simulation on it,
/// so the search path allocates nothing once the vectors have grown to the
/// largest stage.
struct LoopScratch {
  std::vector<int> next_pos;
  std::vector<double> next_launch;
  std::vector<ActiveKernel> active;
};

LoopScratch& loop_scratch() {
  thread_local LoopScratch scratch;
  return scratch;
}

/// Per-thread refs for the overloads that take the kernels by value.
StreamRefs& refs_scratch() {
  thread_local StreamRefs refs;
  return refs;
}

double saturation(double warps, double slots, double frac) {
  if (warps <= 0) return 0;
  return 1.0 - std::exp(-warps / (slots * frac));
}

}  // namespace

void StreamRefs::assign(const std::vector<KernelStream>& streams) {
  clear();
  for (const KernelStream& stream : streams) {
    for (const KernelDesc& k : stream) push(k);
    end_stream();
  }
}

SimResult Engine::run(const std::vector<KernelStream>& streams) const {
  StreamRefs& refs = refs_scratch();
  refs.assign(streams);
  SimResult result;
  result.makespan_us = simulate(refs, &result);
  return result;
}

double Engine::makespan_us(const std::vector<KernelStream>& streams) const {
  StreamRefs& refs = refs_scratch();
  refs.assign(streams);
  return simulate(refs, nullptr);
}

double Engine::makespan_us(const StreamRefs& streams) const {
  return simulate(streams, nullptr);
}

double Engine::kernel_latency_us(const KernelDesc& k) const {
  StreamRefs& refs = refs_scratch();
  refs.clear();
  refs.push(k);
  refs.end_stream();
  return simulate(refs, nullptr);
}

double Engine::simulate(const StreamRefs& streams, SimResult* record) const {
  const double slots = spec_.total_warp_slots();
  const double peak = spec_.peak_flops_per_us();
  const double bw = spec_.bytes_per_us();

  const int num_streams = streams.num_streams();
  const std::size_t n = static_cast<std::size_t>(num_streams);
  LoopScratch& scratch = loop_scratch();
  // next_pos[s]: stream s's next kernel (an index into streams.kernels).
  // next_launch[s]: time at which that kernel becomes active, or kInf if
  // the stream is exhausted / its next kernel not yet scheduled.
  std::vector<int>& next_pos = scratch.next_pos;
  std::vector<double>& next_launch = scratch.next_launch;
  std::vector<ActiveKernel>& active = scratch.active;
  next_pos.assign(n, 0);
  next_launch.assign(n, kInf);
  active.clear();
  for (std::size_t s = 0; s < n; ++s) {
    next_pos[s] = s == 0 ? 0 : streams.ends[s - 1];
    if (next_pos[s] < streams.ends[s]) {
      next_launch[s] = spec_.kernel_launch_us;
    }
  }

  double now = 0;

  auto record_warp_segment = [&](double t) {
    if (record == nullptr) return;
    double warps = 0;
    for (const ActiveKernel& a : active) {
      warps += a.kernel->warps;
    }
    warps = std::min(warps, slots);
    if (!record->warp_trace.empty() &&
        record->warp_trace.back().active_warps == warps) {
      return;  // merge identical adjacent segments
    }
    record->warp_trace.push_back({t, warps});
  };

  auto recompute_rates = [&]() {
    // Proportional warp allocation under the slot cap.
    double demand = 0;
    for (const ActiveKernel& a : active) demand += a.kernel->warps;
    const double scale = demand > slots ? slots / demand : 1.0;
    const double total_alloc = std::min(demand, slots);
    const double eff_c =
        saturation(total_alloc, slots, spec_.compute_sat_frac);
    const double eff_m = saturation(total_alloc, slots, spec_.memory_sat_frac);
    // Shared-resource interference between co-resident kernels (Section 7.2
    // of the paper): grows with occupancy, so concurrency is nearly free on
    // an under-utilized device but costly when the batch already fills it.
    const double occupancy = total_alloc / slots;
    const double n_active = static_cast<double>(active.size());
    const double contention =
        1.0 + spec_.mem_contention_coef * (n_active - 1.0) * occupancy *
                  occupancy;
    for (ActiveKernel& a : active) {
      const KernelDesc& k = *a.kernel;
      const double alloc = k.warps * scale;
      const double share = total_alloc > 0 ? alloc / total_alloc : 0;
      double rate = kInf;
      if (k.flops > 0) {
        rate = std::min(rate, peak * eff_c * share * k.efficiency / k.flops);
      }
      if (k.bytes > 0) {
        rate = std::min(rate, bw * eff_m * share / (k.bytes * contention));
      }
      a.rate = rate;
    }
  };

  const int total_kernels = static_cast<int>(streams.kernels.size());
  int completed = 0;

  // Retires active[i] at `now`: records it, schedules its stream's next
  // launch and swap-removes it (the active-set order the rate passes sum
  // in).
  auto retire = [&](std::size_t i) {
    const ActiveKernel& a = active[i];
    if (record != nullptr) {
      record->timeline.push_back(
          {a.kernel->op, a.kernel->name, a.stream, a.start_us, now});
    }
    const std::size_t si = static_cast<std::size_t>(a.stream);
    next_pos[si] = a.pos + 1;
    if (next_pos[si] < streams.ends[si]) {
      next_launch[si] = now + spec_.kernel_launch_us;
    }
    ++completed;
    active[i] = active.back();
    active.pop_back();
  };

  while (completed < total_kernels) {
    // Next event: earliest kernel completion or stream launch.
    double next_event = kInf;
    for (const ActiveKernel& a : active) {
      if (a.rate <= 0) {
        throw std::runtime_error("simulator stall: kernel has zero rate");
      }
      next_event = std::min(next_event, now + a.remaining / a.rate);
    }
    for (std::size_t s = 0; s < n; ++s) {
      next_event = std::min(next_event, next_launch[s]);
    }
    assert(next_event < kInf && next_event >= now - kTimeEps);
    next_event = std::max(next_event, now);

    // Advance active kernels to the event time.
    const double dt = next_event - now;
    for (ActiveKernel& a : active) {
      a.remaining -= a.rate * dt;
    }
    now = next_event;

    // Retire finished kernels and schedule their stream's next launch.
    bool changed = false;
    for (std::size_t i = 0; i < active.size();) {
      const ActiveKernel& a = active[i];
      if (a.remaining <= a.rate * kTimeEps + 1e-12) {
        retire(i);
        changed = true;
      } else {
        ++i;
      }
    }

    // Activate newly launched kernels.
    for (std::size_t s = 0; s < n; ++s) {
      if (next_launch[s] <= now + kTimeEps) {
        ActiveKernel a;
        a.kernel = streams.kernels[static_cast<std::size_t>(next_pos[s])];
        a.stream = static_cast<int>(s);
        a.pos = next_pos[s];
        a.start_us = now;
        // Zero-work kernels (pure bookkeeping) complete instantly; give them
        // an epsilon of work so the loop retires them on the next iteration.
        a.remaining =
            (a.kernel->flops <= 0 && a.kernel->bytes <= 0) ? 0.0 : 1.0;
        active.push_back(a);
        next_launch[s] = kInf;
        changed = true;
      }
    }

    if (changed) {
      recompute_rates();
      record_warp_segment(now);
      // Instantly retire zero-work kernels activated above.
      for (std::size_t i = 0; i < active.size();) {
        if (active[i].remaining <= 0) {
          retire(i);
        } else {
          ++i;
        }
      }
      recompute_rates();
      record_warp_segment(now);
    }
  }

  return now;
}

}  // namespace ios
