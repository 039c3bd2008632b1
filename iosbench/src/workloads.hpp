#pragma once
// The benchmark's workloads. Each runs in its own process: set up, print the
// ready marker, measure for the requested time, check every output, and
// return the metrics of its mode (end-to-end untraced, per-layer traced).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace iosbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Exit right after set-up (run.py repeats set-up in fresh processes
  /// to report its median).
  bool setup_only = false;
  /// Scratch directory for profile databases and the Chrome trace.
  std::string out_dir = ".";
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What a run reports: the correctness verdict, the operation counts, and
/// the metrics by name.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed correctness check (the run then exits nonzero).
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

/// Tolerance of the reconciliation rule: the traced per-layer self times
/// must explain the untraced end-to-end figure within this share.
inline constexpr double kReconcileTolerance = 0.25;

/// Percentile of repeated optimize wall times that the end-to-end search
/// figures report. A host stall can only lengthen a call, so the lower
/// quartile moves less with other tenants' load than the median does.
inline constexpr double kWallPercentile = 25;

/// Prints the ready marker that ends set-up.
void signal_ready();

class Tracer;
/// Writes the traced run's spans to <out_dir>/<workload>-seed<n>.trace.json.
void write_trace(const RunOptions& options, const Tracer& tracer);

Report run_search_cold(const RunOptions& options);
Report run_search_warm(const RunOptions& options);
Report run_serve_daemon(const RunOptions& options);

}  // namespace iosbench
