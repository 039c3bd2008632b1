#pragma once
// Measurement helpers of the benchmark: order statistics, the geomean over
// per-item medians, and the reconciliation rule that a per-layer breakdown
// must add up to the end-to-end number it explains.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace iosbench {

/// Median of a sample (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty sample.
double median(std::vector<double> xs);

/// Linear-interpolated p-th percentile (p in [0, 100]) of an unsorted
/// sample. Throws std::invalid_argument on an empty sample.
double percentile(std::vector<double> xs, double p);

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// that leaves at least 10 of `n` samples strictly above its rank, i.e.
/// n * (100 - p) / 100 >= 10. Returns 0 when not even the median qualifies.
double highest_supported_percentile(std::size_t n);

/// Geometric mean over items of each item's p-th percentile sample (p = 50:
/// its median). Taking the per-item figure first keeps one slow repetition
/// of one item from moving the result, unlike a geomean per repetition.
/// Throws std::invalid_argument when there are no items, an item has no
/// samples, or an item's figure is <= 0.
double geomean_of_percentiles(const std::map<std::string, std::vector<double>>& by_item,
                              double p);

/// Sum over items of each item's p-th percentile sample (0 for no items).
double sum_of_percentiles(const std::map<std::string, std::vector<double>>& by_item, double p);

/// Outcome of checking a breakdown against the end-to-end figure.
struct Reconciliation {
  double remainder = 0;     ///< end_to_end - sum of the layers
  double rel_error = 0;     ///< |remainder| / end_to_end
  bool ok = false;          ///< rel_error <= tolerance
};

/// Checks that `layer_sum` explains `end_to_end` within `tolerance` (a
/// share of end_to_end). A non-positive end_to_end never reconciles.
Reconciliation reconcile(double layer_sum, double end_to_end, double tolerance);

/// Peak resident set size of this process, MiB (getrusage maxrss).
double peak_rss_mb();

}  // namespace iosbench
