#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace iosbench {

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(xs.begin(), xs.end());
  return ios::percentile_sorted(xs, p);
}

double highest_supported_percentile(std::size_t n) {
  static constexpr double kLadder[] = {50, 90, 99, 99.9, 99.99, 99.999};
  static constexpr std::size_t kMinBeyond = 10;
  double best = 0;
  for (double p : kLadder) {
    // Samples above the p-th percentile: n * (100 - p) / 100. Compared in
    // integer thousandths of a percent so 99.9 is exact.
    const auto tail_milli = static_cast<std::size_t>(std::lround((100 - p) * 1000));
    if (n * tail_milli >= kMinBeyond * 100 * 1000) best = p;
  }
  return best;
}

double geomean_of_percentiles(const std::map<std::string, std::vector<double>>& by_item,
                              double p) {
  if (by_item.empty()) throw std::invalid_argument("geomean over no items");
  std::vector<double> figures;
  for (const auto& [item, samples] : by_item) {
    if (samples.empty()) {
      throw std::invalid_argument("item '" + item + "' has no samples");
    }
    const double x = percentile(samples, p);
    if (!(x > 0)) {
      throw std::invalid_argument("item '" + item + "' has a non-positive percentile");
    }
    figures.push_back(x);
  }
  return ios::geomean(figures);
}

double sum_of_percentiles(const std::map<std::string, std::vector<double>>& by_item, double p) {
  double sum = 0;
  for (const auto& [item, samples] : by_item) {
    if (!samples.empty()) sum += percentile(samples, p);
  }
  return sum;
}

Reconciliation reconcile(double layer_sum, double end_to_end, double tolerance) {
  Reconciliation r;
  r.remainder = end_to_end - layer_sum;
  if (!(end_to_end > 0)) {
    r.rel_error = INFINITY;
    return r;
  }
  r.rel_error = std::fabs(r.remainder) / end_to_end;
  r.ok = r.rel_error <= tolerance;
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace iosbench
