// Unit tests of the benchmark's measurement helpers.

#include <gtest/gtest.h>

#include <cmath>

#include "measure.hpp"
#include "trace.hpp"

namespace iosbench {
namespace {

TEST(HighestSupportedPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0);       // 9.5 beyond the median
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(99), 50);      // 9.9 beyond p90
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(999), 90);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(50000), 99.9);
  EXPECT_EQ(highest_supported_percentile(100000), 99.99);
  EXPECT_EQ(highest_supported_percentile(999999), 99.99);
  EXPECT_EQ(highest_supported_percentile(1000000), 99.999);
}

TEST(Percentile, MedianAndInterpolation) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({0, 10, 20, 30, 40}, 90), 36);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(GeomeanOfPercentiles, TakesEachItemsMedianFirst) {
  // Medians 2 and 8: geomean 4. A per-repetition geomean would average
  // sqrt(1*100)=10, sqrt(2*8)=4 and sqrt(3*7)=4.58 instead.
  const std::map<std::string, std::vector<double>> by_item = {
      {"a", {1, 2, 3}},
      {"b", {100, 8, 7}},
  };
  EXPECT_DOUBLE_EQ(geomean_of_percentiles(by_item, 50), 4);
  EXPECT_DOUBLE_EQ(sum_of_percentiles(by_item, 50), 10);
  EXPECT_THROW(geomean_of_percentiles({}, 50), std::invalid_argument);
  EXPECT_THROW(geomean_of_percentiles({{"a", {}}}, 50), std::invalid_argument);
  EXPECT_THROW(geomean_of_percentiles({{"a", {0}}}, 50), std::invalid_argument);
}

TEST(GeomeanOfPercentiles, LowerQuartileIgnoresSlowRepetitions) {
  // Lower quartiles 1.5 and 6: geomean 3. A stall that triples the slowest
  // repetitions does not move them.
  std::map<std::string, std::vector<double>> by_item = {
      {"a", {1, 2, 3}},
      {"b", {4, 8, 10}},
  };
  EXPECT_DOUBLE_EQ(geomean_of_percentiles(by_item, 25), 3);
  EXPECT_DOUBLE_EQ(sum_of_percentiles(by_item, 25), 7.5);
  by_item["a"].back() = 9;
  by_item["b"].back() = 30;
  EXPECT_DOUBLE_EQ(geomean_of_percentiles(by_item, 25), 3);
}

TEST(SelfTimes, SubtractTheUnionOfChildren) {
  //  root   [0, 100)
  //   a     [10, 40)      overlaps b
  //   b     [30, 50)
  //   c     [90, 120)     sticks out of root: only [90, 100) counts
  //   a.x   [15, 20)      grandchild: counted against a, not root
  Tracer t(true);
  const int root = t.add("root", 0, 100, -1, 7);
  const int a = t.add("a", 10, 40, root, 7);
  t.add("b", 30, 50, root, 7);
  t.add("c", 90, 120, root, 7);
  t.add("a.x", 15, 20, a, 7);
  const std::vector<std::int64_t> self = self_times_ns(t.spans());
  EXPECT_EQ(self[0], 100 - (40 + 10));  // covered: [10,50) and [90,100)
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 20);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);

  const auto by_request = self_time_by_request(t.spans());
  ASSERT_EQ(by_request.size(), 1u);
  std::int64_t total = 0;
  for (const auto& [name, ns] : by_request.at(7)) total += ns;
  // Self times partition the root, except that [30, 40) counts for both a
  // and b and c's 20 ns outside the root count for c.
  EXPECT_EQ(total, 100 + 10 + 20);
}

TEST(SelfTimes, NestedScopedSpans) {
  Tracer t(true);
  {
    ScopedSpan outer(t, "outer", 1);
    ScopedSpan inner(t, "inner", 1);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  const std::vector<std::int64_t> self = self_times_ns(t.spans());
  EXPECT_EQ(self[0] + self[1], t.spans()[0].end_ns - t.spans()[0].start_ns);

  Tracer off(false);
  { ScopedSpan s(off, "ignored", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Reconcile, SyntheticBreakdown) {
  // Two requests, each a root with two layer children; the layers' self
  // times must explain a 100 ns end-to-end mean.
  Tracer t(true);
  for (std::int64_t r = 0; r < 2; ++r) {
    const std::int64_t base = r * 1000;
    const int root = t.add("op", base, base + 100, -1, r);
    t.add("layer1", base + 5, base + 60, root, r);
    t.add("layer2", base + 60, base + 95, root, r);
  }
  double layers = 0;
  for (const auto& [request, names] : self_time_by_request(t.spans())) {
    layers += static_cast<double>(names.at("layer1") + names.at("layer2")) / 2;
  }
  const Reconciliation ok = reconcile(layers, 100, 0.15);
  EXPECT_DOUBLE_EQ(ok.remainder, 10);
  EXPECT_DOUBLE_EQ(ok.rel_error, 0.10);
  EXPECT_TRUE(ok.ok);

  const Reconciliation short_by = reconcile(layers, 120, 0.15);
  EXPECT_FALSE(short_by.ok);  // 30 ns unexplained: 25%
  const Reconciliation over = reconcile(layers, 70, 0.15);
  EXPECT_LT(over.remainder, 0);  // layers claim more than the whole
  EXPECT_FALSE(over.ok);
  EXPECT_FALSE(reconcile(1, 0, 0.15).ok);
}

}  // namespace
}  // namespace iosbench
