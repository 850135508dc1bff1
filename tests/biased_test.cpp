#include "core/biased.h"

#include <gtest/gtest.h>

#include <vector>

namespace autosens::core {
namespace {

TEST(BiasedTest, GeometryFollowsOptions) {
  AutoSensOptions options;
  options.bin_width_ms = 10.0;
  options.max_latency_ms = 3000.0;
  const auto h = make_latency_histogram(options);
  EXPECT_EQ(h.size(), 300u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 10.0);
  EXPECT_DOUBLE_EQ(h.lo(), 0.0);
}

TEST(BiasedTest, CountsLatencies) {
  AutoSensOptions options;
  const std::vector<double> latencies = {5.0, 15.0, 15.5, 2995.0};
  const auto h = biased_histogram(latencies, options);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.count(299), 1.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 4.0);
}

TEST(BiasedTest, OverflowLatenciesClampIntoLastBin) {
  AutoSensOptions options;
  const std::vector<double> latencies = {50'000.0};
  const auto h = biased_histogram(latencies, options);
  EXPECT_DOUBLE_EQ(h.count(h.size() - 1), 1.0);
}

}  // namespace
}  // namespace autosens::core
