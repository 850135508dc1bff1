#include "stats/distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "stats/rng.h"

namespace autosens::stats {
namespace {

Histogram filled(std::initializer_list<double> counts) {
  Histogram h(0.0, 1.0, counts.size());
  std::size_t i = 0;
  for (const double c : counts) h.set_count(i++, c);
  return h;
}

Histogram random_histogram(std::size_t bins, std::uint64_t seed) {
  Random random(seed);
  Histogram h(0.0, 1.0, bins);
  for (std::size_t i = 0; i < bins; ++i) h.set_count(i, random.uniform(0.0, 1000.0));
  return h;
}

/// sum term(i) accumulated in the library's fixed order, written out here:
/// lane k sums terms k, k+4, ...; lanes fold ((l0+l1)+l2)+l3; the n % 4
/// tail adds serially.
template <typename Term>
double four_lane_sum(std::size_t n, Term term) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t m = n - n % 4;
  for (std::size_t i = 0; i < m; ++i) lane[i % 4] += term(i);
  double sum = ((lane[0] + lane[1]) + lane[2]) + lane[3];
  for (std::size_t i = m; i < n; ++i) sum += term(i);
  return sum;
}

template <typename Term>
double left_fold_sum(std::size_t n, Term term) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += term(i);
  return sum;
}

TEST(DistanceTest, SumsUseTheFourLaneOrderBitForBit) {
  for (const std::size_t bins : {1u, 3u, 4u, 5u, 7u, 8u, 31u, 300u, 301u}) {
    SCOPED_TRACE(testing::Message() << "bins=" << bins);
    const auto p = random_histogram(bins, 11 + bins);
    const auto q = random_histogram(bins, 12 + bins);
    const auto l1 = [&](std::size_t i) {
      return std::fabs(p.count(i) / p.total_weight() - q.count(i) / q.total_weight());
    };
    const auto bc = [&](std::size_t i) {
      return std::sqrt((p.count(i) / p.total_weight()) * (q.count(i) / q.total_weight()));
    };
    EXPECT_EQ(std::bit_cast<std::uint64_t>(total_variation_distance(p, q)),
              std::bit_cast<std::uint64_t>(0.5 * four_lane_sum(bins, l1)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(hellinger_distance(p, q)),
              std::bit_cast<std::uint64_t>(
                  std::sqrt(std::max(0.0, 1.0 - four_lane_sum(bins, bc)))));
    if (bins == 301) {
      // The order is observable here, so a left-fold rewrite fails above.
      EXPECT_NE(four_lane_sum(bins, l1), left_fold_sum(bins, l1));
      EXPECT_NE(std::sqrt(1.0 - four_lane_sum(bins, bc)),
                std::sqrt(1.0 - left_fold_sum(bins, bc)));
    }
  }
}

TEST(DistanceTest, GeometryMismatchThrows) {
  const auto a = filled({1.0, 2.0});
  Histogram b(0.0, 2.0, 2);
  b.add(0.5);
  EXPECT_THROW(total_variation_distance(a, b), std::invalid_argument);
  EXPECT_THROW(hellinger_distance(a, b), std::invalid_argument);
  EXPECT_THROW(ks_statistic(a, b), std::invalid_argument);
  EXPECT_THROW(mean_shift(a, b), std::invalid_argument);
}

TEST(DistanceTest, EmptyHistogramThrows) {
  const auto a = filled({1.0});
  const Histogram empty(0.0, 1.0, 1);
  EXPECT_THROW(total_variation_distance(a, empty), std::invalid_argument);
}

TEST(DistanceTest, IdenticalDistributionsHaveZeroDistance) {
  const auto a = filled({1.0, 2.0, 3.0});
  const auto b = filled({2.0, 4.0, 6.0});  // same shape, different scale
  EXPECT_NEAR(total_variation_distance(a, b), 0.0, 1e-12);
  EXPECT_NEAR(hellinger_distance(a, b), 0.0, 1e-6);
  EXPECT_NEAR(ks_statistic(a, b), 0.0, 1e-12);
  EXPECT_NEAR(mean_shift(a, b), 0.0, 1e-12);
}

TEST(DistanceTest, DisjointDistributionsHaveMaximalDistance) {
  const auto a = filled({1.0, 0.0});
  const auto b = filled({0.0, 1.0});
  EXPECT_NEAR(total_variation_distance(a, b), 1.0, 1e-12);
  EXPECT_NEAR(hellinger_distance(a, b), 1.0, 1e-12);
  EXPECT_NEAR(ks_statistic(a, b), 1.0, 1e-12);
}

TEST(DistanceTest, TotalVariationKnownValue) {
  const auto a = filled({3.0, 1.0});  // p = (.75, .25)
  const auto b = filled({1.0, 3.0});  // q = (.25, .75)
  EXPECT_NEAR(total_variation_distance(a, b), 0.5, 1e-12);
}

TEST(DistanceTest, KsIsMaxCdfGap) {
  const auto a = filled({1.0, 0.0, 1.0});  // cdf .5, .5, 1
  const auto b = filled({0.0, 2.0, 0.0});  // cdf 0, 1, 1
  EXPECT_NEAR(ks_statistic(a, b), 0.5, 1e-12);
}

TEST(DistanceTest, MeanShiftIsSigned) {
  const auto low = filled({1.0, 0.0});   // mass at bin center 0.5
  const auto high = filled({0.0, 1.0});  // mass at bin center 1.5
  EXPECT_NEAR(mean_shift(low, high), -1.0, 1e-12);
  EXPECT_NEAR(mean_shift(high, low), 1.0, 1e-12);
}

TEST(DistanceTest, MetricsOrderedOnNoisyShift) {
  // Hellinger <= sqrt(TV) relationships aside, all three must detect a
  // shifted distribution and grow with the shift.
  Random random(5);
  Histogram base(0.0, 1.0, 100);
  Histogram small_shift(0.0, 1.0, 100);
  Histogram big_shift(0.0, 1.0, 100);
  for (int i = 0; i < 200'000; ++i) {
    const double v = random.normal(50.0, 10.0);
    base.add(v);
    small_shift.add(v + 2.0);
    big_shift.add(v + 10.0);
  }
  EXPECT_LT(total_variation_distance(base, small_shift),
            total_variation_distance(base, big_shift));
  EXPECT_LT(ks_statistic(base, small_shift), ks_statistic(base, big_shift));
  EXPECT_LT(hellinger_distance(base, small_shift), hellinger_distance(base, big_shift));
}

}  // namespace
}  // namespace autosens::stats
