#include "core/preference.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/biased.h"
#include "stats/rng.h"

namespace autosens::core {
namespace {

AutoSensOptions test_options() {
  AutoSensOptions options;
  options.bin_width_ms = 10.0;
  options.max_latency_ms = 1000.0;
  options.reference_latency_ms = 300.0;
  options.smoothing = {.window = 21, .degree = 3};
  options.min_biased_count = 1.0;
  options.min_unbiased_mass = 1e-9;
  return options;
}

/// Fill histograms so that B/U equals `ratio(latency)` exactly over
/// [100, 900), with plenty of mass per bin.
std::pair<stats::Histogram, stats::Histogram> make_pair(
    const AutoSensOptions& options, const std::function<double(double)>& ratio) {
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 10; i < 90; ++i) {
    const double center = biased.bin_center(i);
    unbiased.set_count(i, 100.0);
    biased.set_count(i, 100.0 * ratio(center));
  }
  return {std::move(biased), std::move(unbiased)};
}

TEST(ComputePreferenceTest, OvershootClampLeavesNaNUnchanged) {
  // With no unbiased-mass guard, bins holding biased but no unbiased mass
  // have an infinite ratio; smoothing across two of them yields NaN (inf
  // minus inf). The clamp raises negatives to 0 but must leave NaN as it
  // is, so a NaN is never reported as "no activity".
  auto options = test_options();
  options.min_unbiased_mass = 0.0;
  auto [biased, unbiased] = make_pair(options, [](double) { return 1.0; });
  for (const std::size_t i : {80u, 84u}) unbiased.set_count(i, 0.0);
  const auto result = compute_preference(biased, unbiased, options);
  std::size_t nans = 0;
  for (std::size_t i = result.support_begin; i < result.support_end; ++i) {
    if (std::isnan(result.smoothed[i])) {
      ++nans;
      EXPECT_TRUE(std::isnan(result.normalized[i])) << "bin " << i;
    } else {
      EXPECT_GE(result.smoothed[i], 0.0) << "bin " << i;
    }
  }
  EXPECT_GT(nans, 0u);
  EXPECT_NEAR(result.at(300.0), 1.0, 1e-12);
}

TEST(ComputePreferenceTest, GeometryMismatchThrows) {
  const auto options = test_options();
  auto a = make_latency_histogram(options);
  auto b = stats::Histogram(0.0, 20.0, 50);
  a.add(100.0);
  b.add(100.0);
  EXPECT_THROW(compute_preference(a, b, options), std::invalid_argument);
}

TEST(ComputePreferenceTest, EmptyHistogramsThrow) {
  const auto options = test_options();
  const auto empty = make_latency_histogram(options);
  EXPECT_THROW(compute_preference(empty, empty, options), std::invalid_argument);
}

TEST(ComputePreferenceTest, FlatRatioGivesFlatNormalizedCurve) {
  const auto options = test_options();
  auto [biased, unbiased] = make_pair(options, [](double) { return 3.0; });
  const auto result = compute_preference(biased, unbiased, options);
  for (std::size_t i = result.support_begin; i < result.support_end; ++i) {
    EXPECT_NEAR(result.normalized[i], 1.0, 1e-9);
  }
}

TEST(ComputePreferenceTest, NormalizedIsOneAtReference) {
  const auto options = test_options();
  auto [biased, unbiased] =
      make_pair(options, [](double latency) { return 2.0 - latency / 1000.0; });
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_NEAR(result.at(options.reference_latency_ms), 1.0, 1e-6);
}

TEST(ComputePreferenceTest, RecoversLinearPreference) {
  const auto options = test_options();
  const auto planted = [](double latency) { return 1.5 - latency / 1000.0; };
  auto [biased, unbiased] = make_pair(options, planted);
  const auto result = compute_preference(biased, unbiased, options);
  const double ref = planted(options.reference_latency_ms);
  for (const double latency : {200.0, 400.0, 600.0, 800.0}) {
    EXPECT_NEAR(result.at(latency), planted(latency) / ref, 1e-6) << latency;
  }
}

TEST(ComputePreferenceTest, SupportExcludesEdgeBins) {
  const auto options = test_options();
  auto [biased, unbiased] = make_pair(options, [](double) { return 1.0; });
  // Even with mass in the clamp bins, they must stay unsupported.
  biased.set_count(0, 1000.0);
  unbiased.set_count(0, 1000.0);
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_GE(result.support_begin, 1u);
  EXPECT_LE(result.support_end, biased.size() - 1);
}

TEST(ComputePreferenceTest, GuardsMaskThinBins) {
  auto options = test_options();
  options.min_biased_count = 50.0;
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 10; i < 90; ++i) {
    unbiased.set_count(i, 100.0);
    biased.set_count(i, i == 50 ? 10.0 : 100.0);  // bin 50 under the guard
  }
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_EQ(result.valid[50], 0);
  // Interpolated through the gap: smoothed value exists and is close to the
  // neighbors' level.
  EXPECT_NEAR(result.normalized[50], 1.0, 0.05);
}

TEST(ComputePreferenceTest, ReferenceOutsideSupportThrows) {
  auto options = test_options();
  options.reference_latency_ms = 950.0;  // support ends at 900
  auto [biased, unbiased] = make_pair(options, [](double) { return 1.0; });
  EXPECT_THROW(compute_preference(biased, unbiased, options), std::invalid_argument);
}

TEST(ComputePreferenceTest, AtThrowsOutsideSupport) {
  const auto options = test_options();
  auto [biased, unbiased] = make_pair(options, [](double) { return 1.0; });
  const auto result = compute_preference(biased, unbiased, options);
  EXPECT_THROW(result.at(50.0), std::out_of_range);
  EXPECT_THROW(result.at(950.0), std::out_of_range);
  EXPECT_FALSE(result.covers(50.0));
  EXPECT_TRUE(result.covers(500.0));
}

TEST(ComputePreferenceTest, SmoothingSuppressesBinNoise) {
  auto options = test_options();
  options.smoothing = {.window = 21, .degree = 3};
  stats::Random random(3);
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 10; i < 90; ++i) {
    unbiased.set_count(i, 1000.0);
    // True ratio 1.0 with ±20% multiplicative noise per bin.
    biased.set_count(i, 1000.0 * (1.0 + 0.2 * (random.uniform() - 0.5)));
  }
  const auto result = compute_preference(biased, unbiased, options);
  double max_deviation = 0.0;
  for (std::size_t i = result.support_begin + 10; i + 10 < result.support_end; ++i) {
    max_deviation = std::max(max_deviation, std::abs(result.normalized[i] - 1.0));
  }
  EXPECT_LT(max_deviation, 0.07);  // raw noise was up to 0.10+
}

TEST(ComputePreferenceTest, RawRatioNormalizesOverallScale) {
  // B and U are compared as probability densities (§2.3), so a uniform
  // B = k × U gives a raw ratio of exactly 1 regardless of k: only the
  // *shape* difference between the distributions carries signal.
  const auto options = test_options();
  auto [biased, unbiased] = make_pair(options, [](double) { return 2.0; });
  const auto result = compute_preference(biased, unbiased, options);
  for (std::size_t i = result.support_begin; i < result.support_end; ++i) {
    EXPECT_NEAR(result.raw_ratio[i], 1.0, 1e-9);
  }
}

TEST(ComputePreferenceTest, RawRatioReflectsShapeDifference) {
  const auto options = test_options();
  // B puts twice the relative mass on the lower half of the support.
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 10; i < 90; ++i) {
    unbiased.set_count(i, 100.0);
    biased.set_count(i, i < 50 ? 200.0 : 100.0);
  }
  const auto result = compute_preference(biased, unbiased, options);
  // Total B mass = 40*200 + 40*100 = 12000 → pdf ratio: 200/150 vs 100/150.
  EXPECT_NEAR(result.raw_ratio[20], (200.0 / 12000.0) / (100.0 / 8000.0), 1e-9);
  EXPECT_NEAR(result.raw_ratio[70], (100.0 / 12000.0) / (100.0 / 8000.0), 1e-9);
}

}  // namespace
}  // namespace autosens::core
