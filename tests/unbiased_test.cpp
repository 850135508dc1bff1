#include "core/unbiased.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/confounder_time.h"
#include "telemetry/clock.h"

namespace autosens::core {
namespace {

/// Same bins, same bytes in every count.
bool bitwise_equal(const stats::Histogram& a, const stats::Histogram& b) {
  return a.size() == b.size() && a.lo() == b.lo() && a.bin_width() == b.bin_width() &&
         std::memcmp(a.counts().data(), b.counts().data(), a.size() * sizeof(double)) == 0;
}

AutoSensOptions small_options() {
  AutoSensOptions options;
  options.bin_width_ms = 10.0;
  options.max_latency_ms = 1000.0;
  options.unbiased_draws = 50'000;
  return options;
}

TEST(UnbiasedTest, VoronoiWeightsByTimeCoverage) {
  // Two samples: one covers 25% of the window, the other 75%.
  const std::vector<std::int64_t> times = {250, 750};  // midpoint 500
  const std::vector<double> latencies = {100.0, 200.0};
  const auto h = unbiased_histogram_voronoi(times, latencies, {.begin_ms = 0, .end_ms = 1000},
                                            small_options());
  EXPECT_NEAR(h.count(h.bin_index(100.0)), 0.5, 1e-12);
  EXPECT_NEAR(h.count(h.bin_index(200.0)), 0.5, 1e-12);
  EXPECT_NEAR(h.total_weight(), 1.0, 1e-12);
}

TEST(UnbiasedTest, VoronoiAsymmetricCells) {
  const std::vector<std::int64_t> times = {100, 900};
  const std::vector<double> latencies = {10.0, 20.0};
  const auto h = unbiased_histogram_voronoi(times, latencies, {.begin_ms = 0, .end_ms = 1000},
                                            small_options());
  EXPECT_NEAR(h.count(h.bin_index(10.0)), 0.5, 1e-12);  // cell [0,500)
  EXPECT_NEAR(h.count(h.bin_index(20.0)), 0.5, 1e-12);  // cell [500,1000)
}

TEST(UnbiasedTest, MonteCarloMatchesVoronoi) {
  stats::Random env_random(3);
  std::vector<std::int64_t> times;
  std::vector<double> latencies;
  std::int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<std::int64_t>(env_random.exponential(0.02)) + 1;
    times.push_back(t);
    latencies.push_back(env_random.lognormal(5.0, 0.4));
  }
  const TimeWindow window{.begin_ms = 0, .end_ms = t + 50};
  const auto options = small_options();
  const auto voronoi = unbiased_histogram_voronoi(times, latencies, window, options);
  stats::Random mc_random(4);
  const auto mc = unbiased_histogram_mc(times, latencies, window, options, mc_random);
  const auto pdf_v = voronoi.pdf();
  const auto pdf_mc = mc.pdf();
  double l1 = 0.0;
  for (std::size_t i = 0; i < pdf_v.size(); ++i) {
    l1 += std::abs(pdf_v[i] - pdf_mc[i]) * options.bin_width_ms;
  }
  EXPECT_LT(l1, 0.05);  // total variation distance small at 50k draws
}

TEST(UnbiasedTest, CellSumsAreExactDoubledCellLengths) {
  // Without equal-time runs every weight is a half-integer cell, so each
  // bin's sum is exact: twice it equals the int64 sum of doubled cell
  // lengths (t[i-1] + t[i] to t[i] + t[i+1], clipped to the doubled window),
  // whatever order the blocks, days and boundary runs were added in.
  constexpr std::int64_t kDay = telemetry::kMillisPerDay;
  std::vector<std::int64_t> times;
  std::vector<double> latencies;
  stats::Random random(11);
  std::int64_t t = 19'000 * kDay + 5 * telemetry::kMillisPerHour;
  while (t < 19'005 * kDay) {
    t += 1 + static_cast<std::int64_t>(random.exponential(1.0 / 60'000.0));
    if ((t / kDay) % 5 == 2) t += kDay;  // An empty day between two others.
    times.push_back(t);
    latencies.push_back(random.uniform() * 1200.0);
  }
  const TimeWindow window{.begin_ms = times.front() - 777, .end_ms = times.back() + 1};
  const auto options = small_options();
  const auto ranges = day_ranges(times);
  std::vector<stats::Histogram> interiors;
  std::vector<VoronoiDay> days;
  interiors.reserve(ranges.size());
  for (const auto& range : ranges) {
    const telemetry::SampleColumns rows{
        std::span<const std::int64_t>(times).subspan(range.first, range.last - range.first),
        std::span<const double>(latencies).subspan(range.first, range.last - range.first)};
    interiors.push_back(unbiased_interior(rows, window, options));
    days.push_back({.rows = rows, .shift = 0, .interior = &interiors.back()});
  }
  ASSERT_GE(days.size(), 3u);
  const auto sums = unbiased_cell_sums(days, window, options);
  std::vector<std::int64_t> doubled(sums.size(), 0);
  const std::size_t n = times.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t left = i == 0 ? 2 * window.begin_ms : times[i - 1] + times[i];
    const std::int64_t right = i + 1 == n ? 2 * window.end_ms : times[i] + times[i + 1];
    doubled[sums.bin_index(latencies[i])] += right - left;
  }
  for (std::size_t b = 0; b < sums.size(); ++b) {
    ASSERT_EQ(2.0 * sums.count(b), static_cast<double>(doubled[b])) << "bin " << b;
  }
  // U is those sums scaled once by 1 / window length.
  auto scaled = sums;
  scaled.scale(1.0 / static_cast<double>(window.length()));
  EXPECT_TRUE(bitwise_equal(scaled, unbiased_histogram_voronoi(times, latencies, window, options)));
}

TEST(UnbiasedTest, SizeMismatchThrows) {
  const std::vector<std::int64_t> times = {1, 2};
  const std::vector<double> latencies = {1.0};
  EXPECT_THROW(unbiased_histogram_voronoi(times, latencies, {.begin_ms = 0, .end_ms = 10},
                                          small_options()),
               std::invalid_argument);
  stats::Random random(1);
  EXPECT_THROW(unbiased_histogram_mc(times, latencies, {.begin_ms = 0, .end_ms = 10},
                                     small_options(), random),
               std::invalid_argument);
}

TEST(UnbiasedTest, OverWindowsWeightsByDuration) {
  // Window A (length 100) has latency 10; window B (length 300) latency 20.
  const std::vector<std::int64_t> times = {50, 450};
  const std::vector<double> latencies = {10.0, 20.0};
  const std::vector<TimeWindow> windows = {{.begin_ms = 0, .end_ms = 100},
                                           {.begin_ms = 300, .end_ms = 600}};
  const auto h = unbiased_histogram_over_windows(times, latencies, windows, 10.0, 1000.0);
  EXPECT_NEAR(h.count(h.bin_index(10.0)), 100.0, 1e-9);
  EXPECT_NEAR(h.count(h.bin_index(20.0)), 300.0, 1e-9);
}

TEST(UnbiasedTest, OverWindowsSkipsEmptyWindows) {
  const std::vector<std::int64_t> times = {50};
  const std::vector<double> latencies = {10.0};
  const std::vector<TimeWindow> windows = {{.begin_ms = 0, .end_ms = 100},
                                           {.begin_ms = 200, .end_ms = 300}};
  const auto h = unbiased_histogram_over_windows(times, latencies, windows, 10.0, 1000.0);
  EXPECT_NEAR(h.total_weight(), 100.0, 1e-9);  // only the populated window
}

TEST(UnbiasedTest, OverWindowsValidatesWindows) {
  const std::vector<std::int64_t> times = {50};
  const std::vector<double> latencies = {10.0};
  const std::vector<TimeWindow> bad = {{.begin_ms = 100, .end_ms = 100}};
  EXPECT_THROW(unbiased_histogram_over_windows(times, latencies, bad, 10.0, 1000.0),
               std::invalid_argument);
}

TEST(UnbiasedTest, OverWindowsRejectsUnsortedTimes) {
  // The duration weights come from lower_bound scans over `times`; unsorted
  // input would silently misattribute mass, so the public entry point
  // validates sortedness up front.
  const std::vector<std::int64_t> times = {500, 100};
  const std::vector<double> latencies = {100.0, 200.0};
  const std::vector<TimeWindow> windows = {{0, 1000}};
  EXPECT_THROW(unbiased_histogram_over_windows(times, latencies, windows, 10.0, 1000.0),
               std::invalid_argument);
  // Sorted input with identical content is accepted.
  const std::vector<std::int64_t> ok = {100, 500};
  EXPECT_NO_THROW(unbiased_histogram_over_windows(ok, latencies, windows, 10.0, 1000.0));
}

TEST(UnbiasedTest, SampleOnlyAffectsItsOwnWindow) {
  // A sample in window A must not soak up time from window B.
  const std::vector<std::int64_t> times = {50, 260};
  const std::vector<double> latencies = {10.0, 20.0};
  const std::vector<TimeWindow> windows = {{.begin_ms = 0, .end_ms = 100},
                                           {.begin_ms = 250, .end_ms = 350}};
  const auto h = unbiased_histogram_over_windows(times, latencies, windows, 10.0, 1000.0);
  EXPECT_NEAR(h.count(h.bin_index(10.0)), 100.0, 1e-9);
  EXPECT_NEAR(h.count(h.bin_index(20.0)), 100.0, 1e-9);
}

TEST(UnbiasedTest, DatasetConvenienceHonorsMethod) {
  telemetry::Dataset dataset;
  stats::Random random(5);
  std::int64_t t = 0;
  for (int i = 0; i < 300; ++i) {
    t += 100 + static_cast<std::int64_t>(random.exponential(0.05));
    dataset.add({.time_ms = t, .user_id = 1, .latency_ms = random.lognormal(5.0, 0.3)});
  }
  auto options = small_options();
  options.unbiased_method = UnbiasedMethod::kVoronoi;
  const auto voronoi = unbiased_histogram(dataset, options);
  options.unbiased_method = UnbiasedMethod::kMonteCarlo;
  const auto mc = unbiased_histogram(dataset, options);
  // Voronoi mass is 1 (probability); MC mass equals the draw count.
  EXPECT_NEAR(voronoi.total_weight(), 1.0, 1e-9);
  EXPECT_NEAR(mc.total_weight(), static_cast<double>(options.unbiased_draws), 0.5);
}

TEST(UnbiasedTest, DatasetEstimateIsRecomputedFromItsColumns) {
  // A dataset keeps no estimator state: each call equals the columns
  // overload and the windowed kernel bit for bit, and after add() +
  // sort_by_time() the estimate is that of a fresh copy of the new rows.
  telemetry::Dataset dataset;
  stats::Random random(6);
  std::int64_t t = 0;
  for (int i = 0; i < 300; ++i) {
    t += 100 + static_cast<std::int64_t>(random.exponential(0.05));
    dataset.add({.time_ms = t, .user_id = 1, .latency_ms = random.lognormal(5.0, 0.3)});
  }
  const auto options = small_options();
  const auto first = unbiased_histogram(dataset, options);
  EXPECT_TRUE(bitwise_equal(first, unbiased_histogram(dataset, options)));
  EXPECT_TRUE(bitwise_equal(first, unbiased_histogram(dataset.columns(), options)));
  EXPECT_TRUE(bitwise_equal(
      first, unbiased_histogram_voronoi(
                 dataset.times(), dataset.latencies(),
                 {.begin_ms = dataset.begin_time(), .end_ms = dataset.end_time()}, options)));

  // An earlier, slow record widens the window and takes its leading cell.
  dataset.add({.time_ms = -50'000, .user_id = 2, .latency_ms = 900.0});
  dataset.sort_by_time();
  const auto after = unbiased_histogram(dataset, options);
  EXPECT_TRUE(bitwise_equal(after, unbiased_histogram(telemetry::Dataset(dataset.records()),
                                                      options)));
  EXPECT_GT(after.count(after.bin_index(900.0)), first.count(first.bin_index(900.0)));
}

TEST(UnbiasedTest, EmptyDatasetThrows) {
  EXPECT_THROW(unbiased_histogram(telemetry::Dataset{}, small_options()),
               std::invalid_argument);
}

TEST(UnbiasedTest, BiasedSamplingIsCorrected) {
  // Construct a series where low-latency periods have 10x the sampling rate.
  // The biased histogram then over-represents low latency, but the unbiased
  // estimate must recover the 50/50 time split. This is the core mechanism
  // of the whole method (§2.2).
  std::vector<std::int64_t> times;
  std::vector<double> latencies;
  std::int64_t t = 0;
  bool low_phase = true;
  while (t < 1'000'000) {
    const std::int64_t phase_end = t + 50'000;  // 50 s phases
    const std::int64_t gap = low_phase ? 100 : 1000;
    const double latency = low_phase ? 100.0 : 500.0;
    for (; t < phase_end; t += gap) {
      times.push_back(t);
      latencies.push_back(latency);
    }
    low_phase = !low_phase;
  }
  const auto options = small_options();
  const auto u =
      unbiased_histogram_voronoi(times, latencies, {.begin_ms = 0, .end_ms = 1'000'000},
                                 options);
  const double low_mass = u.count(u.bin_index(100.0)) / u.total_weight();
  const double high_mass = u.count(u.bin_index(500.0)) / u.total_weight();
  EXPECT_NEAR(low_mass, 0.5, 0.02);
  EXPECT_NEAR(high_mass, 0.5, 0.02);
}

}  // namespace
}  // namespace autosens::core
