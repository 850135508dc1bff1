#include "core/confounder_time.h"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.h"
#include "stats/rng.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

constexpr std::int64_t kHour = telemetry::kMillisPerHour;
constexpr std::int64_t kDay = telemetry::kMillisPerDay;

TEST(TwoSlotExampleTest, ReproducesPaperTable1) {
  // The exact numbers of Table 1: day 90/140 actions at 30%/70% time,
  // night 26/4 actions at 80%/20% time (fractions in percent units, as the
  // paper's own arithmetic uses them).
  const auto r = normalize_two_slot_example(90, 140, 30, 70, 26, 4, 80, 20);
  EXPECT_NEAR(r.alpha_low, 0.108, 0.001);
  EXPECT_NEAR(r.alpha_high, 0.100, 0.001);
  EXPECT_NEAR(r.alpha, 0.104, 0.001);
  EXPECT_NEAR(r.normalized_low, 250.0, 1.0);
  EXPECT_NEAR(r.normalized_high, 38.0, 1.0);
  EXPECT_NEAR(r.activity_low, 3.09, 0.01);
  // The paper reports 1.97, having rounded the normalized count to 38
  // before dividing; unrounded the value is (140 + 38.47) / 90 = 1.983.
  EXPECT_NEAR(r.activity_high, 1.97, 0.02);
  // The naive estimate inverts the conclusion (more actions at high
  // latency). The paper's text computes (90+24)/(30+80) = 1.04 — the "24"
  // is a typo for the table's 26, giving 1.05 with the table's numbers.
  EXPECT_NEAR(r.naive_low, 1.05, 0.01);
  EXPECT_NEAR(r.naive_high, 1.6, 0.01);
  EXPECT_GT(r.naive_high, r.naive_low);
  // The normalized estimate restores the intuitive ordering.
  EXPECT_GT(r.activity_low, r.activity_high);
}

telemetry::Dataset synthetic_confounded_dataset() {
  // Two time-of-day regimes over several days: "day" hours (8-20) have
  // 5x the activity; latency is identical across hours, so every slot's
  // alpha should reflect activity alone.
  telemetry::Dataset d;
  stats::Random random(1);
  for (int day = 0; day < 10; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const bool busy = hour >= 8 && hour < 20;
      const std::int64_t slot_begin = day * kDay + hour * kHour;
      const int count = busy ? 200 : 40;
      for (int i = 0; i < count; ++i) {
        d.add({.time_ms = slot_begin + static_cast<std::int64_t>(random.uniform() *
                                                                 static_cast<double>(kHour)),
               .user_id = 1,
               .latency_ms = 100.0 + random.uniform() * 200.0});
      }
    }
  }
  d.sort_by_time();
  return d;
}

TEST(TimeNormalizerTest, Validation) {
  AutoSensOptions options;
  EXPECT_THROW(TimeNormalizer(telemetry::Dataset{}, options), std::invalid_argument);
  options.alpha_slot_ms = 7 * kHour;  // does not divide a day
  EXPECT_THROW(TimeNormalizer(synthetic_confounded_dataset(), options),
               std::invalid_argument);
}

TEST(TimeNormalizerTest, OneSlotPerTimeOfDayClass) {
  AutoSensOptions options;
  const TimeNormalizer normalizer(synthetic_confounded_dataset(), options);
  EXPECT_EQ(normalizer.slots().size(), 24u);
}

TEST(TimeNormalizerTest, AlphaTracksPlantedActivityRatio) {
  AutoSensOptions options;
  const TimeNormalizer normalizer(synthetic_confounded_dataset(), options);
  // Busy hours have alpha ≈ 1 (references are busy), night ≈ 40/200 = 0.2.
  const double busy_alpha = normalizer.alpha_at(10 * kHour);
  const double night_alpha = normalizer.alpha_at(3 * kHour);
  EXPECT_NEAR(night_alpha / busy_alpha, 0.2, 0.05);
}

TEST(TimeNormalizerTest, AlphaIsSameForAllDaysAtSameHour) {
  AutoSensOptions options;
  const TimeNormalizer normalizer(synthetic_confounded_dataset(), options);
  EXPECT_DOUBLE_EQ(normalizer.alpha_at(10 * kHour),
                   normalizer.alpha_at(5 * kDay + 10 * kHour));
}

TEST(TimeNormalizerTest, NormalizedBiasedEqualizesSlotRates) {
  // After 1/alpha weighting, the histogram total should be roughly
  // 24 * (weight of a busy hour's records), i.e. night hours upweighted.
  AutoSensOptions options;
  const auto dataset = synthetic_confounded_dataset();
  const TimeNormalizer normalizer(dataset, options);
  const auto normalized = normalizer.normalized_biased(dataset.columns());
  // Every hour contributes ~200 * 10 days of effective weight.
  EXPECT_NEAR(normalized.total_weight(), 24.0 * 200.0 * 10.0, 0.15 * 24.0 * 200.0 * 10.0);
}

TEST(TimeNormalizerTest, UniformActivityGivesUniformAlpha) {
  telemetry::Dataset d;
  stats::Random random(2);
  for (int day = 0; day < 6; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      for (int i = 0; i < 100; ++i) {
        d.add({.time_ms = day * kDay + hour * kHour +
                          static_cast<std::int64_t>(random.uniform() * kHour),
               .user_id = 1,
               .latency_ms = 200.0 + random.uniform() * 100.0});
      }
    }
  }
  d.sort_by_time();
  const TimeNormalizer normalizer(d, AutoSensOptions{});
  for (const auto& slot : normalizer.slots()) {
    EXPECT_NEAR(slot.alpha, 1.0, 0.15) << "slot " << slot.slot;
  }
}

TEST(TimeNormalizerTest, SlotStatsAccounting) {
  const auto dataset = synthetic_confounded_dataset();
  const TimeNormalizer normalizer(dataset, AutoSensOptions{});
  std::size_t total = 0;
  for (const auto& slot : normalizer.slots()) {
    total += slot.records;
    EXPECT_GT(slot.total_time_ms, 0.0);
  }
  EXPECT_EQ(total, dataset.size());
}

TEST(PeriodWindowsTest, CoverPeriodHours) {
  telemetry::Dataset d;
  d.add({.time_ms = 0, .user_id = 1, .latency_ms = 1.0});
  d.add({.time_ms = 3 * kDay - 1, .user_id = 1, .latency_ms = 1.0});
  const auto windows = period_windows(d, telemetry::DayPeriod::kMorning);
  // 3 full days → 3 morning windows of 6 h each.
  ASSERT_EQ(windows.size(), 3u);
  for (const auto& w : windows) {
    EXPECT_EQ(w.length(), 6 * kHour);
    EXPECT_EQ(telemetry::hour_of_day(w.begin_ms), 8);
  }
}

TEST(PeriodWindowsTest, EveningWrapsMidnight) {
  telemetry::Dataset d;
  d.add({.time_ms = 0, .user_id = 1, .latency_ms = 1.0});
  d.add({.time_ms = 2 * kDay - 1, .user_id = 1, .latency_ms = 1.0});
  const auto windows = period_windows(d, telemetry::DayPeriod::kEvening);
  // Day -1's evening [t=-4h, 2h) is clipped to [0, 2h); day 0 and day 1
  // contribute [20h, 26h) and [44h, 48h) (clipped).
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].begin_ms, 0);
  EXPECT_EQ(windows[0].end_ms, 2 * kHour);
  EXPECT_EQ(windows[1].begin_ms, 20 * kHour);
  EXPECT_EQ(windows[1].end_ms, 26 * kHour);
}

TEST(PeriodWindowsTest, TotalCoverageIsFullDataRange) {
  telemetry::Dataset d;
  d.add({.time_ms = 0, .user_id = 1, .latency_ms = 1.0});
  d.add({.time_ms = 5 * kDay - 1, .user_id = 1, .latency_ms = 1.0});
  std::int64_t covered = 0;
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    for (const auto& w : period_windows(d, static_cast<telemetry::DayPeriod>(p))) {
      covered += w.length();
    }
  }
  // The four periods tile the half-open data range [0, 5*kDay) exactly
  // (end_time is one past the last record).
  EXPECT_EQ(covered, 5 * kDay);
}

TEST(AlphaByPeriodTest, RecoversPlantedDiurnalFactors) {
  // Full simulator: measured per-period alpha must match the planted
  // activity ratios (Fig 8 ground truth) and be flat across latency.
  const auto config = simulate::paper_config(simulate::Scale::kSmall, 11);
  auto generated = simulate::WorkloadGenerator(config).generate();
  const auto validated = telemetry::validate(generated.dataset);
  const auto expected = simulate::expected_alpha_by_period(config);
  const auto measured = alpha_by_period(validated.dataset, AutoSensOptions{});
  EXPECT_NEAR(measured[0].mean_alpha, 1.0, 0.05);  // reference period
  for (int p = 1; p < telemetry::kDayPeriodCount; ++p) {
    EXPECT_NEAR(measured[p].mean_alpha, expected[p], 0.12)
        << to_string(static_cast<telemetry::DayPeriod>(p));
  }
  // Ordering: morning > afternoon > evening > night.
  EXPECT_GT(measured[1].mean_alpha, measured[2].mean_alpha);
  EXPECT_GT(measured[2].mean_alpha, measured[3].mean_alpha);
}

TEST(AlphaByPeriodTest, AlphaIsFlatAcrossLatencyBins) {
  const auto config = simulate::paper_config(simulate::Scale::kSmall, 12);
  auto generated = simulate::WorkloadGenerator(config).generate();
  const auto validated = telemetry::validate(generated.dataset);
  const auto measured = alpha_by_period(validated.dataset, AutoSensOptions{});
  // Coefficient of variation of alpha across latency bins stays small
  // (paper: "α remains flat across the latency range").
  for (const auto& pa : measured) {
    stats::RunningStats s;
    for (std::size_t i = 0; i < pa.alpha.size(); ++i) {
      if (pa.valid[i]) s.add(pa.alpha[i]);
    }
    ASSERT_GT(s.count(), 3u);
    EXPECT_LT(s.stddev() / s.mean(), 0.30) << to_string(pa.period);
  }
}

TEST(AlphaByPeriodTest, EmptyDatasetThrows) {
  EXPECT_THROW(alpha_by_period(telemetry::Dataset{}, AutoSensOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace autosens::core
