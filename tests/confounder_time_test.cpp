#include "core/confounder_time.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/confidence.h"
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

TEST(TimeOfDayCursorTest, MatchesDivisionForm) {
  // The cursor's classes against the per-row division it replaces, for
  // sorted runs through slot and day edges (and one past them), negative
  // times, gaps of several slots or days, and an unsorted order.
  const auto by_division = [](std::int64_t t, std::int64_t slot_ms) {
    return static_cast<std::size_t>((t % kDay + kDay) % kDay / slot_ms);
  };
  for (const std::int64_t slot_ms : {kHour / 4, kHour, 2 * kHour, kDay}) {
    std::vector<std::int64_t> times;
    for (std::int64_t edge = -3 * kDay; edge <= 3 * kDay; edge += slot_ms) {
      for (const std::int64_t offset : {std::int64_t{-1}, std::int64_t{0}, std::int64_t{1}, slot_ms / 2}) {
        times.push_back(edge + offset);
      }
    }
    stats::Random random(static_cast<std::uint64_t>(slot_ms));
    for (int i = 0; i < 2000; ++i) {
      times.push_back(static_cast<std::int64_t>((random.uniform() - 0.5) * 40.0 * kDay));
    }
    times.push_back(std::int64_t{1'700'000'000'000});  // An epoch-scale time after a long gap.
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    TimeOfDayCursor sorted(slot_ms);
    for (const std::int64_t t : times) {
      ASSERT_EQ(sorted(t), by_division(t, slot_ms)) << "slot " << slot_ms << " t " << t;
    }
    std::shuffle(times.begin(), times.end(), random.engine());
    TimeOfDayCursor shuffled(slot_ms);
    for (const std::int64_t t : times) {
      ASSERT_EQ(shuffled(t), by_division(t, slot_ms)) << "slot " << slot_ms << " t " << t;
    }
  }
}

/// Every SlotStat field, bit for bit.
void expect_same_slots(const std::vector<SlotStat>& got, const std::vector<SlotStat>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    const auto& a = got[k];
    const auto& b = want[k];
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.records, b.records) << "class " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.total_time_ms),
              std::bit_cast<std::uint64_t>(b.total_time_ms))
        << "class " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.alpha), std::bit_cast<std::uint64_t>(b.alpha))
        << "class " << k;
    EXPECT_EQ(a.alpha_from_fallback, b.alpha_from_fallback) << "class " << k;
  }
}

/// For `dataset` itself and over `draws` seeded day-block resamples of it,
/// the α folded from the parent's day table equals the α re-estimated from
/// the rows.
void expect_table_matches_rows(const telemetry::Dataset& dataset,
                               const AutoSensOptions& options, int draws) {
  const auto columns = dataset.columns();
  const DayTable table(columns, options);
  const auto days = day_ranges(columns.times);
  ASSERT_EQ(table.size(), days.size());
  // The parent itself, every day keeping its own date (the point estimate).
  std::vector<std::size_t> every_day(days.size());
  for (std::size_t i = 0; i < every_day.size(); ++i) every_day[i] = i;
  expect_same_slots(
      TimeNormalizer(DrawnDays{.table = table, .drawn = every_day, .own_dates = true}, options)
          .slots(),
      TimeNormalizer(columns, options).slots());
  stats::Random random(31);
  for (int r = 0; r < draws; ++r) {
    const auto drawn = draw_days(days.size(), random);
    const auto resample = day_block_resample(columns, days, drawn);
    const TimeNormalizer folded(DrawnDays{table, drawn}, options);
    const TimeNormalizer rows(resample.columns(), options);
    expect_same_slots(folded.slots(), rows.slots());
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "draw " << r;
      return;
    }
  }
}

/// Days starting at an epoch-scale day: the first and last days cut
/// mid-day, days 2 and 3 empty (squeezed out by a resample), night classes
/// empty on alternate days, duplicate times, and rows exactly on slot edges.
telemetry::Dataset ragged_days_dataset(int day_count) {
  constexpr std::int64_t kBase = 19'000 * kDay;
  telemetry::Dataset d;
  stats::Random random(5);
  for (int day = 0; day < day_count; ++day) {
    if (day == 2 || day == 3) continue;
    for (int hour = 0; hour < 24; ++hour) {
      if (hour < 6 && day % 2 == 1) continue;
      const std::int64_t hour_begin = kBase + day * kDay + hour * kHour;
      const int count = hour >= 8 && hour < 20 ? 60 : 12;
      for (int i = 0; i < count; ++i) {
        std::int64_t t = hour_begin + static_cast<std::int64_t>(random.uniform() * kHour);
        if (i == 0) t = hour_begin;                // exactly on a slot edge
        if (i == 1) t = hour_begin + kHour / 2;    // a 30-minute edge
        if (i == 2) t = hour_begin + kHour / 2;    // duplicate time
        if (day == 0 && t < kBase + 10 * kHour + 17 * 60'000) continue;
        if (day == day_count - 1 && t > kBase + day * kDay + 15 * kHour + 43 * 60'000) {
          continue;
        }
        d.add({.time_ms = t, .user_id = 1, .latency_ms = 50.0 + random.uniform() * 900.0});
      }
    }
  }
  d.sort_by_time();
  return d;
}

/// The class-window α estimate that per-day folding replaced, written out
/// over public kernels: per time-of-day class, the U fractions of its daily
/// windows clipped to the data range (unbiased_histogram_over_windows: one
/// partial per window, merged in window order, while a class has at most
/// 256 windows), counts by one division per row, then the same reference
/// pick and α formula. TimeNormalizer must match it bit for bit up to 256
/// days.
std::vector<SlotStat> class_window_alpha(const telemetry::Dataset& dataset,
                                         const AutoSensOptions& options) {
  constexpr double kMinTimeFraction = 1e-3;
  constexpr double kMinReferenceCount = 10.0;
  constexpr double kAlphaFloor = 0.02;
  struct Class {
    stats::Histogram counts;
    stats::Histogram fractions;
    std::size_t records = 0;
    double time = 0.0;
  };
  const std::int64_t slot = options.alpha_slot_ms;
  const std::size_t classes = static_cast<std::size_t>(kDay / slot);
  const std::int64_t begin = dataset.begin_time();
  const std::int64_t end = dataset.end_time();
  std::vector<Class> data;
  for (std::size_t k = 0; k < classes; ++k) {
    std::vector<TimeWindow> windows;
    for (std::int64_t day = telemetry::day_index(begin); day * kDay < end; ++day) {
      const std::int64_t from = std::max(day * kDay + static_cast<std::int64_t>(k) * slot, begin);
      const std::int64_t to =
          std::min(day * kDay + static_cast<std::int64_t>(k + 1) * slot, end);
      if (to > from) windows.push_back({.begin_ms = from, .end_ms = to});
    }
    Class c{.counts = stats::Histogram::covering(0.0, options.max_latency_ms,
                                                 options.alpha_bin_width_ms),
            .fractions = unbiased_histogram_over_windows(
                dataset.times(), dataset.latencies(), windows, options.alpha_bin_width_ms,
                options.max_latency_ms)};
    for (const auto& w : windows) c.time += static_cast<double>(w.length());
    data.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::int64_t t = dataset[i].time_ms;
    auto& c = data[static_cast<std::size_t>((t % kDay + kDay) % kDay / slot)];
    c.counts.add(dataset[i].latency_ms);
    ++c.records;
  }
  std::vector<std::size_t> order(classes);
  for (std::size_t k = 0; k < classes; ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return data[a].records > data[b].records; });
  std::vector<std::size_t> references;
  for (const std::size_t k : order) {
    if (references.size() >= options.alpha_reference_slots) break;
    if (data[k].records >= options.alpha_min_slot_records) references.push_back(k);
  }
  if (references.empty()) references.push_back(order.front());
  double reference_rate = 0.0;
  for (const std::size_t r : references) {
    reference_rate += data[r].time > 0.0 ? static_cast<double>(data[r].records) / data[r].time
                                         : 0.0;
  }
  reference_rate /= static_cast<double>(references.size());
  const auto pair_alpha = [&](const Class& c, const Class& r) {
    const double c_mass = c.fractions.total_weight();
    const double r_mass = r.fractions.total_weight();
    if (c_mass <= 0.0 || r_mass <= 0.0 || c.time <= 0.0 || r.time <= 0.0) {
      return std::nan("");
    }
    double sum = 0.0;
    std::size_t bins = 0;
    for (std::size_t i = 0; i < c.counts.size(); ++i) {
      const double f_c = c.fractions.count(i) / c_mass;
      const double f_r = r.fractions.count(i) / r_mass;
      if (f_c < kMinTimeFraction || f_r < kMinTimeFraction ||
          r.counts.count(i) < kMinReferenceCount) {
        continue;
      }
      sum += (c.counts.count(i) / (f_c * c.time)) / (r.counts.count(i) / (f_r * r.time));
      ++bins;
    }
    return bins > 0 ? sum / static_cast<double>(bins) : std::nan("");
  };
  std::vector<SlotStat> slots;
  for (std::size_t k = 0; k < classes; ++k) {
    SlotStat stat{.slot = static_cast<int>(k), .records = data[k].records,
                  .total_time_ms = data[k].time};
    double sum = 0.0;
    std::size_t used = 0;
    for (const std::size_t r : references) {
      const double a = pair_alpha(data[k], data[r]);
      if (std::isfinite(a) && a > 0.0) {
        sum += a;
        ++used;
      }
    }
    if (used > 0) {
      stat.alpha = std::max(sum / static_cast<double>(used), kAlphaFloor);
    } else {
      const double rate =
          data[k].time > 0.0 ? static_cast<double>(data[k].records) / data[k].time : 0.0;
      stat.alpha = std::max(rate / reference_rate, kAlphaFloor);
      stat.alpha_from_fallback = true;
    }
    slots.push_back(stat);
  }
  return slots;
}

TEST(AlphaDayTableTest, RowPathMatchesTheClassWindowEstimate) {
  const auto ragged = ragged_days_dataset(9);
  for (const std::int64_t slot_ms : {kHour / 2, kHour, 2 * kHour}) {
    AutoSensOptions options;
    options.alpha_slot_ms = slot_ms;
    SCOPED_TRACE(slot_ms);
    expect_same_slots(TimeNormalizer(ragged, options).slots(),
                      class_window_alpha(ragged, options));
  }
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, 42))
          .generate();
  const auto dataset = telemetry::validate(generated.dataset).dataset;
  expect_same_slots(TimeNormalizer(dataset, AutoSensOptions{}).slots(),
                    class_window_alpha(dataset, AutoSensOptions{}));
}

TEST(AlphaDayTableTest, TablePathMatchesRowPath) {
  const auto dataset = ragged_days_dataset(9);
  for (const std::int64_t slot_ms : {kHour / 2, kHour, 2 * kHour}) {
    AutoSensOptions options;
    options.alpha_slot_ms = slot_ms;
    options.threads = 1;
    SCOPED_TRACE(slot_ms);
    expect_table_matches_rows(dataset, options, 40);
  }
}

TEST(AlphaDayTableTest, TablePathMatchesRowPathOnGeneratedData) {
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, 41))
          .generate();
  const auto dataset = telemetry::validate(generated.dataset).dataset;
  AutoSensOptions options;
  options.threads = 4;
  expect_table_matches_rows(dataset, options, 12);
}

TEST(AlphaDayTableTest, SingleDayDataset) {
  // One day, cut at both ends: the replicate's only day is first and last.
  telemetry::Dataset d;
  stats::Random random(8);
  for (int i = 0; i < 400; ++i) {
    d.add({.time_ms = 7 * kDay + 3 * kHour +
                      static_cast<std::int64_t>(random.uniform() * 17.0 * kHour),
           .user_id = 1,
           .latency_ms = 100.0 + random.uniform() * 500.0});
  }
  d.sort_by_time();
  AutoSensOptions options;
  options.alpha_slot_ms = 2 * kHour;
  expect_table_matches_rows(d, options, 5);
}

TEST(AlphaDayTableTest, MoreThan256Days) {
  // Classes with more windows than the parallel layer's chunk cap still
  // fold one merge per window on both paths.
  const auto dataset = ragged_days_dataset(300);
  AutoSensOptions options;
  options.threads = 4;
  expect_table_matches_rows(dataset, options, 4);
}

TEST(AlphaDayTableTest, RejectsAMismatchedDraw) {
  const auto dataset = ragged_days_dataset(6);
  const auto columns = dataset.columns();
  const AutoSensOptions options;
  const DayTable table(columns, options);
  stats::Random random(3);
  const auto drawn = draw_days(table.size(), random);
  EXPECT_THROW(TimeNormalizer(DrawnDays{table, {}}, options), std::invalid_argument);
  std::vector<std::size_t> outside = drawn;
  outside[1] = table.size();
  EXPECT_THROW(TimeNormalizer(DrawnDays{table, outside}, options), std::out_of_range);
  AutoSensOptions other = options;
  other.alpha_slot_ms = 2 * kHour;
  EXPECT_THROW(TimeNormalizer(DrawnDays{table, drawn}, other), std::invalid_argument);
  // Days keeping their own dates must stay in time order.
  const std::vector<std::size_t> backwards = {1, 0};
  EXPECT_THROW(TimeNormalizer(DrawnDays{.table = table, .drawn = backwards, .own_dates = true},
                              options),
               std::invalid_argument);
  // A table built for an analysis without α holds no α inputs.
  AutoSensOptions raw = options;
  raw.normalize_time_confounder = false;
  const DayTable raw_table(columns, raw);
  EXPECT_THROW(TimeNormalizer(DrawnDays{raw_table, drawn}, options), std::invalid_argument);
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

TEST(AlphaByPeriodTest, UnsortedDatasetThrows) {
  telemetry::Dataset d;
  d.add({.time_ms = 2 * kHour, .user_id = 1, .latency_ms = 100.0});
  d.add({.time_ms = kHour, .user_id = 1, .latency_ms = 100.0});
  EXPECT_THROW(alpha_by_period(d, AutoSensOptions{}), std::invalid_argument);
}

TEST(AlphaByPeriodTest, EmptyDatasetThrows) {
  EXPECT_THROW(alpha_by_period(telemetry::Dataset{}, AutoSensOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace autosens::core
