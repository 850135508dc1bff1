#include "core/confidence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <type_traits>

#include "core/biased.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/descriptive.h"
#include "stats/scratch.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

static_assert(std::is_move_constructible_v<Resample> && std::is_move_assignable_v<Resample>);

/// Reference resampler: the deep-copying implementation the library's
/// block table replaced. Non-empty days are found by a record scan; slot s
/// draws one of them uniformly (the same draws as day_block_resample), and
/// its records are copied with their day moved to s, then re-sorted.
telemetry::Dataset day_block_resample_copy(const telemetry::Dataset& dataset,
                                           stats::Random& random) {
  struct Day {
    std::int64_t index = 0;
    std::size_t first = 0;
    std::size_t last = 0;
  };
  std::vector<Day> days;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const std::int64_t day = telemetry::day_index(dataset[i].time_ms);
    if (days.empty() || days.back().index != day) days.push_back({day, i, i});
    days.back().last = i + 1;
  }
  telemetry::Dataset resampled;
  for (std::size_t slot = 0; slot < days.size(); ++slot) {
    const auto& source = days[random.uniform_index(days.size())];
    for (std::size_t k = source.first; k < source.last; ++k) {
      auto record = dataset[k];
      record.time_ms += (static_cast<std::int64_t>(slot) - source.index) *
                        telemetry::kMillisPerDay;
      resampled.add(record);
    }
  }
  resampled.sort_by_time();
  return resampled;
}

/// The percentile merge of analyze_with_confidence: per probe, the
/// confidence interval of its replicate values, or the point estimate twice
/// when fewer than two replicates cover the probe.
void percentile_intervals(PreferenceWithConfidence& result,
                          std::vector<std::vector<double>>& draws,
                          const ConfidenceOptions& confidence) {
  const double alpha = 1.0 - confidence.confidence;
  for (std::size_t p = 0; p < draws.size(); ++p) {
    if (draws[p].size() < 2) {
      const double point = result.point.covers(result.probe_latency_ms[p])
                               ? result.point.at(result.probe_latency_ms[p])
                               : 0.0;
      result.intervals.push_back({point, point});
    } else {
      result.intervals.push_back({stats::quantile(draws[p], alpha / 2.0),
                                  stats::quantile(draws[p], 1.0 - alpha / 2.0)});
    }
  }
}

/// analyze_with_confidence written out serially over the reference
/// resampler: the point estimate, one counter-seeded substream per
/// replicate, each resample analyzed as an owning Dataset, percentile
/// intervals over the replicates that produced a curve.
PreferenceWithConfidence confidence_by_copy(const telemetry::Dataset& dataset,
                                            const AutoSensOptions& options,
                                            std::vector<double> probes,
                                            const ConfidenceOptions& confidence,
                                            stats::Random& random) {
  PreferenceWithConfidence result;
  result.point = analyze(dataset, options);
  result.probe_latency_ms = std::move(probes);
  const std::uint64_t stream_base = random.engine()();
  std::vector<std::vector<double>> draws(result.probe_latency_ms.size());
  for (std::size_t r = 0; r < confidence.replicates; ++r) {
    stats::Random substream(stats::substream_seed(stream_base, r));
    std::optional<PreferenceResult> curve;
    try {
      curve = analyze(day_block_resample_copy(dataset, substream), options);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++result.usable_replicates;
    for (std::size_t p = 0; p < draws.size(); ++p) {
      if (curve->covers(result.probe_latency_ms[p])) {
        draws[p].push_back(curve->at(result.probe_latency_ms[p]));
      }
    }
  }
  percentile_intervals(result, draws, confidence);
  return result;
}

/// analyze_with_confidence as a chain of public row-path calls — the
/// sequence e2ebench's traced `confidence` op replays: the point curve from
/// TimeNormalizer → normalized_biased → unbiased_histogram →
/// compute_preference over the dataset, then, on the parallel layer, the
/// same chain over each replicate's day_block_resample(dataset,
/// substream).columns(), then the percentile merge.
PreferenceWithConfidence confidence_by_public_calls(const telemetry::Dataset& dataset,
                                                    const AutoSensOptions& options,
                                                    std::vector<double> probes,
                                                    const ConfidenceOptions& confidence,
                                                    stats::Random& random) {
  const auto curve_of = [&](telemetry::SampleColumns columns, const auto& unbiased) {
    const TimeNormalizer normalizer(columns, options);
    const auto biased = normalizer.normalized_biased(columns);
    auto preference = compute_preference(biased, unbiased(), options);
    preference.biased_samples = columns.size();
    return preference;
  };
  PreferenceWithConfidence result;
  result.point =
      curve_of(dataset.columns(), [&] { return unbiased_histogram(dataset, options); });
  result.probe_latency_ms = std::move(probes);
  const std::uint64_t stream_base = random.engine()();
  std::vector<std::optional<PreferenceResult>> curves(confidence.replicates);
  parallel_for_items(confidence.replicates, options.threads, [&](std::size_t r) {
    stats::Random substream(stats::substream_seed(stream_base, r));
    try {
      const auto view = day_block_resample(dataset, substream);
      const auto columns = view.columns();
      curves[r] = curve_of(columns, [&] { return unbiased_histogram(columns, options); });
    } catch (const std::invalid_argument&) {
      // Degenerate resample: contributes nothing, as in the library.
    }
  });
  std::vector<std::vector<double>> draws(result.probe_latency_ms.size());
  for (const auto& curve : curves) {
    if (!curve) continue;
    ++result.usable_replicates;
    for (std::size_t p = 0; p < draws.size(); ++p) {
      if (curve->covers(result.probe_latency_ms[p])) {
        draws[p].push_back(curve->at(result.probe_latency_ms[p]));
      }
    }
  }
  percentile_intervals(result, draws, confidence);
  return result;
}

/// Bitwise equality of a resample's columns and a dataset's.
void expect_same_columns(telemetry::SampleColumns got, const telemetry::Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  const auto want_times = want.times();
  const auto want_latencies = want.latencies();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.times[i], want_times[i]) << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.latencies[i]),
              std::bit_cast<std::uint64_t>(want_latencies[i]))
        << i;
  }
}

telemetry::Dataset small_slice(std::uint64_t seed) {
  auto generated =
      simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, seed))
          .generate();
  return telemetry::validate(generated.dataset)
      .dataset.filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Geometry, every bin and the total weight, bit for bit.
void expect_same_histogram(const stats::Histogram& got, const stats::Histogram& want,
                           const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.lo(), want.lo()) << what;
  EXPECT_EQ(got.bin_width(), want.bin_width()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got.count(i)), bits(want.count(i))) << what << " bin " << i;
  }
  EXPECT_EQ(bits(got.total_weight()), bits(want.total_weight())) << what;
}

void expect_same_slots(const std::vector<SlotStat>& got, const std::vector<SlotStat>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].records, want[k].records) << "class " << k;
    EXPECT_EQ(bits(got[k].total_time_ms), bits(want[k].total_time_ms)) << "class " << k;
    EXPECT_EQ(bits(got[k].alpha), bits(want[k].alpha)) << "class " << k;
    EXPECT_EQ(got[k].alpha_from_fallback, want[k].alpha_from_fallback) << "class " << k;
  }
}

/// Two analyses, bit for bit: α, B, U and the curve.
void expect_same_analysis(const AnalysisResult& got, const AnalysisResult& want) {
  expect_same_slots(got.slots, want.slots);
  expect_same_histogram(got.biased, want.biased, "B");
  expect_same_histogram(got.unbiased, want.unbiased, "U");
  EXPECT_EQ(got.preference.biased_samples, want.preference.biased_samples);
  EXPECT_EQ(got.preference.support_begin, want.preference.support_begin);
  EXPECT_EQ(got.preference.support_end, want.preference.support_end);
  ASSERT_EQ(got.preference.normalized.size(), want.preference.normalized.size());
  for (std::size_t i = 0; i < got.preference.normalized.size(); ++i) {
    ASSERT_EQ(bits(got.preference.raw_ratio[i]), bits(want.preference.raw_ratio[i])) << i;
    ASSERT_EQ(bits(got.preference.normalized[i]), bits(want.preference.normalized[i])) << i;
  }
}

/// α, B and U of a draw folded from its table against the same estimators
/// over `rows`, the drawn rows gathered.
void expect_table_matches_rows(DrawnDays draw, telemetry::SampleColumns rows,
                               const AutoSensOptions& options) {
  if (options.normalize_time_confounder) {
    const TimeNormalizer folded(draw, options);
    const TimeNormalizer scanned(rows, options);
    expect_same_slots(folded.slots(), scanned.slots());
    expect_same_histogram(folded.normalized_biased(draw), scanned.normalized_biased(rows),
                          "B");
  } else {
    expect_same_histogram(biased_histogram(draw, options),
                          biased_histogram(rows.latencies, options), "B");
  }
  expect_same_histogram(unbiased_histogram(draw, options), unbiased_histogram(rows, options),
                        "U");
}

TEST(DayTableTest, MatchesRowsAndTheCopyOracle) {
  // A replicate analyzed from the day table against the same replicate's
  // gathered rows and the deep-copied oracle dataset, and the parent keeping
  // its dates against its own rows: α, B, U and the curve bit for bit, at
  // every thread count and dispatch level, both slot widths, with and
  // without α normalization.
  const auto slice = small_slice(72);
  const auto columns = slice.columns();
  for (const std::int64_t slot_ms :
       {telemetry::kMillisPerHour, telemetry::kMillisPerHour / 2}) {
    for (const bool scalar : {false, true}) {
      if (scalar) simd::set_level_override(simd::Level::kScalar);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        for (const bool normalize : {true, false}) {
          AutoSensOptions options;
          options.threads = threads;
          options.alpha_slot_ms = slot_ms;
          options.normalize_time_confounder = normalize;
          SCOPED_TRACE(::testing::Message() << "slot " << slot_ms << " scalar " << scalar
                                            << " threads " << threads << " normalize "
                                            << normalize);
          const DayTable table(columns, options);
          std::vector<std::size_t> every_day(table.size());
          std::iota(every_day.begin(), every_day.end(), std::size_t{0});
          expect_same_analysis(
              analyze_detailed({.table = table, .drawn = every_day, .own_dates = true},
                               options),
              analyze_detailed(columns, options));
          stats::Random rng(40);
          stats::Random copy_rng(40);
          for (int r = 0; r < 2; ++r) {
            const auto drawn = draw_days(table.size(), rng);
            const auto copy = day_block_resample_copy(slice, copy_rng);
            const auto resample = day_block_resample(columns, table.days(), drawn);
            const auto folded = analyze_detailed({.table = table, .drawn = drawn}, options);
            expect_same_analysis(folded, analyze_detailed(resample.columns(), options));
            expect_same_analysis(folded, analyze_detailed(copy, options));
          }
        }
      }
      simd::set_level_override(std::nullopt);
    }
  }
}

/// Days whose boundary runs are the edge cases of the fold: day 0 starts
/// and ends with an equal-time run of 3 rows, day 1 holds one row, day 2 is
/// a single equal-time run of 3 rows, day 3 is empty, day 4 holds two rows
/// and day 5 is busy, with equal-time runs inside it. `day_count` cuts the
/// list short (1: a single-day parent).
telemetry::Dataset edge_days_dataset(int day_count) {
  constexpr std::int64_t kBase = 19'500 * telemetry::kMillisPerDay;
  constexpr std::int64_t kHour = telemetry::kMillisPerHour;
  stats::Random random(21);
  telemetry::Dataset d;
  const auto add = [&](std::int64_t t) {
    d.add({.time_ms = t, .user_id = 1, .latency_ms = 20.0 + random.uniform() * 1500.0});
  };
  const auto day = [](int i) { return kBase + i * telemetry::kMillisPerDay; };
  for (int i = 0; i < 3; ++i) add(day(0) + 2 * kHour);
  for (int i = 0; i < 400; ++i) {
    add(day(0) + 2 * kHour + 1 + static_cast<std::int64_t>(random.uniform() * 20.0 * kHour));
  }
  for (int i = 0; i < 3; ++i) add(day(0) + 23 * kHour);
  if (day_count > 1) add(day(1) + 13 * kHour);
  if (day_count > 2) {
    for (int i = 0; i < 3; ++i) add(day(2) + 5 * kHour);
  }
  if (day_count > 4) {
    add(day(4) + kHour);
    add(day(4) + 20 * kHour);
  }
  if (day_count > 5) {
    for (int i = 0; i < 600; ++i) {
      const auto t = day(5) + static_cast<std::int64_t>(random.uniform() * 24.0 * kHour);
      add(t);
      if (i % 50 == 0) add(t);
    }
  }
  d.sort_by_time();
  return d;
}

TEST(DayTableTest, BoundaryRunsAndShortDays) {
  // Draws that put the edge-case days first, last, next to each other and
  // twice, a draw whose first and last slot are the same parent day, and
  // one-slot draws, on a six-day parent and on a single-day one.
  const std::vector<std::vector<std::size_t>> six_day_draws = {
      {4, 1, 0, 2, 3, 4}, {0, 0, 0}, {1, 1, 1}, {2, 4, 1}, {3, 0}, {2}, {1}, {0, 2, 1, 0}};
  const std::vector<std::vector<std::size_t>> one_day_draws = {{0}, {0, 0, 0}};
  for (const int day_count : {6, 1}) {
    const auto dataset = edge_days_dataset(day_count);
    const auto columns = dataset.columns();
    for (const std::int64_t slot_ms :
         {telemetry::kMillisPerHour, telemetry::kMillisPerHour / 2}) {
      for (const std::size_t threads : {1u, 8u}) {
        for (const bool normalize : {true, false}) {
          AutoSensOptions options;
          options.threads = threads;
          options.alpha_slot_ms = slot_ms;
          options.normalize_time_confounder = normalize;
          SCOPED_TRACE(::testing::Message() << "days " << day_count << " slot " << slot_ms
                                            << " threads " << threads << " normalize "
                                            << normalize);
          const DayTable table(columns, options);
          ASSERT_EQ(table.size(), day_count == 1 ? 1u : 5u);
          std::vector<std::size_t> every_day(table.size());
          std::iota(every_day.begin(), every_day.end(), std::size_t{0});
          expect_table_matches_rows({.table = table, .drawn = every_day, .own_dates = true},
                                    columns, options);
          for (const auto& drawn : day_count == 1 ? one_day_draws : six_day_draws) {
            SCOPED_TRACE(::testing::Message() << "draw of " << drawn.size() << " from day "
                                              << drawn.front());
            const auto resample = day_block_resample(columns, table.days(), drawn);
            expect_table_matches_rows({.table = table, .drawn = drawn}, resample.columns(),
                                      options);
          }
        }
      }
    }
  }
}

TEST(DayBlockResampleTest, EmptyDatasetThrows) {
  stats::Random random(1);
  EXPECT_THROW(day_block_resample(telemetry::Dataset{}, random), std::invalid_argument);
}

TEST(DayBlockResampleTest, PreservesSizeOrderAndTimeOfDay) {
  const auto slice = small_slice(61);
  stats::Random random(2);
  const auto resampled = day_block_resample(slice, random);
  // Same day count → similar (not necessarily equal) record count; the
  // slot-major order is globally time-sorted.
  const auto times = resampled.columns().times;
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_GT(resampled.size(), slice.size() / 2);
  EXPECT_LT(resampled.size(), slice.size() * 2);
  // Every record keeps a valid hour-of-day distribution: daytime-heavy.
  std::size_t day = 0;
  std::size_t night = 0;
  for (const std::int64_t t : times) {
    const int hour = telemetry::hour_of_day(t);
    if (hour >= 9 && hour < 15) ++day;
    if (hour >= 1 && hour < 7) ++night;
  }
  EXPECT_GT(day, night);
}

TEST(DayBlockResampleTest, SpansSameDayRange) {
  const auto slice = small_slice(62);
  stats::Random random(3);
  const auto resampled = day_block_resample(slice, random);
  EXPECT_EQ(telemetry::day_index(resampled.columns().begin_time()),
            telemetry::day_index(slice.begin_time()));
  EXPECT_LE(telemetry::day_index(resampled.columns().end_time() - 1),
            telemetry::day_index(slice.end_time() - 1));
}

TEST(DayBlockResampleTest, ActuallyResamples) {
  const auto slice = small_slice(63);
  stats::Random random(4);
  const auto a = day_block_resample(slice, random);
  const auto b = day_block_resample(slice, random);
  EXPECT_NE(a.size(), b.size());  // overwhelmingly likely with 14 days
}

TEST(DayBlockResampleTest, MatchesCopyOracleBitwise) {
  // Golden determinism check: with equal generator state the block table
  // and the reference copy describe bit-identical columns, and consume the
  // generator identically.
  const auto slice = small_slice(68);
  stats::Random rng(9);
  stats::Random copy_rng(9);
  for (int round = 0; round < 3; ++round) {
    const auto resampled = day_block_resample(slice, rng);
    expect_same_columns(resampled.columns(), day_block_resample_copy(slice, copy_rng));
  }
}

TEST(DayBlockResampleTest, UnsortedDatasetThrows) {
  telemetry::Dataset d;
  d.add({.time_ms = 2000, .user_id = 1, .latency_ms = 100.0});
  d.add({.time_ms = 1000, .user_id = 1, .latency_ms = 100.0});
  stats::Random random(12);
  EXPECT_THROW(day_block_resample(d, random), std::invalid_argument);
}

TEST(DayBlockResampleTest, BlocksOutsideTheParentThrow) {
  const std::vector<std::int64_t> times = {1, 2, 3};
  const std::vector<double> latencies = {10.0, 20.0, 30.0};
  const telemetry::SampleColumns parent{times, latencies};
  EXPECT_THROW(Resample(parent, {{.first = 1, .last = 4, .time_shift = 0}}),
               std::invalid_argument);
  EXPECT_THROW(Resample(parent, {{.first = 2, .last = 1, .time_shift = 0}}),
               std::invalid_argument);
  const Resample shifted(parent, {{.first = 1, .last = 3, .time_shift = 5}});
  ASSERT_EQ(shifted.size(), 2u);
  EXPECT_EQ(shifted.columns().times[0], 7);
  EXPECT_EQ(shifted.columns().latencies[1], 30.0);
}

TEST(DayBlockResampleTest, ExplicitDrawMatchesTheDatasetDraw) {
  // day_block_resample(dataset, random) is draw_days + the explicit form,
  // consuming the generator identically.
  const auto slice = small_slice(71);
  const auto columns = slice.columns();
  const auto days = day_ranges(columns.times);
  stats::Random rng(14);
  stats::Random explicit_rng(14);
  for (int round = 0; round < 2; ++round) {
    const auto resampled = day_block_resample(slice, rng);
    const auto drawn = draw_days(days.size(), explicit_rng);
    const auto explicit_resample = day_block_resample(columns, days, drawn);
    ASSERT_EQ(resampled.size(), explicit_resample.size());
    const auto a = resampled.columns();
    const auto b = explicit_resample.columns();
    EXPECT_TRUE(std::equal(a.times.begin(), a.times.end(), b.times.begin()));
    EXPECT_TRUE(std::equal(a.latencies.begin(), a.latencies.end(), b.latencies.begin()));
  }
  const std::vector<std::size_t> outside(days.size(), days.size());
  EXPECT_THROW(day_block_resample(columns, days, outside), std::invalid_argument);
}

TEST(DayBlockResampleTest, SingleDayDatasetResamplesToItself) {
  // One non-empty day → every draw picks it; the only effect is the rebase
  // onto day 0 (time-of-day preserved).
  telemetry::Dataset d;
  const std::int64_t day5 = 5 * telemetry::kMillisPerDay;
  for (int i = 0; i < 10; ++i) {
    d.add({.time_ms = day5 + i * 1000, .user_id = 1, .latency_ms = 100.0 + i,
           .action = telemetry::ActionType::kSelectMail,
           .user_class = telemetry::UserClass::kBusiness,
           .status = telemetry::ActionStatus::kSuccess});
  }
  stats::Random random(10);
  const auto resampled = day_block_resample(d, random);
  ASSERT_EQ(resampled.size(), d.size());
  EXPECT_EQ(resampled.block_count(), 1u);
  const auto columns = resampled.columns();
  for (std::size_t i = 0; i < resampled.size(); ++i) {
    EXPECT_EQ(columns.times[i], static_cast<std::int64_t>(i) * 1000);
    EXPECT_DOUBLE_EQ(columns.latencies[i], 100.0 + static_cast<double>(i));
  }
  stats::Random copy_rng(10);
  expect_same_columns(columns, day_block_resample_copy(d, copy_rng));
}

TEST(DayBlockResampleTest, EmptyMiddleDaysAreSqueezedOut) {
  // Records on days 0 and 3 only: two slots, re-based onto days 0 and 1 —
  // the empty middle days vanish, exactly as the copying resampler always
  // behaved.
  telemetry::Dataset d;
  for (const std::int64_t day : {std::int64_t{0}, std::int64_t{3}}) {
    for (int i = 0; i < 5; ++i) {
      d.add({.time_ms = day * telemetry::kMillisPerDay + i * 60'000, .user_id = 2,
             .latency_ms = 50.0,
             .action = telemetry::ActionType::kSelectMail,
             .user_class = telemetry::UserClass::kConsumer,
             .status = telemetry::ActionStatus::kSuccess});
    }
  }
  stats::Random random(11);
  const auto resampled = day_block_resample(d, random);
  EXPECT_EQ(resampled.block_count(), 2u);
  EXPECT_EQ(resampled.size(), 10u);
  const auto columns = resampled.columns();
  EXPECT_LE(telemetry::day_index(columns.end_time() - 1), 1);
  EXPECT_TRUE(std::is_sorted(columns.times.begin(), columns.times.end()));
  // And the reference copy squeezes identically under the same draws.
  stats::Random copy_rng(11);
  expect_same_columns(columns, day_block_resample_copy(d, copy_rng));
}

TEST(AnalyzeWithConfidenceTest, Validation) {
  const auto slice = small_slice(64);
  stats::Random random(5);
  EXPECT_THROW(analyze_with_confidence(slice, AutoSensOptions{}, {500.0},
                                       {.replicates = 0, .confidence = 0.9}, random),
               std::invalid_argument);
  EXPECT_THROW(analyze_with_confidence(slice, AutoSensOptions{}, {500.0},
                                       {.replicates = 5, .confidence = 1.0}, random),
               std::invalid_argument);
}

TEST(AnalyzeWithConfidenceTest, IntervalsCoverPointEstimate) {
  const auto slice = small_slice(65);
  stats::Random random(6);
  const auto result = analyze_with_confidence(slice, AutoSensOptions{},
                                              {500.0, 1000.0}, {.replicates = 12}, random);
  EXPECT_EQ(result.usable_replicates, 12u);
  ASSERT_EQ(result.intervals.size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    const double point = result.point.at(result.probe_latency_ms[p]);
    EXPECT_LE(result.intervals[p].lo, result.intervals[p].hi);
    // The point estimate should be near the interval (bootstrap noise can
    // push it slightly outside for few replicates; allow slack).
    EXPECT_GT(point, result.intervals[p].lo - 0.1);
    EXPECT_LT(point, result.intervals[p].hi + 0.1);
    // A real interval, not degenerate.
    EXPECT_GT(result.intervals[p].hi - result.intervals[p].lo, 1e-6);
  }
}

/// analyze_with_confidence against the serial copy-oracle loop: a
/// bit-identical point curve and intervals, equal usable counts.
void expect_matches_copy_oracle(const telemetry::Dataset& slice,
                                const AutoSensOptions& options,
                                const ConfidenceOptions& confidence,
                                decltype(&confidence_by_copy) oracle = confidence_by_copy) {
  const std::vector<double> probes = {500.0, 1000.0, 2400.0};
  stats::Random rng(8);
  stats::Random copy_rng(8);
  const auto got = analyze_with_confidence(slice, options, probes, confidence, rng);
  const auto want = oracle(slice, options, probes, confidence, copy_rng);
  // The point estimate too: its α folds the parent's day table.
  EXPECT_EQ(got.point.support_begin, want.point.support_begin);
  EXPECT_EQ(got.point.support_end, want.point.support_end);
  ASSERT_EQ(got.point.raw_ratio.size(), want.point.raw_ratio.size());
  for (std::size_t i = 0; i < got.point.raw_ratio.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.point.raw_ratio[i]),
              std::bit_cast<std::uint64_t>(want.point.raw_ratio[i]))
        << "bin " << i;
  }
  EXPECT_EQ(got.usable_replicates, want.usable_replicates);
  ASSERT_EQ(got.intervals.size(), want.intervals.size());
  for (std::size_t p = 0; p < got.intervals.size(); ++p) {
    // Bit for bit, not approximately: the block table is the same resample
    // and its α folds the same per-day inputs.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.intervals[p].lo),
              std::bit_cast<std::uint64_t>(want.intervals[p].lo))
        << "probe " << p;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.intervals[p].hi),
              std::bit_cast<std::uint64_t>(want.intervals[p].hi))
        << "probe " << p;
  }
}

TEST(AnalyzeWithConfidenceTest, MatchesCopyOracleReplicateLoop) {
  // The library's replicates (block tables on the parallel layer, α folded
  // from the parent's day table) against a serial loop over the reference
  // copy, whose α is re-estimated from every row: bit-identical intervals
  // and usable counts at every thread count, on the scalar kernel path, and
  // with 30-minute α slots.
  const auto slice = small_slice(67);
  const ConfidenceOptions confidence{.replicates = 8};
  for (const std::int64_t slot_ms :
       {telemetry::kMillisPerHour, telemetry::kMillisPerHour / 2}) {
    for (const bool scalar : {false, true}) {
      if (scalar) simd::set_level_override(simd::Level::kScalar);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        AutoSensOptions options;
        options.threads = threads;
        options.alpha_slot_ms = slot_ms;
        SCOPED_TRACE(::testing::Message() << "slot " << slot_ms << " scalar " << scalar
                                          << " threads " << threads);
        expect_matches_copy_oracle(slice, options, confidence);
      }
      simd::set_level_override(std::nullopt);
    }
  }
}

TEST(AnalyzeWithConfidenceTest, MatchesThePublicRowPathChain) {
  // Every replicate the library folds from its day table equals the chain
  // of public row-path calls over that replicate's gathered columns, bit
  // for bit, so a caller rebuilding the bootstrap from those calls gets the
  // library's intervals.
  AutoSensOptions options;
  options.threads = 2;
  expect_matches_copy_oracle(small_slice(74), options, {.replicates = 8},
                             confidence_by_public_calls);
}

TEST(AnalyzeWithConfidenceTest, ScratchPoolHoldsOnlyBinSizedBuffers) {
  // Partial histograms go back to the scratch pool; a replicate's gathered
  // columns and a sorted dataset's old columns never do, so a long run
  // cannot park a column-sized buffer behind a 300-bin partial.
  const auto slice = small_slice(75);
  const std::size_t bins = make_latency_histogram(AutoSensOptions{}).size();
  for (const bool normalize : {true, false}) {
    AutoSensOptions options;
    options.normalize_time_confounder = normalize;
    options.threads = 2;
    stats::Random random(12);
    analyze_with_confidence(slice, options, {500.0}, {.replicates = 4}, random);
    EXPECT_LE(stats::ScratchPool<double>::max_pooled_capacity(), bins) << normalize;
  }
  stats::Random random(13);
  {
    const auto resample = day_block_resample(slice, random);
    ASSERT_EQ(resample.columns().size(), resample.size());
  }
  EXPECT_LE(stats::ScratchPool<double>::max_pooled_capacity(), bins);
  EXPECT_EQ(stats::ScratchPool<std::int64_t>::max_pooled_capacity(), 0u);
}

TEST(AnalyzeWithConfidenceTest, MatchesCopyOracleWithoutNormalization) {
  AutoSensOptions options;
  options.normalize_time_confounder = false;
  options.threads = 2;
  expect_matches_copy_oracle(small_slice(69), options, {.replicates = 6});
}

TEST(AnalyzeWithConfidenceTest, CountsEveryReplicateAsAPipelineRun) {
  // Replicates still run the pipeline's shared tail and spans: the run
  // counter rises by replicates + 1 per call, one α normalization per run;
  // the day table is built once whether or not α is normalized, and each
  // replicate runs inside one span.
  const auto slice = small_slice(70);
  obs::set_enabled(true);
  obs::Tracer::global().set_enabled(true);
  obs::Counter& runs = obs::registry().counter(
      "autosens_pipeline_runs_total", "Completed analyze()/analyze_over_windows() runs");
  const auto count_spans = [](const std::string& name) {
    const auto spans = obs::Tracer::global().snapshot();
    return std::count_if(spans.begin(), spans.end(),
                         [&](const obs::SpanRecord& span) { return span.name == name; });
  };
  for (const bool normalize : {true, false}) {
    obs::Tracer::global().clear();
    AutoSensOptions options;
    options.normalize_time_confounder = normalize;
    stats::Random random(9);
    const std::uint64_t before = runs.value();
    analyze_with_confidence(slice, options, {500.0}, {.replicates = 5}, random);
    EXPECT_EQ(runs.value() - before, 6u) << normalize;
    EXPECT_EQ(count_spans("day_table"), 1);
    EXPECT_EQ(count_spans("replicate"), 5);
    EXPECT_EQ(count_spans("alpha_normalize"), normalize ? 6 : 0);
    EXPECT_EQ(count_spans("biased_fill"), normalize ? 0 : 6);
    EXPECT_EQ(count_spans("unbiased"), 6);
    EXPECT_EQ(count_spans("preference"), 6);
  }
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();
  obs::set_enabled(false);
}

TEST(AnalyzeWithConfidenceTest, IntervalsContainPlantedValueMostOfTheTime) {
  const auto config = simulate::paper_config(simulate::Scale::kSmall, 66);
  auto generated = simulate::WorkloadGenerator(config).generate();
  const auto slice = telemetry::validate(generated.dataset)
                         .dataset.filtered(telemetry::all_of(
                             {telemetry::by_action(telemetry::ActionType::kSelectMail),
                              telemetry::by_user_class(telemetry::UserClass::kBusiness)}));
  stats::Random random(7);
  const auto result = analyze_with_confidence(slice, AutoSensOptions{}, {500.0},
                                              {.replicates = 16, .confidence = 0.95}, random);
  // The point estimate itself lies in the interval; the planted value sits
  // within the interval widened by the known attenuation bias.
  const auto planted = simulate::expected_pooled_curve(
      config, telemetry::ActionType::kSelectMail, telemetry::UserClass::kBusiness, 300.0);
  EXPECT_GT(planted(500.0), result.intervals[0].lo - 0.08);
  EXPECT_LT(planted(500.0), result.intervals[0].hi + 0.08);
}

}  // namespace
}  // namespace autosens::core
