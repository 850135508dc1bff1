// The zero-copy scrub and slice against the per-row loops they replaced.
//
// telemetry::validate returns a row selection over its input's columns and
// Dataset::filtered scans only the columns its predicate names before one
// gather. The oracles below are the per-row implementations those replaced
// (every surviving record gathered and appended one at a time); the
// selection path must match them byte for byte: columns, sorted flag and
// ValidationReport, and every analysis built on top at any thread count and
// on the scalar kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <latch>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/confidence.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "core/slices.h"
#include "core/store_analyze.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/rng.h"
#include "telemetry/clock.h"
#include "telemetry/filter.h"
#include "telemetry/store/store.h"
#include "telemetry/store/writer.h"
#include "telemetry/validate.h"
#include "temp_path.h"

namespace autosens {
namespace {

using telemetry::ActionRecord;
using telemetry::ActionStatus;
using telemetry::ActionType;
using telemetry::Dataset;
using telemetry::RecordPredicate;
using telemetry::UserClass;
using telemetry::ValidatedDataset;
using telemetry::ValidationOptions;
using telemetry::ValidationReport;

// ---------------------------------------------------------------------------
// Oracles: the per-row scrub and slice.

ValidatedDataset oracle_validate(const Dataset& input, const ValidationOptions& options = {}) {
  ValidatedDataset result;
  ValidationReport& report = result.report;
  report.total = input.size();
  for (std::size_t i = 0; i < input.size(); ++i) {
    const ActionRecord r = input[i];
    if (r.time_ms < options.min_time_ms) {
      ++report.dropped_bad_timestamp;
    } else if (r.time_ms < options.window_begin_ms || r.time_ms >= options.window_end_ms) {
      ++report.dropped_out_of_window;
    } else if (!std::isfinite(r.latency_ms)) {
      ++report.dropped_nonfinite_latency;
    } else if (options.successful_only && r.status == ActionStatus::kError) {
      ++report.dropped_error_status;
    } else if (r.latency_ms <= options.min_latency_ms) {
      ++report.dropped_nonpositive_latency;
    } else if (r.latency_ms > options.max_latency_ms) {
      ++report.dropped_excessive_latency;
    } else {
      result.dataset.add(r);
    }
  }
  report.kept = result.dataset.size();
  result.dataset.sort_by_time();
  return result;
}

Dataset oracle_filtered(const Dataset& input, const RecordPredicate& predicate) {
  Dataset kept;
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (predicate(input[i])) kept.add(input[i]);
  }
  return kept;
}

// ---------------------------------------------------------------------------
// Byte-level comparison helpers.

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void expect_same_dataset(const Dataset& expected, const Dataset& actual, const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  EXPECT_EQ(expected.is_sorted(), actual.is_sorted()) << what;
  EXPECT_TRUE(same_bytes(expected.times(), actual.times())) << what << ": times";
  EXPECT_TRUE(same_bytes(expected.latencies(), actual.latencies())) << what << ": latencies";
  EXPECT_TRUE(same_bytes(expected.user_ids(), actual.user_ids())) << what << ": user ids";
  EXPECT_TRUE(same_bytes(expected.actions(), actual.actions())) << what << ": actions";
  EXPECT_TRUE(same_bytes(expected.user_classes(), actual.user_classes()))
      << what << ": user classes";
  EXPECT_TRUE(same_bytes(expected.statuses(), actual.statuses())) << what << ": statuses";
}

void expect_same_report(const ValidationReport& a, const ValidationReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.summary(), b.summary()) << what;  // every counter, in one string
  EXPECT_EQ(a.kept, b.kept) << what;
}

/// Every byte of a curve, for exact comparison.
std::string curve_bytes(const core::PreferenceResult& r) {
  std::string out;
  const auto put = [&out](const void* data, std::size_t bytes) {
    out.append(static_cast<const char*>(data), bytes);
  };
  for (const auto* v : {&r.latency_ms, &r.raw_ratio, &r.smoothed, &r.normalized}) {
    put(v->data(), v->size() * sizeof(double));
    out += '|';
  }
  put(r.valid.data(), r.valid.size());
  put(&r.reference_latency_ms, sizeof r.reference_latency_ms);
  put(&r.biased_samples, sizeof r.biased_samples);
  put(&r.support_begin, sizeof r.support_begin);
  put(&r.support_end, sizeof r.support_end);
  return out;
}

std::string confidence_bytes(const core::PreferenceWithConfidence& r) {
  std::string out = curve_bytes(r.point);
  for (const auto& interval : r.intervals) {
    out.append(reinterpret_cast<const char*>(&interval.lo), sizeof interval.lo);
    out.append(reinterpret_cast<const char*>(&interval.hi), sizeof interval.hi);
  }
  out += std::to_string(r.usable_replicates);
  return out;
}

// ---------------------------------------------------------------------------
// Randomized inputs.

enum class Drops { kNone, kAll, kSome };

/// Times the predicate and option variants below cut at, so records land
/// exactly on both sides of every boundary.
constexpr std::int64_t kBoundaries[] = {
    telemetry::kMillisPerDay / 3, telemetry::kMillisPerDay / 2, telemetry::kMillisPerDay,
    2 * telemetry::kMillisPerDay, 5'000'000, 2 * telemetry::kMillisPerHour,
    8 * telemetry::kMillisPerHour, 14 * telemetry::kMillisPerHour,
    20 * telemetry::kMillisPerHour};

/// n records over ~3 days with every field varied; one in eight sits on or
/// just before a boundary time. kSome makes a quarter of the rows bad in
/// one or two ways (pre-epoch times, error status, zero/negative/NaN/inf
/// and excessive latencies); kAll makes every row bad.
Dataset random_dataset(stats::Random& random, std::size_t n, bool sorted, Drops drops) {
  std::vector<ActionRecord> records(n);
  for (auto& r : records) {
    r.time_ms = 1'000 + static_cast<std::int64_t>(
                            random.uniform_index(3 * telemetry::kMillisPerDay / 1000)) *
                            1000;
    if (random.uniform_index(8) == 0) {
      r.time_ms = kBoundaries[random.uniform_index(std::size(kBoundaries))] -
                  static_cast<std::int64_t>(random.uniform_index(2));
    }
    r.user_id = 1 + random.uniform_index(25);
    r.latency_ms = std::round(random.uniform(1.0, 3000.0) * 100.0) / 100.0;
    r.action = static_cast<ActionType>(random.uniform_index(telemetry::kActionTypeCount));
    r.user_class = static_cast<UserClass>(random.uniform_index(telemetry::kUserClassCount));
    r.status = ActionStatus::kSuccess;
    const bool bad =
        drops == Drops::kAll || (drops == Drops::kSome && random.uniform_index(4) == 0);
    if (!bad) continue;
    for (std::uint64_t k = 0, ways = 1 + random.uniform_index(2); k < ways; ++k) {
      switch (random.uniform_index(7)) {
        case 0: r.time_ms = -5; break;
        case 1: r.status = ActionStatus::kError; break;
        case 2: r.latency_ms = 0.0; break;
        case 3: r.latency_ms = -r.latency_ms; break;
        case 4: r.latency_ms = std::numeric_limits<double>::quiet_NaN(); break;
        case 5: r.latency_ms = std::numeric_limits<double>::infinity(); break;
        default: r.latency_ms = 90'000.0; break;
      }
    }
  }
  if (sorted) {
    const auto by_time = [](const ActionRecord& a, const ActionRecord& b) {
      return a.time_ms < b.time_ms;
    };
    std::stable_sort(records.begin(), records.end(), by_time);
  }
  return Dataset(std::move(records));
}

std::vector<ValidationOptions> option_variants() {
  std::vector<ValidationOptions> variants(5);
  variants[1].successful_only = false;
  variants[2].window_begin_ms = telemetry::kMillisPerDay / 2;
  variants[2].window_end_ms = 2 * telemetry::kMillisPerDay;
  variants[3].min_latency_ms = 100.0;
  variants[3].max_latency_ms = 2000.0;
  variants[4].min_time_ms = 5'000'000;
  variants[4].max_latency_ms = std::numeric_limits<double>::infinity();
  return variants;
}

/// Every column predicate, all_of compositions, generic lambdas and the
/// quartile test over `basis`.
std::vector<std::pair<std::string, RecordPredicate>> predicate_variants(const Dataset& basis) {
  using namespace telemetry;
  std::vector<std::pair<std::string, RecordPredicate>> out;
  for (int a = 0; a < kActionTypeCount; ++a) {
    out.emplace_back("action" + std::to_string(a), by_action(static_cast<ActionType>(a)));
  }
  out.emplace_back("business", by_user_class(UserClass::kBusiness));
  out.emplace_back("consumer", by_user_class(UserClass::kConsumer));
  out.emplace_back("error", by_status(ActionStatus::kError));
  out.emplace_back("range", by_time_range(kMillisPerDay / 3, 2 * kMillisPerDay));
  for (int p = 0; p < kDayPeriodCount; ++p) {
    out.emplace_back("period" + std::to_string(p), by_period(static_cast<DayPeriod>(p)));
  }
  out.emplace_back("month0", by_month(0));
  out.emplace_back("month1", by_month(1));
  out.emplace_back("all_of{}", all_of({}));
  out.emplace_back("action&class", all_of({by_action(ActionType::kSelectMail),
                                           by_user_class(UserClass::kConsumer)}));
  out.emplace_back("action&class&period",
                   all_of({all_of({by_action(ActionType::kSearch),
                                   by_user_class(UserClass::kBusiness)}),
                           by_period(DayPeriod::kMorning)}));
  out.emplace_back("range&month", all_of({by_time_range(0, kMillisPerDay), by_month(0)}));
  const RecordPredicate slow = [](const ActionRecord& r) { return r.latency_ms > 700.0; };
  out.emplace_back("lambda", slow);
  out.emplace_back("lambda&action", all_of({slow, by_action(ActionType::kSelectMail)}));
  out.emplace_back("action&lambda", all_of({by_action(ActionType::kSelectMail), slow}));
  if (!basis.empty()) {
    const UserQuartiles quartiles(basis);
    out.emplace_back("quartile2", quartiles.in_quartile(2));
    out.emplace_back("quartile&class",
                     all_of({quartiles.in_quartile(0), by_user_class(UserClass::kConsumer)}));
  }
  return out;
}

TEST(SelectionOracleTest, ValidateMatchesPerRowOracle) {
  stats::Random random(101);
  const auto variants = option_variants();
  int trial = 0;
  for (const std::size_t n : {0u, 1u, 7u, 64u, 500u}) {
    for (const bool sorted : {true, false}) {
      for (const Drops drops : {Drops::kNone, Drops::kAll, Drops::kSome}) {
        for (std::size_t v = 0; v < variants.size(); ++v, ++trial) {
          const Dataset input = random_dataset(random, n, sorted, drops);
          const std::string what = "trial " + std::to_string(trial) + " n=" +
                                   std::to_string(n) + " sorted=" + std::to_string(sorted) +
                                   " options=" + std::to_string(v);
          const auto expected = oracle_validate(input, variants[v]);
          const auto actual = telemetry::validate(input, variants[v]);
          expect_same_report(expected.report, actual.report, what);
          expect_same_dataset(expected.dataset, actual.dataset, what);
        }
      }
    }
  }
}

TEST(SelectionOracleTest, FilteredMatchesPerRowOracle) {
  stats::Random random(202);
  for (const bool sorted : {true, false}) {
    const Dataset raw = random_dataset(random, 800, sorted, Drops::kSome);
    // The owned input, and the same rows as a selection (validate's output)
    // next to their owned oracle copy.
    const Dataset selection = telemetry::validate(raw).dataset;
    const Dataset scrubbed = oracle_validate(raw).dataset;
    for (const auto& [name, predicate] : predicate_variants(scrubbed)) {
      const std::string what = name + (sorted ? " sorted" : " unsorted");
      expect_same_dataset(oracle_filtered(raw, predicate), raw.filtered(predicate),
                          what + " owned");
      expect_same_dataset(oracle_filtered(scrubbed, predicate), selection.filtered(predicate),
                          what + " selection");
    }
  }
}

TEST(SelectionOracleTest, ChainsMatchPerRowOracle) {
  stats::Random random(303);
  const auto variants = option_variants();
  for (const bool sorted : {true, false}) {
    const Dataset raw = random_dataset(random, 600, sorted, Drops::kSome);
    const auto predicates = predicate_variants(oracle_validate(raw).dataset);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      for (std::size_t p = 0; p < predicates.size(); p += 3) {
        const auto& [first_name, first] = predicates[p];
        const auto& [second_name, second] = predicates[(p + 5) % predicates.size()];
        const std::string what =
            first_name + " -> validate" + std::to_string(v) + " -> " + second_name;
        // filter -> validate -> filter
        const auto expected_mid = oracle_validate(oracle_filtered(raw, first), variants[v]);
        const auto actual_mid = telemetry::validate(raw.filtered(first), variants[v]);
        expect_same_report(expected_mid.report, actual_mid.report, what);
        expect_same_dataset(oracle_filtered(expected_mid.dataset, second),
                            actual_mid.dataset.filtered(second), what);
        // validate -> validate (a selection as validate's input) -> filter
        const auto twice = telemetry::validate(telemetry::validate(raw).dataset, variants[v]);
        const auto expected_twice = oracle_validate(oracle_validate(raw).dataset, variants[v]);
        expect_same_report(expected_twice.report, twice.report, what + " twice");
        expect_same_dataset(oracle_filtered(expected_twice.dataset, first),
                            twice.dataset.filtered(first), what + " twice");
      }
    }
  }
}

TEST(SelectionTest, ReadsThroughASelection) {
  stats::Random random(404);
  const Dataset raw = random_dataset(random, 300, true, Drops::kSome);
  const Dataset expected = oracle_validate(raw).dataset;
  const Dataset selection = telemetry::validate(raw).dataset;
  ASSERT_EQ(selection.size(), expected.size());
  ASSERT_FALSE(selection.empty());
  EXPECT_TRUE(selection.is_sorted());
  EXPECT_EQ(selection.begin_time(), expected.begin_time());
  EXPECT_EQ(selection.end_time(), expected.end_time());
  for (std::size_t i = 0; i < selection.size(); ++i) ASSERT_EQ(selection[i], expected[i]) << i;
  EXPECT_EQ(selection.records(), expected.records());
  std::vector<std::uint32_t> rows{3, 0, 3, 7};
  expect_same_dataset(expected.gather(rows), selection.gather(rows), "gather");
  // A copy of a selection reads the same rows.
  const Dataset copy = selection;
  expect_same_dataset(expected, copy, "copy");
}

TEST(SelectionTest, SelectChecksItsRows) {
  const Dataset d({{.time_ms = 1}, {.time_ms = 2}, {.time_ms = 3}});
  EXPECT_THROW(d.select({1, 0}), std::invalid_argument);
  EXPECT_THROW(d.select({0, 0}), std::invalid_argument);
  EXPECT_THROW(d.select({3}), std::invalid_argument);
  const Dataset picked = d.select({0, 2});
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[1].time_ms, 3);
  // A selection of a selection maps through to the shared columns.
  EXPECT_EQ(picked.select({1})[0].time_ms, 3);
  EXPECT_THROW(picked.select({2}), std::invalid_argument);
  // Selecting nothing (validate dropping every row) copies as empty.
  const Dataset none = d.select({});
  const Dataset none_copy = none;
  EXPECT_TRUE(none_copy.empty());
  EXPECT_TRUE(none_copy.times().empty());
}

// ---------------------------------------------------------------------------
// Mutating a selection behaves like mutating a copy, and leaves the dataset
// it was taken from untouched.

struct SelectionAndCopy {
  Dataset base;
  Dataset selection;  ///< validate(base): shares base's columns.
  Dataset copy;       ///< The oracle's owned copy of the same rows.
  Dataset base_snapshot;
};

SelectionAndCopy selection_and_copy(std::uint64_t seed) {
  stats::Random random(seed);
  SelectionAndCopy out;
  out.base = random_dataset(random, 200, true, Drops::kSome);
  out.selection = telemetry::validate(out.base).dataset;
  out.copy = oracle_validate(out.base).dataset;
  out.base_snapshot = oracle_filtered(out.base, telemetry::all_of({}));
  return out;
}

TEST(SelectionMutationTest, AddBehavesLikeACopy) {
  auto s = selection_and_copy(1);
  const ActionRecord early{.time_ms = 0, .user_id = 9, .latency_ms = 5.0};
  s.selection.add(early);
  s.copy.add(early);
  expect_same_dataset(s.copy, s.selection, "after add");
  EXPECT_FALSE(s.selection.is_sorted());
  expect_same_dataset(s.base_snapshot, s.base, "base after add");
}

TEST(SelectionMutationTest, AppendColumnsBehavesLikeACopy) {
  auto s = selection_and_copy(2);
  const Dataset tail({{.time_ms = 10 * telemetry::kMillisPerDay, .latency_ms = 7.0},
                      {.time_ms = 11 * telemetry::kMillisPerDay, .latency_ms = 8.0}});
  for (Dataset* d : {&s.selection, &s.copy}) {
    d->append_columns(tail.times(), tail.latencies(), tail.user_ids(), tail.actions(),
                      tail.user_classes(), tail.statuses());
  }
  expect_same_dataset(s.copy, s.selection, "after append_columns");
  expect_same_dataset(s.base_snapshot, s.base, "base after append_columns");
}

TEST(SelectionMutationTest, SortByTimeBehavesLikeACopy) {
  auto s = selection_and_copy(3);
  s.selection.sort_by_time();  // already sorted: a no-op, still a selection
  expect_same_dataset(s.copy, s.selection, "after no-op sort");
  const ActionRecord early{.time_ms = 0, .user_id = 4, .latency_ms = 9.0};
  for (Dataset* d : {&s.selection, &s.copy}) {
    d->add(early);
    d->sort_by_time();
  }
  expect_same_dataset(s.copy, s.selection, "after sort");
  expect_same_dataset(s.base_snapshot, s.base, "base after sort");
}

TEST(SelectionMutationTest, MutatingTheBaseOrACopyLeavesASelectionIntact) {
  auto s = selection_and_copy(4);
  Dataset copy_of_selection = s.selection;
  copy_of_selection.add({.time_ms = 1, .latency_ms = 1.0});
  Dataset copy_of_base = s.base;
  copy_of_base.add({.time_ms = 3, .latency_ms = 3.0});
  expect_same_dataset(s.base_snapshot, s.base, "base after mutating its copy");
  s.base.add({.time_ms = 2, .latency_ms = 2.0});
  s.base.sort_by_time();
  expect_same_dataset(s.copy, s.selection, "selection");
  EXPECT_EQ(copy_of_selection.size(), s.selection.size() + 1);
}

// ---------------------------------------------------------------------------
// Concurrency: the first span access compacts once, from any thread.

TEST(SelectionConcurrencyTest, FirstSpanAccessFromEightThreads) {
  constexpr int kThreads = 8;
  stats::Random random(505);
  const Dataset raw = random_dataset(random, 20'000, true, Drops::kSome);
  const Dataset expected = oracle_validate(raw).dataset;
  for (int round = 0; round < 4; ++round) {
    const Dataset selection = telemetry::validate(raw).dataset;
    std::vector<const std::int64_t*> times(kThreads);
    std::vector<const double*> latencies(kThreads);
    std::vector<std::size_t> sliced(kThreads);
    std::latch start(kThreads);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          start.arrive_and_wait();
          // Odd threads read through the selection first (a column scan, a
          // generic predicate, a copy and a record read), racing the
          // compaction the even threads trigger.
          if (t % 2 == 1) {
            sliced[t] = selection.filtered(telemetry::by_action(ActionType::kSelectMail)).size();
            const Dataset copy = selection;
            const auto mail = copy.filtered([](const ActionRecord& r) {
              return r.action == ActionType::kSelectMail;
            });
            EXPECT_EQ(mail.size(), sliced[t]);
            (void)selection[selection.size() / 2];
          }
          const auto columns = selection.columns();
          times[t] = columns.times.data();
          latencies[t] = selection.latencies().data();
        });
      }
    }
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(times[t], times[0]);
      EXPECT_EQ(latencies[t], latencies[0]);
    }
    const auto expected_slice =
        oracle_filtered(expected, telemetry::by_action(ActionType::kSelectMail)).size();
    for (int t = 1; t < kThreads; t += 2) EXPECT_EQ(sliced[t], expected_slice);
    expect_same_dataset(expected, selection, "after concurrent compaction");
  }
}

// ---------------------------------------------------------------------------
// Analyses on the selection path are byte-identical to the oracle path at
// threads 1/2/8, on the detected and the scalar kernels.

class ScopedScalar {
 public:
  explicit ScopedScalar(bool scalar) {
    if (scalar) core::simd::set_level_override(core::simd::Level::kScalar);
  }
  ~ScopedScalar() { core::simd::set_level_override(std::nullopt); }
};

Dataset generated_raw() {
  return simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kTiny, 21))
      .generate()
      .dataset;
}

constexpr std::size_t kThreadSweep[] = {1, 2, 8};

TEST(SelectionIdentityTest, AnalyzeAndSlicesAcrossThreadsAndScalar) {
  const Dataset raw = generated_raw();
  const Dataset scrubbed = oracle_validate(raw).dataset;
  const Dataset oracle_slice =
      oracle_filtered(scrubbed, telemetry::by_action(ActionType::kSelectMail));
  core::AutoSensOptions options;
  const std::string slice_curve = curve_bytes(core::analyze(oracle_slice, options));
  const std::string whole_curve = curve_bytes(core::analyze(scrubbed, options));
  const auto by_action = core::preference_by_action(scrubbed, options);
  ASSERT_FALSE(by_action.empty());
  for (const bool scalar : {false, true}) {
    const ScopedScalar guard(scalar);
    for (const std::size_t threads : kThreadSweep) {
      options.threads = threads;
      const std::string what =
          "threads=" + std::to_string(threads) + (scalar ? " scalar" : " detected");
      const auto validated = telemetry::validate(raw);
      const Dataset slice =
          validated.dataset.filtered(telemetry::by_action(ActionType::kSelectMail));
      EXPECT_EQ(slice_curve, curve_bytes(core::analyze(slice, options))) << what;
      // Slices read the selection; analyzing it directly compacts it.
      const auto curves = core::preference_by_action(validated.dataset, options);
      ASSERT_EQ(curves.size(), by_action.size()) << what;
      for (std::size_t c = 0; c < curves.size(); ++c) {
        EXPECT_EQ(curves[c].name, by_action[c].name) << what;
        EXPECT_EQ(curves[c].records, by_action[c].records) << what;
        EXPECT_EQ(curve_bytes(curves[c].result), curve_bytes(by_action[c].result)) << what;
      }
      EXPECT_EQ(whole_curve, curve_bytes(core::analyze(validated.dataset, options))) << what;
    }
  }
}

TEST(SelectionIdentityTest, ConfidenceAcrossThreadsAndScalar) {
  const Dataset raw = generated_raw();
  const Dataset oracle_slice = oracle_filtered(oracle_validate(raw).dataset,
                                               telemetry::by_action(ActionType::kSelectMail));
  core::AutoSensOptions options;
  const core::ConfidenceOptions confidence{.replicates = 6};
  const std::vector<double> probes{300.0, 1000.0};
  stats::Random reference_random(7);
  const std::string expected = confidence_bytes(
      core::analyze_with_confidence(oracle_slice, options, probes, confidence, reference_random));
  for (const bool scalar : {false, true}) {
    const ScopedScalar guard(scalar);
    for (const std::size_t threads : kThreadSweep) {
      options.threads = threads;
      const Dataset slice = telemetry::validate(raw).dataset.filtered(
          telemetry::by_action(ActionType::kSelectMail));
      stats::Random random(7);
      EXPECT_EQ(expected, confidence_bytes(core::analyze_with_confidence(
                              slice, options, probes, confidence, random)))
          << "threads=" << threads << (scalar ? " scalar" : " detected");
    }
  }
}

TEST(SelectionIdentityTest, StoreWindowsAcrossThreadsAndScalar) {
  const Dataset raw = generated_raw();
  const auto dir = test_support::temp_path("store");
  std::filesystem::remove_all(dir);
  telemetry::store::build_store(raw, dir.string());
  const auto store = telemetry::store::StoredDataset::open(dir.string());
  core::StoreStreamOptions stream;
  stream.window_ms = telemetry::kMillisPerDay;
  stream.action = ActionType::kSelectMail;
  stream.user_class = UserClass::kConsumer;
  core::AutoSensOptions options;

  // Oracle: each window loaded, scrubbed and sliced per row.
  const RecordPredicate slice = [](const ActionRecord& r) {
    return r.action == ActionType::kSelectMail && r.user_class == UserClass::kConsumer;
  };
  std::vector<std::pair<std::size_t, std::string>> expected;
  for (std::int64_t begin = store.min_time_ms(); begin <= store.max_time_ms();
       begin += stream.window_ms) {
    const auto window = store.load_window(begin, begin + stream.window_ms).dataset;
    const Dataset rows = oracle_filtered(oracle_validate(window).dataset, slice);
    std::string curve;
    try {
      curve = curve_bytes(core::analyze(rows, options));
    } catch (const std::invalid_argument&) {
      // Too thin: the window reports counts only.
    }
    expected.emplace_back(rows.size(), curve);
  }
  ASSERT_GE(expected.size(), 2u);
  ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                          [](const auto& window) { return !window.second.empty(); }));

  for (const bool scalar : {false, true}) {
    const ScopedScalar guard(scalar);
    for (const std::size_t threads : kThreadSweep) {
      options.threads = threads;
      const auto results = core::analyze_store_windows(store, options, stream);
      ASSERT_EQ(results.size(), expected.size());
      for (std::size_t w = 0; w < results.size(); ++w) {
        EXPECT_EQ(results[w].records, expected[w].first) << "window " << w;
        EXPECT_EQ(results[w].preference ? curve_bytes(*results[w].preference) : std::string(),
                  expected[w].second)
            << "window " << w << " threads=" << threads << (scalar ? " scalar" : "");
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace autosens
