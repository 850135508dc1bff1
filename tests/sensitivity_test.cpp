#include "core/sensitivity.h"

#include <gtest/gtest.h>

#include "core/biased.h"
#include "core/pipeline.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/distance.h"
#include "telemetry/filter.h"
#include "telemetry/validate.h"

namespace autosens::core {
namespace {

/// A synthetic PreferenceResult with a linear NLP over [100, 2900] ms.
PreferenceResult linear_preference(double slope_per_ms) {
  AutoSensOptions options;
  auto biased = make_latency_histogram(options);
  auto unbiased = make_latency_histogram(options);
  for (std::size_t i = 1; i + 1 < biased.size(); ++i) {
    const double latency = biased.bin_center(i);
    unbiased.set_count(i, 1000.0);
    biased.set_count(i, 1000.0 * (1.0 + slope_per_ms * (latency - 300.0)));
  }
  return compute_preference(biased, unbiased, options);
}

TEST(SummarizeTest, FlatCurveIsInsensitive) {
  const auto summary = summarize(linear_preference(0.0));
  EXPECT_NEAR(summary.drop_at_1000ms, 0.0, 1e-6);
  EXPECT_EQ(summary.classification, SensitivityClass::kInsensitive);
  EXPECT_DOUBLE_EQ(summary.latency_at_nlp_08, 0.0);
  EXPECT_NEAR(summary.slope_per_100ms, 0.0, 1e-6);
}

TEST(SummarizeTest, SteepCurveIsHighlySensitive) {
  // NLP(1000) = 1 - 3e-4 * 700 = 0.79 → drop 0.21.
  const auto summary = summarize(linear_preference(-3e-4));
  EXPECT_NEAR(summary.drop_at_1000ms, 0.21, 0.01);
  EXPECT_EQ(summary.classification, SensitivityClass::kHigh);
  EXPECT_LT(summary.slope_per_100ms, -0.02);
  // NLP crosses 0.8 around 967 ms.
  EXPECT_NEAR(summary.latency_at_nlp_08, 967.0, 20.0);
}

TEST(SummarizeTest, ModerateBand) {
  // drop at 1000 = 1e-4 * 700 = 0.07.
  const auto summary = summarize(linear_preference(-1e-4));
  EXPECT_EQ(summary.classification, SensitivityClass::kModerate);
}

TEST(SummarizeTest, ClassNames) {
  EXPECT_EQ(to_string(SensitivityClass::kInsensitive), "insensitive");
  EXPECT_EQ(to_string(SensitivityClass::kModerate), "moderately sensitive");
  EXPECT_EQ(to_string(SensitivityClass::kHigh), "highly sensitive");
}

class ScreenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Small scale: the TV distance has a sampling-noise floor ~ sqrt(bins/n),
    // so thin slices (ComposeSend at tiny scale) would read as divergent.
    auto generated =
        simulate::WorkloadGenerator(simulate::paper_config(simulate::Scale::kSmall, 71))
            .generate();
    dataset_ = new telemetry::Dataset(telemetry::validate(generated.dataset).dataset);
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static telemetry::Dataset* dataset_;
};

telemetry::Dataset* ScreenTest::dataset_ = nullptr;

TEST_F(ScreenTest, SensitiveSliceIsWorthAnalyzing) {
  const auto slice =
      dataset_->filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
  const auto report = screen(slice, AutoSensOptions{});
  EXPECT_TRUE(report.worth_analyzing);
  EXPECT_GT(report.total_variation, 0.01);
  EXPECT_GT(report.kolmogorov_smirnov, 0.0);
  // The biased distribution leans toward lower latency.
  EXPECT_LT(report.mean_shift_ms, 0.0);
}

TEST_F(ScreenTest, ThresholdControlsVerdict) {
  const auto slice =
      dataset_->filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
  const auto report = screen(slice, AutoSensOptions{}, /*min_distance=*/0.99);
  EXPECT_FALSE(report.worth_analyzing);
}

TEST_F(ScreenTest, ComparesTheDistributionsTheAnalysisBuilds) {
  // screen() fills B once, as analyze_detailed does (α-normalized by
  // default), so its distances are exactly those of the analysis's B and U.
  const auto slice =
      dataset_->filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
  for (const bool normalize : {true, false}) {
    AutoSensOptions options;
    options.normalize_time_confounder = normalize;
    const auto report = screen(slice, options);
    const auto analysis = analyze_detailed(slice, options);
    EXPECT_EQ(report.total_variation,
              stats::total_variation_distance(analysis.biased, analysis.unbiased));
    EXPECT_EQ(report.kolmogorov_smirnov,
              stats::ks_statistic(analysis.biased, analysis.unbiased));
    EXPECT_EQ(report.mean_shift_ms, stats::mean_shift(analysis.biased, analysis.unbiased));
  }
}

TEST(ScreenPlantedTest, PlantedPreferenceDivergesMoreThanFlatPreference) {
  // Same workload shape and record volume, but one run has the latency
  // preference switched off entirely (drop scales = 0) — the screening
  // distance must be clearly larger when a preference is planted. Comparing
  // at equal sample size keeps the TV sampling-noise floor identical.
  auto sensitive_config = simulate::paper_config(simulate::Scale::kSmall, 72);
  auto flat_config = sensitive_config;
  flat_config.preference.user_drop_at_fastest = 0.0;
  flat_config.preference.user_drop_at_slowest = 0.0;

  const auto slice_of = [](const simulate::WorkloadConfig& config) {
    auto generated = simulate::WorkloadGenerator(config).generate();
    return telemetry::validate(generated.dataset)
        .dataset.filtered(telemetry::by_action(telemetry::ActionType::kSelectMail));
  };
  const auto sensitive = screen(slice_of(sensitive_config), AutoSensOptions{});
  const auto flat = screen(slice_of(flat_config), AutoSensOptions{});
  EXPECT_GT(sensitive.total_variation, 1.5 * flat.total_variation);
  // With α-normalization the confounder is corrected, so the flat workload
  // shows no systematic shift; the planted one leans clearly fast.
  EXPECT_NEAR(flat.mean_shift_ms, 0.0, 10.0);
  EXPECT_LT(sensitive.mean_shift_ms, -10.0);
}

}  // namespace
}  // namespace autosens::core
