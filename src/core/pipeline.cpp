#include "core/pipeline.h"

#include <stdexcept>

#include "core/biased.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace autosens::core {
namespace {

/// Pre-registered pipeline instrumentation handles (one relaxed atomic add
/// per use once registered; see DESIGN.md "Observability").
struct PipelineMetrics {
  obs::Counter& runs = obs::registry().counter(
      "autosens_pipeline_runs_total", "Completed analyze()/analyze_over_windows() runs");
  obs::Counter& records = obs::registry().counter(
      "autosens_pipeline_records_total", "Records entering the analysis pipeline");
  obs::Histogram& biased_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"biased\"}",
      "Per-stage pipeline latency (milliseconds)");
  obs::Histogram& alpha_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"alpha_normalize\"}",
      "Per-stage pipeline latency (milliseconds)");
  obs::Histogram& unbiased_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"unbiased\"}",
      "Per-stage pipeline latency (milliseconds)");
  obs::Histogram& preference_ms = obs::registry().histogram(
      "autosens_stage_latency_ms{stage=\"preference\"}",
      "Per-stage pipeline latency (milliseconds)");
};

PipelineMetrics& metrics() {
  static PipelineMetrics handles;
  return handles;
}

/// The shared tail of every analysis: the preference curve from B and U,
/// plus the run accounting.
AnalysisResult finish_analysis(std::size_t records, stats::Histogram biased,
                               stats::Histogram unbiased, std::vector<SlotStat> slots,
                               const AutoSensOptions& options) {
  auto preference = [&] {
    obs::Span span("preference", &metrics().preference_ms);
    return compute_preference(biased, unbiased, options);
  }();
  // The α-normalization rescales weights; report the actual record count.
  preference.biased_samples = records;
  metrics().runs.inc();
  if (obs::enabled()) {
    // Readiness for /healthz: the analysis pipeline has produced at least
    // one result since instrumentation came up.
    obs::Health::global().set_component(
        "pipeline", true, "runs=" + std::to_string(metrics().runs.value()));
  }
  return AnalysisResult{.preference = std::move(preference),
                        .biased = std::move(biased),
                        .unbiased = std::move(unbiased),
                        .slots = std::move(slots)};
}

/// The unbiased stage of analyze_detailed over columns.
stats::Histogram unbiased_stage(telemetry::SampleColumns columns,
                                const AutoSensOptions& options) {
  obs::Span span("unbiased", &metrics().unbiased_ms);
  span.attr("method",
            options.unbiased_method == UnbiasedMethod::kMonteCarlo ? "mc" : "voronoi");
  return unbiased_histogram(columns, options);
}

}  // namespace

stats::Histogram biased_distribution(telemetry::SampleColumns columns,
                                     const AutoSensOptions& options,
                                     std::vector<SlotStat>& slots) {
  if (options.normalize_time_confounder) {
    obs::Span span("alpha_normalize", &metrics().alpha_ms);
    const TimeNormalizer normalizer(columns, options);
    slots = normalizer.slots();
    span.attr("slots", static_cast<std::int64_t>(slots.size()));
    return normalizer.normalized_biased(columns);
  }
  obs::Span span("biased_fill", &metrics().biased_ms);
  return biased_histogram(columns.latencies, options);
}

AnalysisResult analyze_detailed(telemetry::SampleColumns columns,
                                const AutoSensOptions& options) {
  if (columns.empty()) throw std::invalid_argument("analyze: empty dataset");
  metrics().records.inc(columns.size());
  std::vector<SlotStat> slots;
  stats::Histogram biased = biased_distribution(columns, options, slots);
  stats::Histogram unbiased = unbiased_stage(columns, options);
  return finish_analysis(columns.size(), std::move(biased), std::move(unbiased),
                         std::move(slots), options);
}

AnalysisResult analyze_detailed(DrawnDays days, const AutoSensOptions& options,
                                telemetry::SampleColumns rows) {
  const std::size_t records = days.table.rows(days.drawn);
  metrics().records.inc(records);
  std::vector<SlotStat> slots;
  stats::Histogram biased = [&] {
    if (options.normalize_time_confounder) {
      obs::Span span("alpha_normalize", &metrics().alpha_ms);
      const TimeNormalizer normalizer(days, options);
      slots = normalizer.slots();
      span.attr("slots", static_cast<std::int64_t>(slots.size()));
      return normalizer.normalized_biased(days);
    }
    obs::Span span("biased_fill", &metrics().biased_ms);
    return biased_histogram(days, options);
  }();
  stats::Histogram unbiased = [&] {
    if (options.unbiased_method == UnbiasedMethod::kMonteCarlo) {
      if (rows.size() != records) {
        throw std::invalid_argument("analyze: a Monte-Carlo U needs the drawn rows");
      }
      return unbiased_stage(rows, options);
    }
    obs::Span span("unbiased", &metrics().unbiased_ms);
    span.attr("method", "voronoi");
    return unbiased_histogram(days, options);
  }();
  return finish_analysis(records, std::move(biased), std::move(unbiased), std::move(slots),
                         options);
}

AnalysisResult analyze_detailed(const telemetry::Dataset& dataset,
                                const AutoSensOptions& options) {
  if (dataset.empty()) throw std::invalid_argument("analyze: empty dataset");
  if (!dataset.is_sorted()) throw std::invalid_argument("analyze: dataset not sorted");
  return analyze_detailed(dataset.columns(), options);
}

PreferenceResult analyze(const telemetry::Dataset& dataset, const AutoSensOptions& options) {
  return analyze_detailed(dataset, options).preference;
}

AnalysisResult analyze_over_windows(const telemetry::Dataset& dataset,
                                    std::span<const TimeWindow> windows,
                                    const AutoSensOptions& options) {
  if (dataset.empty()) throw std::invalid_argument("analyze_over_windows: empty dataset");
  if (!dataset.is_sorted()) {
    throw std::invalid_argument("analyze_over_windows: dataset not sorted");
  }
  if (windows.empty()) throw std::invalid_argument("analyze_over_windows: no windows");
  metrics().records.inc(dataset.size());

  const auto columns = dataset.columns();
  std::vector<SlotStat> slots;
  stats::Histogram biased = biased_distribution(columns, options, slots);

  stats::Histogram unbiased = [&] {
    obs::Span span("unbiased", &metrics().unbiased_ms);
    span.attr("method", "windows");
    span.attr("windows", static_cast<std::int64_t>(windows.size()));
    return unbiased_histogram_over_windows_sorted(columns.times, columns.latencies, windows,
                                                  options.bin_width_ms,
                                                  options.max_latency_ms, options.threads);
  }();
  return finish_analysis(columns.size(), std::move(biased), std::move(unbiased),
                         std::move(slots), options);
}

}  // namespace autosens::core
