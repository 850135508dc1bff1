// The end-to-end AutoSens pipeline: dataset → (α-normalized) biased
// distribution + unbiased distribution → smoothed, normalized latency
// preference. This is the primary entry point of the library.
#pragma once

#include <vector>

#include "core/confounder_time.h"
#include "core/options.h"
#include "core/preference.h"
#include "core/unbiased.h"
#include "stats/histogram.h"
#include "telemetry/dataset.h"

namespace autosens::core {

/// Everything one analysis produces; `preference` is the headline result.
struct AnalysisResult {
  PreferenceResult preference;
  stats::Histogram biased;    ///< α-normalized when enabled in options.
  stats::Histogram unbiased;
  std::vector<SlotStat> slots;  ///< Empty when normalization is disabled.
};

/// Run AutoSens on sorted analysis-plane columns whose observation window is
/// their own [begin, end) range. Precondition (not checked): `columns.times`
/// sorted ascending. Throws std::invalid_argument on empty input or an
/// unsupported reference latency.
AnalysisResult analyze_detailed(telemetry::SampleColumns columns,
                                const AutoSensOptions& options);

/// The same, bit for bit, for the rows a draw describes (DrawnDays): α, B
/// and the Voronoi U fold the DayTable's per-day entries, and only each
/// slot's boundary rows are read from the parent. A Monte-Carlo U draws
/// from rows, so with UnbiasedMethod::kMonteCarlo `rows` must be those
/// columns (Resample::columns()); a Voronoi analysis never reads them.
AnalysisResult analyze_detailed(DrawnDays days, const AutoSensOptions& options,
                                telemetry::SampleColumns rows = {});

/// The same on a scrubbed dataset: checks that it is sorted (throws
/// std::invalid_argument otherwise), then analyzes its columns.
AnalysisResult analyze_detailed(const telemetry::Dataset& dataset,
                                const AutoSensOptions& options);

/// Convenience: just the preference curve.
PreferenceResult analyze(const telemetry::Dataset& dataset, const AutoSensOptions& options);

/// B as analyze_detailed builds it: α-normalized when
/// options.normalize_time_confounder (the per-slot α go to `slots`), raw
/// otherwise. Same precondition as analyze_detailed(SampleColumns).
stats::Histogram biased_distribution(telemetry::SampleColumns columns,
                                     const AutoSensOptions& options,
                                     std::vector<SlotStat>& slots);

/// Run AutoSens on a dataset observed only during `windows` (sorted,
/// disjoint) — e.g. the daily 6-hour chunks of a time-of-day slice (§3.6).
/// The unbiased distribution is estimated within each window to avoid the
/// huge artificial Voronoi cells a gap would create.
AnalysisResult analyze_over_windows(const telemetry::Dataset& dataset,
                                    std::span<const TimeWindow> windows,
                                    const AutoSensOptions& options);

}  // namespace autosens::core
