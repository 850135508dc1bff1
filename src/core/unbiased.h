// The unbiased latency distribution U (§2.2): the latency the service would
// have delivered at times unrelated to user activity. Estimated from the
// biased samples themselves by nearest-in-time sampling at uniformly random
// times — either literally (Monte Carlo, as in the paper) or via the exact
// Voronoi-cell expectation of that procedure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "stats/histogram.h"
#include "stats/rng.h"
#include "telemetry/dataset.h"

namespace autosens::core {

/// A half-open time window [begin_ms, end_ms).
struct TimeWindow {
  std::int64_t begin_ms = 0;
  std::int64_t end_ms = 0;
  std::int64_t length() const noexcept { return end_ms - begin_ms; }
};

/// U over one window via the paper's Monte-Carlo procedure. `times` sorted
/// ascending, aligned with `latencies`; only samples' nearest-relation to
/// random times in the window matters, so samples may lie outside it.
stats::Histogram unbiased_histogram_mc(std::span<const std::int64_t> times,
                                       std::span<const double> latencies,
                                       TimeWindow window, const AutoSensOptions& options,
                                       stats::Random& random);

/// U over one window via exact Voronoi weights (deterministic): the Voronoi
/// cell sums of the rows' calendar days (unbiased_cell_sums) scaled once by
/// 1 / window length. `times` sorted ascending and non-empty.
stats::Histogram unbiased_histogram_voronoi(std::span<const std::int64_t> times,
                                            std::span<const double> latencies,
                                            TimeWindow window,
                                            const AutoSensOptions& options);

/// U pooled over several disjoint windows, each weighted by its duration
/// and estimated from only the samples inside it (used for per-period and
/// per-slot distributions, §2.4.1 / §3.6). Windows must be sorted and
/// non-overlapping; windows without samples contribute nothing.
/// `bin_width_ms` lets callers pick the α-estimation bin width. `threads`
/// parallelizes over windows (partials merged in window order; byte-identical
/// for any value). Validates that `times` is sorted ascending (throws
/// std::invalid_argument otherwise — an unsorted column silently corrupts
/// the per-window binary searches).
stats::Histogram unbiased_histogram_over_windows(std::span<const std::int64_t> times,
                                                 std::span<const double> latencies,
                                                 std::span<const TimeWindow> windows,
                                                 double bin_width_ms, double max_latency_ms,
                                                 std::size_t threads = 1);

/// Same, but skips the O(n) sortedness scan. For callers whose columns are
/// sorted by construction (Dataset's sorted flag, a bootstrap resample's
/// block order, or a single upfront check amortized over many window sets).
stats::Histogram unbiased_histogram_over_windows_sorted(
    std::span<const std::int64_t> times, std::span<const double> latencies,
    std::span<const TimeWindow> windows, double bin_width_ms, double max_latency_ms,
    std::size_t threads = 1);

/// Adds one window's share of a pooled U into `histogram`: the Voronoi
/// weights of `times` within `window`, scaled by the window's duration (so
/// pooled U is time-weighted across windows). `times` (sorted, non-empty,
/// aligned with `latencies`) must be exactly the samples inside the window.
/// The unit both unbiased_histogram_over_windows and the α fractions
/// (confounder_time.h) are folded from.
void add_window_unbiased(stats::Histogram& histogram, std::span<const std::int64_t> times,
                         std::span<const double> latencies, TimeWindow window);

/// One non-empty calendar day of a Voronoi U: its sorted rows, which the
/// analysis sees shifted by `shift` milliseconds (a whole number of days: a
/// day-block resample moves a parent day onto another date), and its
/// interior partial, unbiased_interior() of the same rows.
struct VoronoiDay {
  telemetry::SampleColumns rows;
  std::int64_t shift = 0;
  const stats::Histogram* interior = nullptr;
};

/// The unnormalized Voronoi cell sums (ms), per analysis bin, of one day's
/// interior rows: all rows but those of the day's first and last
/// equal-time runs, whose cells reach into the neighbouring days. The cells
/// are computed in L1-sized blocks, each fed to the weighted fill. `day`:
/// one calendar day's sorted rows, inside `window`. An interior cell lies
/// inside its day, so a whole-day shift leaves the partial unchanged.
stats::Histogram unbiased_interior(telemetry::SampleColumns day, TimeWindow window,
                                   const AutoSensOptions& options);

/// The unnormalized Voronoi cell sums over `window` of `days` (in order,
/// their shifted times sorted overall): the interior partials merged in day
/// order, then each day's boundary runs — its first equal-time run, then its
/// last — added row by row with their cells against the neighbouring days.
/// The one definition of the Voronoi U's sums, for a dataset's rows and for
/// a bootstrap replicate folded from a DayTable alike. On data without
/// equal-time runs every weight is a half-integer cell, so each bin's sum is
/// exact in double and independent of the fill order.
stats::Histogram unbiased_cell_sums(std::span<const VoronoiDay> days, TimeWindow window,
                                    const AutoSensOptions& options);

/// U over sorted columns' own [begin, end) window, honoring
/// options.unbiased_method. Precondition (not checked): times sorted.
stats::Histogram unbiased_histogram(telemetry::SampleColumns columns,
                                    const AutoSensOptions& options);

/// The same over a dataset's columns.
stats::Histogram unbiased_histogram(const telemetry::Dataset& dataset,
                                    const AutoSensOptions& options);

}  // namespace autosens::core
