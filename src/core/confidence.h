// Bootstrap confidence intervals for preference curves. The paper reports
// point estimates; production users need to know whether a measured drop is
// signal or estimation noise.
//
// Resampling scheme: a DAY-BLOCK bootstrap. Records are grouped by calendar
// day and whole days are resampled with replacement (each drawn day's
// records are re-timestamped onto a fresh sequential day, preserving
// time-of-day). Resampling individual records would shred the temporal
// structure that the unbiased estimator and the α-normalization depend on;
// whole days keep the diurnal pattern and the intra-day AR correlation
// intact while treating days — which are essentially independent at the
// process's ~30-minute correlation time — as the exchangeable unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/confounder_time.h"
#include "core/options.h"
#include "core/preference.h"
#include "stats/bootstrap.h"
#include "stats/rng.h"
#include "telemetry/dataset.h"

namespace autosens::core {

struct ConfidenceOptions {
  std::size_t replicates = 50;
  double confidence = 0.90;
};

/// A preference curve with per-probe-latency percentile intervals.
struct PreferenceWithConfidence {
  PreferenceResult point;               ///< Estimate on the full dataset.
  std::vector<double> probe_latency_ms; ///< Latencies the CIs cover.
  std::vector<stats::Interval> intervals;
  std::size_t usable_replicates = 0;    ///< Replicates that produced a curve.
};

/// One day-block resample as a block table over its parent's sorted
/// columns: O(blocks) to build, no record copy, no re-sort. It borrows the
/// parent's columns, which must outlive it unmodified. columns() gathers the
/// shifted times and latencies once, on first call, into vectors the
/// resample owns; that first call is not thread-safe (each bootstrap
/// replicate owns its resample).
class Resample {
 public:
  /// One contiguous run [first, last) of parent rows, each shifted by
  /// `time_shift` milliseconds.
  struct Block {
    std::size_t first = 0;
    std::size_t last = 0;
    std::int64_t time_shift = 0;
  };

  /// Blocks must lie within the parent (std::invalid_argument otherwise)
  /// and their concatenated shifted times must be sorted ascending
  /// (day_block_resample puts block s on day s).
  Resample(telemetry::SampleColumns parent, std::vector<Block> blocks);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t block_count() const noexcept { return blocks_.size(); }

  /// The resampled columns, sorted ascending (same lifetime as *this).
  telemetry::SampleColumns columns() const;

 private:
  telemetry::SampleColumns parent_;
  std::vector<Block> blocks_;
  std::size_t size_ = 0;
  mutable std::vector<std::int64_t> times_;
  mutable std::vector<double> latencies_;
};

/// A day-block resample of `dataset` (non-empty and sorted, else
/// std::invalid_argument): O(days) block selection — binary-searched day
/// ranges plus one draw per slot. Days with no records are squeezed out:
/// slots re-base onto sequential days starting at day 0. The resample
/// borrows `dataset`'s columns.
Resample day_block_resample(const telemetry::Dataset& dataset, stats::Random& random);

/// The draw of one day-block resample over `day_count` non-empty days:
/// entry s is the index of the day drawn onto slot s (one uniform draw per
/// slot, in slot order — what day_block_resample consumes from `random`).
std::vector<std::size_t> draw_days(std::size_t day_count, stats::Random& random);

/// The resample that puts parent day days[drawn[s]] (days =
/// day_ranges(parent.times)) on day s, keeping time-of-day: the rows a
/// DrawnDays over a DayTable of `parent` with the same `drawn` describes.
Resample day_block_resample(telemetry::SampleColumns parent,
                            std::span<const DayRange> days,
                            std::span<const std::size_t> drawn);

/// Run AutoSens and attach bootstrap intervals at `probe_latencies`.
/// Replicates whose resample cannot support a curve (or does not cover a
/// probe) contribute nothing at that probe. Throws like analyze().
PreferenceWithConfidence analyze_with_confidence(const telemetry::Dataset& dataset,
                                                 const AutoSensOptions& options,
                                                 std::vector<double> probe_latencies,
                                                 const ConfidenceOptions& confidence,
                                                 stats::Random& random);

}  // namespace autosens::core
