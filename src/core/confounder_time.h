// Mitigation of the time confounder (§2.4.1). User activity and latency are
// both functions of time-of-day; pooling hours naively can even invert the
// apparent preference (Table 1 of the paper). AutoSens therefore estimates a
// per-time-of-day-slot activity factor α and rescales each slot's action
// counts by 1/α before pooling.
//
// A "slot" is a time-of-day class (e.g. the 10:00–11:00 hour), pooled across
// all days of the data — α models *how active users are at that time of
// day*, not the traffic of one specific hour. Pooling across days is what
// separates the diurnal activity pattern from the transient latency
// fluctuations that carry the preference signal: a specific slow afternoon
// still contributes its (latency, action-count) evidence, it is only the
// systematic time-of-day activity level that is divided out.
//
// For a slot T and latency bin L, the temporal action rate is c_T(L)/f_T(L),
// where c is the action count and f the fraction of slot time at that
// latency (from the slot's unbiased distribution). α_{T,ref}(L) is the ratio
// of that rate to the reference slot's; α_T averages it over latency bins,
// and multiple reference slots are used in turn and averaged.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "core/unbiased.h"
#include "stats/histogram.h"
#include "telemetry/clock.h"
#include "telemetry/dataset.h"

namespace autosens::core {

/// Per-slot (time-of-day class) diagnostics.
struct SlotStat {
  int slot = 0;                ///< Class index; start = slot * alpha_slot_ms.
  std::size_t records = 0;
  double total_time_ms = 0.0;  ///< Time the data covers in this class.
  double alpha = 1.0;          ///< Estimated activity factor.
  bool alpha_from_fallback = false;  ///< True if the per-bin estimate failed.
};

/// One non-empty calendar day of sorted times: its day index and its row
/// range [first, last).
struct DayRange {
  std::int64_t day = 0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// The non-empty days of sorted, non-empty `times`, in order: one binary
/// search per calendar day, O(days · log rows).
std::vector<DayRange> day_ranges(std::span<const std::int64_t> times);

/// The α inputs of one day, per time-of-day class: the α-bin counts and the
/// record count of the day's rows in the class, and the U fraction histogram
/// of the day's class window, from only the samples inside it
/// (duration-weighted; zero when the window holds no sample). α pools a
/// class across days by folding these entries in day order.
struct DayAlphaInputs {
  std::vector<stats::Histogram> counts;
  std::vector<stats::Histogram> fractions;
  std::vector<std::size_t> records;
};

/// The α inputs of every non-empty day of a day-block bootstrap's parent,
/// each class window whole (not clipped at the parent's first or last row):
/// entry i belongs to day_ranges(parent)[i], the unit a resample draws. A
/// whole-day shift keeps every row's class and every in-window Voronoi cell
/// (cell edges are exact half-integer milliseconds), so a resample's whole
/// days have exactly these inputs. Built per analyze_with_confidence call;
/// nothing keeps it beyond that.
class AlphaDayTable {
 public:
  /// `parent` sorted (not checked) and non-empty; options.alpha_slot_ms must
  /// divide a day (std::invalid_argument otherwise).
  AlphaDayTable(telemetry::SampleColumns parent, const AutoSensOptions& options);

  std::size_t size() const noexcept { return days_.size(); }

 private:
  friend class TimeNormalizer;
  std::int64_t slot_ms_ = 0;
  std::vector<DayAlphaInputs> days_;
};

/// A day-block resample's α source: its parent's table and, for each of its
/// days in order, the table entry drawn onto that day.
struct DrawnDays {
  const AlphaDayTable& table;
  std::span<const std::size_t> drawn;
};

class TimeNormalizer {
 public:
  /// Estimates α for every time-of-day slot. The dataset must be sorted and
  /// non-empty, and options.alpha_slot_ms must divide a day evenly; throws
  /// std::invalid_argument otherwise.
  TimeNormalizer(const telemetry::Dataset& dataset, const AutoSensOptions& options);

  /// The same over sorted-by-construction columns (a bootstrap resample, a
  /// checked dataset's columns). Precondition (not checked): columns.times
  /// sorted ascending. Computes each day's α inputs with the class windows
  /// clipped to the columns' [begin, end) and folds them in day order.
  TimeNormalizer(telemetry::SampleColumns columns, const AutoSensOptions& options);

  /// The same, bit for bit, for columns whose s-th non-empty day holds the
  /// rows of table entry days.drawn[s], shifted by whole days: a day-block
  /// resample of the table's parent, or the parent itself with drawn[s] = s.
  /// The days between the first and last fold the table's inputs; only
  /// those two, clipped at the data's ends, are computed from `columns`.
  /// Throws std::invalid_argument when the draw's length is not the
  /// columns' day count or the table's slot width differs, and
  /// std::out_of_range when it names a day outside the table.
  TimeNormalizer(DrawnDays days, telemetry::SampleColumns columns,
                 const AutoSensOptions& options);

  /// One entry per time-of-day class (even classes without records).
  const std::vector<SlotStat>& slots() const noexcept { return slots_; }

  /// α of the time-of-day class containing `time_ms`.
  double alpha_at(std::int64_t time_ms) const noexcept;

  /// The α-normalized biased histogram: each record weighted 1/α of its
  /// slot, in the analysis bin width (options.bin_width_ms).
  stats::Histogram normalized_biased(telemetry::SampleColumns columns) const;

 private:
  /// Both public column constructors: α from the rows, or from `draw`.
  TimeNormalizer(telemetry::SampleColumns columns, const AutoSensOptions& options,
                 const DrawnDays* draw);

  AutoSensOptions options_;
  std::vector<SlotStat> slots_;
};

/// Time-of-day classes of successive times for `slot_ms`-wide slots
/// (slot_ms divides a day): the class of t is ((t mod day) + day) mod day /
/// slot_ms. Remembers the last row's slot, so a time in the same or the next
/// slot — every row but a slot's first, or a gap's, in sorted input — costs
/// a compare instead of a 64-bit division; any other time falls back to the
/// division. Same classes for any input order.
class TimeOfDayCursor {
 public:
  explicit TimeOfDayCursor(std::int64_t slot_ms) noexcept
      : slot_ms_(slot_ms),
        classes_(static_cast<std::size_t>(telemetry::kMillisPerDay / slot_ms)),
        begin_(-slot_ms),
        class_(classes_ - 1) {}

  std::size_t operator()(std::int64_t time_ms) noexcept {
    if (time_ms >= begin_ && time_ms < end_) return class_;
    if (time_ms >= end_ && time_ms < end_ + slot_ms_) {
      begin_ = end_;
      end_ += slot_ms_;
      class_ = class_ + 1 == classes_ ? 0 : class_ + 1;
      return class_;
    }
    const std::int64_t time_of_day =
        (time_ms % telemetry::kMillisPerDay + telemetry::kMillisPerDay) %
        telemetry::kMillisPerDay;
    class_ = static_cast<std::size_t>(time_of_day / slot_ms_);
    begin_ = time_ms - time_of_day % slot_ms_;
    end_ = begin_ + slot_ms_;
    return class_;
  }

 private:
  std::int64_t slot_ms_;
  std::size_t classes_;
  // The last slot seen, [begin_, end_), and its class; [-slot_ms, 0) before
  // the first call.
  std::int64_t begin_;
  std::int64_t end_ = 0;
  std::size_t class_;
};

/// α per 6-hour day period as a function of latency (paper Fig 8), with the
/// 8am–2pm period as reference. Also reports the per-period average α used
/// for normalization, supporting the paper's finding that α is flat across
/// latency bins.
struct PeriodAlpha {
  telemetry::DayPeriod period = telemetry::DayPeriod::kMorning;
  std::vector<double> latency_ms;   ///< α-bin centers.
  std::vector<double> alpha;        ///< α per bin (0 where invalid).
  std::vector<char> valid;
  double mean_alpha = 0.0;          ///< Average over valid bins.
  std::size_t records = 0;
};

std::array<PeriodAlpha, telemetry::kDayPeriodCount> alpha_by_period(
    const telemetry::Dataset& dataset, const AutoSensOptions& options,
    telemetry::DayPeriod reference = telemetry::DayPeriod::kMorning);

/// The daily windows of one 6-hour period across the data range (used for
/// period slicing and the per-period unbiased distributions).
std::vector<TimeWindow> period_windows(const telemetry::Dataset& dataset,
                                       telemetry::DayPeriod period);

/// The paper's Table 1 worked example: two slots ("day", "night") × two
/// latency bins ("low", "high"). Inputs are the action counts and the
/// fraction of slot time at each latency; outputs reproduce every number in
/// the table.
struct TwoSlotExample {
  double alpha_low = 0.0;        ///< α_{night,low}   (paper: 0.108).
  double alpha_high = 0.0;       ///< α_{night,high}  (paper: 0.100).
  double alpha = 0.0;            ///< α_night         (paper: 0.104).
  double normalized_low = 0.0;   ///< Night low count after 1/α (paper: 250).
  double normalized_high = 0.0;  ///< Night high count after 1/α (paper: 38).
  double activity_low = 0.0;     ///< Pooled rate at low latency (paper: 3.09).
  double activity_high = 0.0;    ///< Pooled rate at high latency (paper: 1.97).
  double naive_low = 0.0;        ///< Un-normalized pooled rate (paper: 1.04).
  double naive_high = 0.0;       ///< Un-normalized pooled rate (paper: 1.6).
};

TwoSlotExample normalize_two_slot_example(double day_count_low, double day_count_high,
                                          double day_frac_low, double day_frac_high,
                                          double night_count_low, double night_count_high,
                                          double night_frac_low, double night_frac_high);

}  // namespace autosens::core
