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

struct DrawnDays;

/// The per-day tables of a day-block bootstrap's parent (DESIGN §6b), one
/// entry per non-empty day — the unit a resample draws:
///  - α's inputs (DayAlphaInputs), each class window whole, not clipped at
///    the parent's first or last row (only when
///    options.normalize_time_confounder);
///  - B's counts per time-of-day class at the analysis bin width;
///  - U's interior partial (unbiased_interior).
/// A whole-day shift keeps every row's class and every cell inside a day
/// (cell edges are exact half-integer milliseconds), so a resample's days
/// have exactly these entries; only the first and last equal-time run of
/// each drawn day, and α's inputs of the first and last drawn day, depend on
/// the draw. The table borrows `parent`, which must outlive it unmodified.
/// Built per analyze_with_confidence call; nothing keeps it beyond that.
class DayTable {
 public:
  /// `parent` sorted (not checked) and non-empty; options.alpha_slot_ms must
  /// divide a day (std::invalid_argument otherwise).
  DayTable(telemetry::SampleColumns parent, const AutoSensOptions& options);

  std::size_t size() const noexcept { return days_.size(); }
  /// The parent's non-empty days: entry i describes days()[i].
  std::span<const DayRange> days() const noexcept { return days_; }
  /// Rows of the drawn days (throws std::out_of_range for a day outside).
  std::size_t rows(std::span<const std::size_t> drawn) const;
  /// Heap bytes the entries hold.
  std::size_t bytes() const noexcept;

 private:
  friend class TimeNormalizer;
  friend stats::Histogram biased_histogram(DrawnDays days, const AutoSensOptions& options);
  friend stats::Histogram unbiased_histogram(DrawnDays days, const AutoSensOptions& options);

  /// Where a draw puts each table day: its entry and its time shift.
  struct Placed {
    std::size_t entry = 0;
    std::int64_t shift = 0;
  };
  std::vector<Placed> place(const DrawnDays& days) const;
  /// The placed rows' own [begin, end) window.
  TimeWindow window(std::span<const Placed> placed) const;
  /// B's per-class counts of the placed days, classes × bins.
  std::vector<double> class_counts(std::span<const Placed> placed) const;
  /// Throws std::invalid_argument unless `options` has the table's geometry.
  void check(const AutoSensOptions& options) const;

  telemetry::SampleColumns parent_;
  AutoSensOptions options_;
  std::size_t classes_ = 0;
  std::size_t bins_ = 0;
  std::vector<DayRange> days_;
  std::vector<DayAlphaInputs> alpha_;        ///< Empty unless α is normalized.
  std::vector<std::uint32_t> class_counts_;  ///< days × classes × bins.
  std::vector<stats::Histogram> interior_;
};

/// A resample of a DayTable's parent described by its draw: slot s holds the
/// rows of table day drawn[s]. By default slot s lands on day s, keeping
/// time-of-day (what day_block_resample builds); with own_dates every slot
/// keeps its table day's date, so `drawn` must be strictly increasing — a
/// selection of the parent's days, the parent itself when every day is
/// drawn.
struct DrawnDays {
  const DayTable& table;
  std::span<const std::size_t> drawn;
  bool own_dates = false;
};

/// B of the drawn rows with unit weights (no α normalization), folded from
/// the table: bit-identical to biased_histogram over those rows. Throws
/// like TimeNormalizer(DrawnDays, ...).
stats::Histogram biased_histogram(DrawnDays days, const AutoSensOptions& options);

/// The Voronoi U of the drawn rows over their own [begin, end) window,
/// folded from the table: the interior partials of the drawn days plus the
/// cells of each slot's boundary runs, read from the parent's rows.
/// Bit-identical to unbiased_histogram over those rows with
/// UnbiasedMethod::kVoronoi. Throws like TimeNormalizer(DrawnDays, ...).
stats::Histogram unbiased_histogram(DrawnDays days, const AutoSensOptions& options);

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

  /// The same, bit for bit, for the drawn rows: the slots between the first
  /// and last fold the table's inputs; only those two, clipped at the
  /// draw's ends, are computed, from the parent's rows. Throws
  /// std::invalid_argument for an empty draw, own dates out of order, a
  /// table built without α or with other bin or slot widths, and
  /// std::out_of_range for a day outside the table.
  TimeNormalizer(DrawnDays days, const AutoSensOptions& options);

  /// One entry per time-of-day class (even classes without records).
  const std::vector<SlotStat>& slots() const noexcept { return slots_; }

  /// α of the time-of-day class containing `time_ms`.
  double alpha_at(std::int64_t time_ms) const noexcept;

  /// The α-normalized biased histogram at the analysis bin width
  /// (options.bin_width_ms): B = Σ_c (1/α_c)·N_c, summed in class order,
  /// where N_c counts the rows of time-of-day class c per bin.
  stats::Histogram normalized_biased(telemetry::SampleColumns columns) const;

  /// The same, bit for bit, for the drawn rows, N_c folded from the table.
  stats::Histogram normalized_biased(DrawnDays days) const;

 private:
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
