#include "core/confounder_time.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/biased.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "obs/trace.h"

namespace autosens::core {
namespace {

/// Guards for per-bin temporal rates inside α estimation.
constexpr double kMinTimeFraction = 1e-3;   ///< f_T(L) below this is unusable.
constexpr double kMinReferenceCount = 10.0; ///< Reference bins need real mass.
constexpr double kAlphaFloor = 0.02;        ///< Clamp so 1/α cannot explode.

struct SlotData {
  stats::Histogram counts;     ///< c_T per α-bin, pooled across days.
  stats::Histogram fractions;  ///< Unbiased mass per α-bin (time-weighted).
  std::size_t records = 0;
  double total_time = 0.0;     ///< Milliseconds of data in this class.
};

/// Mean of rate_s / rate_r over latency bins where both are defined.
/// Rates are per unit time: c(L) / (f(L) * total_time).
/// Returns NaN if no bin qualifies.
double pair_alpha(const SlotData& slot, const SlotData& reference) {
  const double slot_mass = slot.fractions.total_weight();
  const double ref_mass = reference.fractions.total_weight();
  if (slot_mass <= 0.0 || ref_mass <= 0.0 || slot.total_time <= 0.0 ||
      reference.total_time <= 0.0) {
    return std::nan("");
  }
  double sum = 0.0;
  std::size_t bins = 0;
  for (std::size_t i = 0; i < slot.counts.size(); ++i) {
    const double f_s = slot.fractions.count(i) / slot_mass;
    const double f_r = reference.fractions.count(i) / ref_mass;
    const double c_r = reference.counts.count(i);
    if (f_s < kMinTimeFraction || f_r < kMinTimeFraction || c_r < kMinReferenceCount) {
      continue;
    }
    const double rate_s = slot.counts.count(i) / (f_s * slot.total_time);
    const double rate_r = c_r / (f_r * reference.total_time);
    sum += rate_s / rate_r;
    ++bins;
  }
  return bins > 0 ? sum / static_cast<double>(bins) : std::nan("");
}

/// Milliseconds of [begin, end) in time-of-day class `slot`: the lengths of
/// its daily windows clipped to [begin, end), summed in day order.
double class_time(int slot, std::int64_t slot_ms, std::int64_t begin, std::int64_t end) {
  double total = 0.0;
  for (std::int64_t day = telemetry::day_index(begin);
       day * telemetry::kMillisPerDay < end; ++day) {
    const std::int64_t from =
        std::max(day * telemetry::kMillisPerDay + slot * slot_ms, begin);
    const std::int64_t to =
        std::min(day * telemetry::kMillisPerDay + (slot + 1) * slot_ms, end);
    if (to > from) total += static_cast<double>(to - from);
  }
  return total;
}

/// Number of time-of-day classes; throws unless options.alpha_slot_ms
/// divides a day.
std::size_t slot_classes(const AutoSensOptions& options) {
  if (options.alpha_slot_ms <= 0 ||
      telemetry::kMillisPerDay % options.alpha_slot_ms != 0) {
    throw std::invalid_argument("TimeNormalizer: alpha_slot_ms must evenly divide a day");
  }
  return static_cast<std::size_t>(telemetry::kMillisPerDay / options.alpha_slot_ms);
}

/// Row offsets of each time-of-day class's run within `times`, the sorted
/// rows of calendar day `day`: class k holds [bounds[k], bounds[k + 1]),
/// found by binary search.
std::vector<std::size_t> class_bounds(std::span<const std::int64_t> times, std::int64_t day,
                                      std::int64_t slot_ms, std::size_t classes) {
  std::vector<std::size_t> bounds(classes + 1, 0);
  for (std::size_t k = 0; k < classes; ++k) {
    const std::int64_t slot_end =
        day * telemetry::kMillisPerDay + static_cast<std::int64_t>(k + 1) * slot_ms;
    bounds[k + 1] = static_cast<std::size_t>(
        std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(bounds[k]), times.end(),
                         slot_end) -
        times.begin());
  }
  return bounds;
}

/// The α inputs of `rows` (sorted, all on calendar day `day`), each class
/// window clipped to [clip_begin, clip_end), which holds every row.
DayAlphaInputs day_alpha_inputs(telemetry::SampleColumns rows, std::int64_t day,
                                std::int64_t clip_begin, std::int64_t clip_end,
                                const AutoSensOptions& options) {
  const std::size_t classes = slot_classes(options);
  const std::int64_t slot_ms = options.alpha_slot_ms;
  const auto histogram = [&] {
    return stats::Histogram::covering(0.0, options.max_latency_ms,
                                      options.alpha_bin_width_ms);
  };
  const auto bounds = class_bounds(rows.times, day, slot_ms, classes);
  DayAlphaInputs inputs;
  inputs.counts.reserve(classes);
  inputs.fractions.reserve(classes);
  inputs.records.reserve(classes);
  for (std::size_t k = 0; k < classes; ++k) {
    const std::int64_t slot_begin =
        day * telemetry::kMillisPerDay + static_cast<std::int64_t>(k) * slot_ms;
    const std::size_t first = bounds[k];
    const std::size_t last = bounds[k + 1];
    auto counts = histogram();
    auto fractions = histogram();
    if (last > first) {
      const auto latencies = rows.latencies.subspan(first, last - first);
      counts.add_all(latencies);
      add_window_unbiased(fractions, rows.times.subspan(first, last - first), latencies,
                          {.begin_ms = std::max(slot_begin, clip_begin),
                           .end_ms = std::min(slot_begin + slot_ms, clip_end)});
    }
    inputs.counts.push_back(std::move(counts));
    inputs.fractions.push_back(std::move(fractions));
    inputs.records.push_back(last - first);
  }
  return inputs;
}

/// Adds N_c of `rows` (sorted, all on calendar day `day`) into `counts`,
/// classes × analysis bins: the unit fill of each class's run of rows,
/// integer-valued and so exact in any order.
void add_class_counts(telemetry::SampleColumns rows, std::int64_t day,
                      const AutoSensOptions& options, std::span<double> counts) {
  const std::size_t classes = slot_classes(options);
  const std::size_t bins = counts.size() / classes;
  const auto bounds = class_bounds(rows.times, day, options.alpha_slot_ms, classes);
  for (std::size_t k = 0; k < classes; ++k) {
    simd::histogram_fill(rows.latencies.subspan(bounds[k], bounds[k + 1] - bounds[k]), 0.0,
                         options.bin_width_ms, counts.subspan(k * bins, bins));
  }
}

/// B = Σ_c w_c·N_c summed in class order, with w_c = 1/α_c of `slots`, or 1
/// when `slots` is empty; `counts` holds N_c, classes × bins.
stats::Histogram combine_classes(std::span<const double> counts,
                                 std::span<const SlotStat> slots,
                                 const AutoSensOptions& options) {
  auto histogram = make_latency_histogram(options);
  const std::size_t bins = histogram.size();
  std::vector<double> sums(bins, 0.0);
  for (std::size_t k = 0; (k + 1) * bins <= counts.size(); ++k) {
    const double weight = slots.empty() ? 1.0 : 1.0 / slots[k].alpha;
    for (std::size_t i = 0; i < bins; ++i) sums[i] += weight * counts[k * bins + i];
  }
  for (std::size_t i = 0; i < bins; ++i) histogram.set_count(i, sums[i]);
  return histogram;
}

/// The rows of one day range.
telemetry::SampleColumns day_rows(telemetry::SampleColumns columns, std::size_t first,
                                  std::size_t last) {
  return {columns.times.subspan(first, last - first),
          columns.latencies.subspan(first, last - first)};
}

/// The one α-from-inputs body: folds `days` (one entry per non-empty day,
/// in day order) per class, adds the window-length sum over [begin, end),
/// then estimates each class's α against the busiest reference classes.
std::vector<SlotStat> estimate_slots(std::span<const DayAlphaInputs* const> days,
                                     std::int64_t begin, std::int64_t end,
                                     const AutoSensOptions& options) {
  const std::size_t classes = slot_classes(options);
  // Per-class counts and unbiased time fractions, pooled across days: each
  // day's entry folds in day order (the window order of the class), the
  // counts being integers and the fractions one merge per window.
  std::vector<SlotData> data;
  data.reserve(classes);
  for (std::size_t k = 0; k < classes; ++k) {
    SlotData sd{.counts = stats::Histogram::covering(0.0, options.max_latency_ms,
                                                     options.alpha_bin_width_ms),
                .fractions = stats::Histogram::covering(0.0, options.max_latency_ms,
                                                        options.alpha_bin_width_ms),
                .records = 0,
                .total_time = class_time(static_cast<int>(k), options.alpha_slot_ms,
                                         begin, end)};
    for (const DayAlphaInputs* day : days) {
      if (day->records[k] == 0) continue;  // Zero entries: adding them is a no-op.
      sd.counts.merge(day->counts[k]);
      sd.fractions.merge(day->fractions[k]);
      sd.records += day->records[k];
    }
    data.push_back(std::move(sd));
  }

  // Reference slots: the busiest classes with enough data (the paper picks
  // multiple references in turn and averages).
  std::vector<std::size_t> order(data.size());
  for (std::size_t k = 0; k < data.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return data[a].records > data[b].records;
  });
  std::vector<std::size_t> references;
  for (const std::size_t idx : order) {
    if (references.size() >= options.alpha_reference_slots) break;
    if (data[idx].records >= options.alpha_min_slot_records) references.push_back(idx);
  }
  if (references.empty()) references.push_back(order.front());

  // Mean reference temporal rate, for the fallback α of sparse classes.
  double reference_rate = 0.0;
  for (const std::size_t r : references) {
    reference_rate += data[r].total_time > 0.0
                          ? static_cast<double>(data[r].records) / data[r].total_time
                          : 0.0;
  }
  reference_rate /= static_cast<double>(references.size());

  std::vector<SlotStat> slots;
  slots.reserve(data.size());
  for (std::size_t k = 0; k < classes; ++k) {
    const auto& sd = data[k];
    SlotStat stat{.slot = static_cast<int>(k),
                  .records = sd.records,
                  .total_time_ms = sd.total_time,
                  .alpha = 1.0,
                  .alpha_from_fallback = false};
    double sum = 0.0;
    std::size_t used = 0;
    for (const std::size_t r : references) {
      const double a = pair_alpha(sd, data[r]);
      if (std::isfinite(a) && a > 0.0) {
        sum += a;
        ++used;
      }
    }
    if (used > 0) {
      stat.alpha = std::max(sum / static_cast<double>(used), kAlphaFloor);
    } else {
      // Sparse class: fall back to the overall temporal rate ratio.
      const double rate =
          sd.total_time > 0.0 ? static_cast<double>(sd.records) / sd.total_time : 0.0;
      stat.alpha = std::max(rate / reference_rate, kAlphaFloor);
      stat.alpha_from_fallback = true;
    }
    slots.push_back(stat);
  }
  return slots;
}

}  // namespace

std::vector<DayRange> day_ranges(std::span<const std::int64_t> times) {
  const std::int64_t first_day = telemetry::day_index(times.front());
  const std::int64_t last_day = telemetry::day_index(times.back());
  std::vector<DayRange> days;
  days.reserve(static_cast<std::size_t>(last_day - first_day) + 1);
  std::size_t cursor = 0;
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    const auto it = std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(cursor),
                                     times.end(), (day + 1) * telemetry::kMillisPerDay);
    const auto next = static_cast<std::size_t>(it - times.begin());
    if (next > cursor) days.push_back({day, cursor, next});
    cursor = next;
  }
  return days;
}

DayTable::DayTable(telemetry::SampleColumns parent, const AutoSensOptions& options)
    : parent_(parent), options_(options) {
  obs::Span span("day_table");
  if (parent.empty()) throw std::invalid_argument("DayTable: empty dataset");
  classes_ = slot_classes(options);  // Throws on a slot width that does not divide a day.
  const auto geometry = make_latency_histogram(options);
  bins_ = geometry.size();
  days_ = day_ranges(parent.times);
  if (options.normalize_time_confounder) alpha_.resize(days_.size());
  class_counts_.resize(days_.size() * classes_ * bins_);
  interior_.assign(days_.size(), geometry);
  const TimeWindow window{.begin_ms = parent.begin_time(), .end_ms = parent.end_time()};
  parallel_for_items(days_.size(), options.threads, [&](std::size_t i) {
    const DayRange& range = days_[i];
    const auto rows = day_rows(parent, range.first, range.last);
    if (!alpha_.empty()) {
      // The whole day: its class windows are not clipped to the parent's ends.
      const std::int64_t day_begin = range.day * telemetry::kMillisPerDay;
      alpha_[i] = day_alpha_inputs(rows, range.day, day_begin,
                                   day_begin + telemetry::kMillisPerDay, options);
    }
    std::vector<double> counts(classes_ * bins_, 0.0);
    add_class_counts(rows, range.day, options, counts);
    std::transform(counts.begin(), counts.end(),
                   class_counts_.begin() + static_cast<std::ptrdiff_t>(i * counts.size()),
                   [](double count) { return static_cast<std::uint32_t>(count); });
    interior_[i] = unbiased_interior(rows, window, options);
  });
  span.attr("days", static_cast<std::int64_t>(days_.size()));
  span.attr("classes", static_cast<std::int64_t>(classes_));
  span.attr("bytes", static_cast<std::int64_t>(bytes()));
}

std::size_t DayTable::rows(std::span<const std::size_t> drawn) const {
  std::size_t total = 0;
  for (const std::size_t entry : drawn) total += days_.at(entry).last - days_.at(entry).first;
  return total;
}

std::size_t DayTable::bytes() const noexcept {
  std::size_t total = class_counts_.size() * sizeof(std::uint32_t) +
                      interior_.size() * bins_ * sizeof(double) +
                      days_.size() * sizeof(DayRange);
  for (const auto& day : alpha_) {
    for (std::size_t k = 0; k < day.counts.size(); ++k) {
      total += (day.counts[k].size() + day.fractions[k].size()) * sizeof(double) +
               sizeof(std::size_t);
    }
  }
  return total;
}

std::vector<DayTable::Placed> DayTable::place(const DrawnDays& days) const {
  if (days.drawn.empty()) throw std::invalid_argument("DayTable: empty draw");
  std::vector<Placed> placed;
  placed.reserve(days.drawn.size());
  for (std::size_t s = 0; s < days.drawn.size(); ++s) {
    const std::size_t entry = days.drawn[s];
    const DayRange& range = days_.at(entry);
    if (days.own_dates && s > 0 && entry <= days.drawn[s - 1]) {
      throw std::invalid_argument("DayTable: days keeping their dates must increase");
    }
    placed.push_back(
        {.entry = entry,
         .shift = days.own_dates
                      ? 0
                      : (static_cast<std::int64_t>(s) - range.day) * telemetry::kMillisPerDay});
  }
  return placed;
}

TimeWindow DayTable::window(std::span<const Placed> placed) const {
  return {.begin_ms = parent_.times[days_[placed.front().entry].first] + placed.front().shift,
          .end_ms = parent_.times[days_[placed.back().entry].last - 1] + placed.back().shift + 1};
}

std::vector<double> DayTable::class_counts(std::span<const Placed> placed) const {
  const std::size_t size = classes_ * bins_;
  std::vector<std::uint64_t> sums(size, 0);
  for (const Placed& p : placed) {
    const std::uint32_t* day = class_counts_.data() + p.entry * size;
    for (std::size_t i = 0; i < size; ++i) sums[i] += day[i];
  }
  return {sums.begin(), sums.end()};
}

void DayTable::check(const AutoSensOptions& options) const {
  if (options.alpha_slot_ms != options_.alpha_slot_ms ||
      options.bin_width_ms != options_.bin_width_ms ||
      options.alpha_bin_width_ms != options_.alpha_bin_width_ms ||
      options.max_latency_ms != options_.max_latency_ms) {
    throw std::invalid_argument("DayTable: options differ from the table's bin or slot widths");
  }
}

stats::Histogram biased_histogram(DrawnDays days, const AutoSensOptions& options) {
  days.table.check(options);
  return combine_classes(days.table.class_counts(days.table.place(days)), {}, options);
}

stats::Histogram unbiased_histogram(DrawnDays days, const AutoSensOptions& options) {
  const DayTable& table = days.table;
  table.check(options);
  const auto placed = table.place(days);
  std::vector<VoronoiDay> voronoi;
  voronoi.reserve(placed.size());
  for (const auto& p : placed) {
    const DayRange& range = table.days_[p.entry];
    voronoi.push_back({.rows = day_rows(table.parent_, range.first, range.last),
                       .shift = p.shift,
                       .interior = &table.interior_[p.entry]});
  }
  // As unbiased_histogram_voronoi: the cell sums, then one scale.
  const TimeWindow window = table.window(placed);
  auto histogram = unbiased_cell_sums(voronoi, window, options);
  histogram.scale(1.0 / static_cast<double>(window.length()));
  return histogram;
}

TimeNormalizer::TimeNormalizer(const telemetry::Dataset& dataset,
                               const AutoSensOptions& options)
    : TimeNormalizer(
          [&] {
            if (!dataset.empty() && !dataset.is_sorted()) {
              throw std::invalid_argument("TimeNormalizer: dataset not sorted");
            }
            return dataset.columns();
          }(),
          options) {}

TimeNormalizer::TimeNormalizer(telemetry::SampleColumns columns,
                               const AutoSensOptions& options)
    : options_(options) {
  obs::Span span("alpha_estimate");
  span.attr("records", static_cast<std::int64_t>(columns.size()));
  if (columns.empty()) throw std::invalid_argument("TimeNormalizer: empty dataset");
  slot_classes(options_);  // Throws on a slot width that does not divide a day.
  const std::int64_t begin = columns.begin_time();
  const std::int64_t end = columns.end_time();
  const auto days = day_ranges(columns.times);
  std::vector<DayAlphaInputs> computed(days.size());
  parallel_for_items(days.size(), options_.threads, [&](std::size_t i) {
    computed[i] = day_alpha_inputs(day_rows(columns, days[i].first, days[i].last),
                                   days[i].day, begin, end, options_);
  });
  std::vector<const DayAlphaInputs*> sequence(days.size());
  for (std::size_t i = 0; i < days.size(); ++i) sequence[i] = &computed[i];
  slots_ = estimate_slots(sequence, begin, end, options_);
}

TimeNormalizer::TimeNormalizer(DrawnDays days, const AutoSensOptions& options)
    : options_(options) {
  obs::Span span("alpha_estimate");
  const DayTable& table = days.table;
  table.check(options_);
  if (table.alpha_.empty()) {
    throw std::invalid_argument("TimeNormalizer: the day table holds no α inputs");
  }
  const auto placed = table.place(days);
  const TimeWindow window = table.window(placed);
  span.attr("records", static_cast<std::int64_t>(table.rows(days.drawn)));
  // The first and last slot, clipped at the draw's ends, from the parent's
  // rows in the parent's dates; a whole-day shift keeps their inputs.
  const auto clipped = [&](const DayTable::Placed& p) {
    const DayRange& range = table.days_[p.entry];
    return day_alpha_inputs(day_rows(table.parent_, range.first, range.last), range.day,
                            window.begin_ms - p.shift, window.end_ms - p.shift, options_);
  };
  const DayAlphaInputs first = clipped(placed.front());
  const DayAlphaInputs last = placed.size() > 1 ? clipped(placed.back()) : DayAlphaInputs{};
  std::vector<const DayAlphaInputs*> sequence(placed.size());
  for (std::size_t s = 0; s < placed.size(); ++s) {
    sequence[s] = s == 0                   ? &first
                  : s + 1 == placed.size() ? &last
                                           : &table.alpha_[placed[s].entry];
  }
  slots_ = estimate_slots(sequence, window.begin_ms, window.end_ms, options_);
}

double TimeNormalizer::alpha_at(std::int64_t time_ms) const noexcept {
  const auto k = TimeOfDayCursor(options_.alpha_slot_ms)(time_ms);
  return k < slots_.size() ? slots_[k].alpha : 1.0;
}

stats::Histogram TimeNormalizer::normalized_biased(telemetry::SampleColumns columns) const {
  std::vector<double> counts(slots_.size() * make_latency_histogram(options_).size(), 0.0);
  if (!columns.empty()) {
    for (const auto& day : day_ranges(columns.times)) {
      add_class_counts(day_rows(columns, day.first, day.last), day.day, options_, counts);
    }
  }
  return combine_classes(counts, slots_, options_);
}

stats::Histogram TimeNormalizer::normalized_biased(DrawnDays days) const {
  days.table.check(options_);
  return combine_classes(days.table.class_counts(days.table.place(days)), slots_, options_);
}

std::vector<TimeWindow> period_windows(const telemetry::Dataset& dataset,
                                       telemetry::DayPeriod period) {
  // Hour offsets of each period within a day; evening wraps past midnight.
  constexpr std::array<std::pair<int, int>, telemetry::kDayPeriodCount> kHours = {
      {{8, 14}, {14, 20}, {20, 26}, {2, 8}}};
  const auto [from, to] = kHours[static_cast<std::size_t>(period)];
  const std::int64_t begin = dataset.begin_time();
  const std::int64_t end = dataset.end_time();
  std::vector<TimeWindow> windows;
  for (std::int64_t day = telemetry::day_index(begin) - 1;
       day * telemetry::kMillisPerDay < end; ++day) {
    TimeWindow w{.begin_ms = day * telemetry::kMillisPerDay + from * telemetry::kMillisPerHour,
                 .end_ms = day * telemetry::kMillisPerDay + to * telemetry::kMillisPerHour};
    w.begin_ms = std::max(w.begin_ms, begin);
    w.end_ms = std::min(w.end_ms, end);
    if (w.end_ms > w.begin_ms) windows.push_back(w);
  }
  return windows;
}

std::array<PeriodAlpha, telemetry::kDayPeriodCount> alpha_by_period(
    const telemetry::Dataset& dataset, const AutoSensOptions& options,
    telemetry::DayPeriod reference) {
  if (dataset.empty()) throw std::invalid_argument("alpha_by_period: empty dataset");
  if (!dataset.is_sorted()) throw std::invalid_argument("alpha_by_period: dataset not sorted");
  const auto times = dataset.times();
  const auto latencies = dataset.latencies();

  std::vector<SlotData> data;
  data.reserve(telemetry::kDayPeriodCount);
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    data.push_back(SlotData{.counts = stats::Histogram::covering(0.0, options.max_latency_ms,
                                                                 options.alpha_bin_width_ms),
                            .fractions = stats::Histogram::covering(
                                0.0, options.max_latency_ms, options.alpha_bin_width_ms),
                            .records = 0,
                            .total_time = 0.0});
  }
  parallel_for_items(telemetry::kDayPeriodCount, options.threads, [&](std::size_t p) {
    const auto windows = period_windows(dataset, static_cast<telemetry::DayPeriod>(p));
    data[p].fractions = unbiased_histogram_over_windows_sorted(
        times, latencies, windows, options.alpha_bin_width_ms, options.max_latency_ms);
    // The four periods' windows tile [begin, end), so a period's records are
    // the contiguous runs of rows inside its windows.
    for (const auto& w : windows) {
      data[p].total_time += static_cast<double>(w.length());
      const auto first = std::lower_bound(times.begin(), times.end(), w.begin_ms);
      const auto last = std::lower_bound(first, times.end(), w.end_ms);
      const auto count = static_cast<std::size_t>(last - first);
      data[p].counts.add_all(
          latencies.subspan(static_cast<std::size_t>(first - times.begin()), count));
      data[p].records += count;
    }
  });

  const auto& ref = data[static_cast<std::size_t>(reference)];
  const double ref_mass = ref.fractions.total_weight();
  std::array<PeriodAlpha, telemetry::kDayPeriodCount> out;
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    auto& pa = out[static_cast<std::size_t>(p)];
    const auto& pd = data[static_cast<std::size_t>(p)];
    pa.period = static_cast<telemetry::DayPeriod>(p);
    pa.records = pd.records;
    const std::size_t bins = pd.counts.size();
    pa.latency_ms.resize(bins);
    pa.alpha.assign(bins, 0.0);
    pa.valid.assign(bins, 0);
    const double period_mass = pd.fractions.total_weight();
    double sum = 0.0;
    std::size_t used = 0;
    for (std::size_t i = 0; i < bins; ++i) {
      pa.latency_ms[i] = pd.counts.bin_center(i);
      if (period_mass <= 0.0 || ref_mass <= 0.0) continue;
      const double f_p = pd.fractions.count(i) / period_mass;
      const double f_r = ref.fractions.count(i) / ref_mass;
      const double c_r = ref.counts.count(i);
      if (f_p < kMinTimeFraction || f_r < kMinTimeFraction || c_r < kMinReferenceCount) {
        continue;
      }
      const double rate_p = pd.counts.count(i) / (f_p * pd.total_time);
      const double rate_r = c_r / (f_r * ref.total_time);
      pa.alpha[i] = rate_p / rate_r;
      pa.valid[i] = 1;
      sum += pa.alpha[i];
      ++used;
    }
    pa.mean_alpha = used > 0 ? sum / static_cast<double>(used) : 0.0;
  }
  return out;
}

TwoSlotExample normalize_two_slot_example(double day_count_low, double day_count_high,
                                          double day_frac_low, double day_frac_high,
                                          double night_count_low, double night_count_high,
                                          double night_frac_low, double night_frac_high) {
  TwoSlotExample out;
  // Naive pooling (what ignoring the confounder would conclude).
  out.naive_low = (day_count_low + night_count_low) / (day_frac_low + night_frac_low);
  out.naive_high = (day_count_high + night_count_high) / (day_frac_high + night_frac_high);
  // α per latency bin with "day" as reference, then averaged (§2.4.1).
  out.alpha_low = (night_count_low / night_frac_low) / (day_count_low / day_frac_low);
  out.alpha_high = (night_count_high / night_frac_high) / (day_count_high / day_frac_high);
  out.alpha = 0.5 * (out.alpha_low + out.alpha_high);
  // Normalized night counts and the pooled activity estimate.
  out.normalized_low = night_count_low / out.alpha;
  out.normalized_high = night_count_high / out.alpha;
  out.activity_low = (day_count_low + out.normalized_low) / (day_frac_low + night_frac_low);
  out.activity_high =
      (day_count_high + out.normalized_high) / (day_frac_high + night_frac_high);
  return out;
}

}  // namespace autosens::core
