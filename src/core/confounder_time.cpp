#include "core/confounder_time.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/biased.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "obs/trace.h"
#include "stats/sampling.h"
#include "stats/scratch.h"

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

/// Daily windows of time-of-day class `slot` clipped to [begin, end).
std::vector<TimeWindow> class_windows(int slot, std::int64_t slot_ms, std::int64_t begin,
                                      std::int64_t end) {
  std::vector<TimeWindow> windows;
  for (std::int64_t day = telemetry::day_index(begin);
       day * telemetry::kMillisPerDay < end; ++day) {
    TimeWindow w{.begin_ms = day * telemetry::kMillisPerDay + slot * slot_ms,
                 .end_ms = day * telemetry::kMillisPerDay + (slot + 1) * slot_ms};
    w.begin_ms = std::max(w.begin_ms, begin);
    w.end_ms = std::min(w.end_ms, end);
    if (w.end_ms > w.begin_ms) windows.push_back(w);
  }
  return windows;
}

/// One pass over the columns, classifying each record's time into
/// `class_count` groups via `classify` and accumulating per-group α-bin
/// counts + record totals. The per-chunk partials merge in chunk order
/// (counts are unit weights, so the sums are exact regardless, but the fixed
/// order keeps the guarantee uniform across the codebase). Templated on the
/// classifier so the per-record call inlines instead of going through a
/// std::function dispatch.
struct ClassCounts {
  std::vector<stats::Histogram> counts;
  std::vector<std::size_t> records;
};

template <typename ClassifyFn>
ClassCounts classify_records(telemetry::SampleColumns columns, std::size_t class_count,
                             const AutoSensOptions& options, const ClassifyFn& classify) {
  const auto times = columns.times;
  const auto latencies = columns.latencies;
  const auto make_partial = [&] {
    ClassCounts partial;
    partial.counts.reserve(class_count);
    for (std::size_t k = 0; k < class_count; ++k) {
      partial.counts.push_back(
          stats::Histogram::covering(0.0, options.max_latency_ms,
                                     options.alpha_bin_width_ms,
                                     stats::ScratchPool<double>::take()));
    }
    partial.records.assign(class_count, 0);
    return partial;
  };
  // One α-bin geometry shared by every class histogram, so the latency bin
  // indices can be batch-computed once per block (fused classify+fill: each
  // column element is touched exactly once on its way into a class).
  constexpr std::size_t kClassifyBlock = 1024;
  return parallel_map_reduce<ClassCounts>(
      times.size(), options.threads, kRecordChunk,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        auto partial = make_partial();
        const auto& geometry = partial.counts.front();
        const double lo = geometry.lo();
        const double width = geometry.bin_width();
        const std::size_t bins = geometry.size();
        std::array<std::uint32_t, kClassifyBlock> bin;
        for (std::size_t offset = begin; offset < end; offset += kClassifyBlock) {
          const std::size_t m = std::min(kClassifyBlock, end - offset);
          simd::bin_indices(latencies.subspan(offset, m), lo, width, bins,
                            std::span<std::uint32_t>(bin.data(), m));
          // Class assignment + adds replay in element order, exactly like the
          // unfused loop, so the chunk-order determinism guarantee holds.
          for (std::size_t i = 0; i < m; ++i) {
            const std::size_t k = classify(times[offset + i]);
            partial.counts[k].add_at(bin[i]);
            ++partial.records[k];
          }
        }
        return partial;
      },
      [class_count](ClassCounts& accumulator, ClassCounts&& partial) {
        for (std::size_t k = 0; k < class_count; ++k) {
          merge_and_recycle(accumulator.counts[k], std::move(partial.counts[k]));
          accumulator.records[k] += partial.records[k];
        }
      });
}

/// Time-of-day class of `time_ms` for `slot_ms`-wide slots (robust to
/// negative timestamps).
inline std::size_t time_of_day_class(std::int64_t time_ms, std::int64_t slot_ms) noexcept {
  return static_cast<std::size_t>(((time_ms % telemetry::kMillisPerDay) +
                                   telemetry::kMillisPerDay) %
                                  telemetry::kMillisPerDay / slot_ms);
}

}  // namespace

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
  if (options_.alpha_slot_ms <= 0 ||
      telemetry::kMillisPerDay % options_.alpha_slot_ms != 0) {
    throw std::invalid_argument("TimeNormalizer: alpha_slot_ms must evenly divide a day");
  }
  const int class_count =
      static_cast<int>(telemetry::kMillisPerDay / options_.alpha_slot_ms);

  const std::int64_t data_begin = columns.begin_time();
  const std::int64_t data_end = columns.end_time();
  const auto times = columns.times;
  const auto latencies = columns.latencies;

  // Per-class counts and unbiased time fractions, pooled across days. Each
  // time-of-day class builds its windows and fraction histogram
  // independently — one task per class.
  std::vector<SlotData> data;
  data.reserve(static_cast<std::size_t>(class_count));
  for (int k = 0; k < class_count; ++k) {
    data.push_back(SlotData{.counts = stats::Histogram::covering(0.0, options_.max_latency_ms,
                                                                 options_.alpha_bin_width_ms),
                            .fractions = stats::Histogram::covering(
                                0.0, options_.max_latency_ms, options_.alpha_bin_width_ms),
                            .records = 0,
                            .total_time = 0.0});
  }
  parallel_for_items(static_cast<std::size_t>(class_count), options_.threads,
                     [&](std::size_t k) {
                       const auto windows = class_windows(static_cast<int>(k),
                                                          options_.alpha_slot_ms, data_begin,
                                                          data_end);
                       data[k].fractions = unbiased_histogram_over_windows_sorted(
                           times, latencies, windows, options_.alpha_bin_width_ms,
                           options_.max_latency_ms);
                       for (const auto& w : windows) {
                         data[k].total_time += static_cast<double>(w.length());
                       }
                     });

  const std::int64_t slot_ms = options_.alpha_slot_ms;
  auto classified = classify_records(
      columns, static_cast<std::size_t>(class_count), options_,
      [slot_ms](std::int64_t time_ms) { return time_of_day_class(time_ms, slot_ms); });
  for (int k = 0; k < class_count; ++k) {
    auto& sd = data[static_cast<std::size_t>(k)];
    sd.counts = std::move(classified.counts[static_cast<std::size_t>(k)]);
    sd.records = classified.records[static_cast<std::size_t>(k)];
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
    if (references.size() >= options_.alpha_reference_slots) break;
    if (data[idx].records >= options_.alpha_min_slot_records) references.push_back(idx);
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

  slots_.reserve(data.size());
  for (int k = 0; k < class_count; ++k) {
    const auto& sd = data[static_cast<std::size_t>(k)];
    SlotStat stat{.slot = k,
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
    slots_.push_back(stat);
  }
}

double TimeNormalizer::alpha_at(std::int64_t time_ms) const noexcept {
  const auto k = time_of_day_class(time_ms, options_.alpha_slot_ms);
  return k < slots_.size() ? slots_[k].alpha : 1.0;
}

stats::Histogram TimeNormalizer::normalized_biased(telemetry::SampleColumns columns) const {
  const auto times = columns.times;
  const auto latencies = columns.latencies;
  // Hoist the per-slot 1/α into a table; each chunk gathers its weights into
  // a pooled flat array and bulk-adds the latency sub-span against it.
  std::vector<double> inverse_alpha(slots_.size(), 1.0);
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    inverse_alpha[k] = 1.0 / slots_[k].alpha;
  }
  const std::int64_t slot_ms = options_.alpha_slot_ms;
  return parallel_map_reduce<stats::Histogram>(
      times.size(), options_.threads, kRecordChunk,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        auto histogram =
            stats::Histogram::covering(0.0, options_.max_latency_ms, options_.bin_width_ms,
                                       stats::ScratchPool<double>::take());
        std::vector<double> weights = stats::ScratchPool<double>::take();
        weights.clear();
        weights.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          const auto k = time_of_day_class(times[i], slot_ms);
          weights.push_back(k < inverse_alpha.size() ? inverse_alpha[k] : 1.0);
        }
        histogram.add_all(latencies.subspan(begin, end - begin), weights);
        stats::ScratchPool<double>::give(std::move(weights));
        return histogram;
      },
      merge_and_recycle);
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
    for (const auto& w : windows) data[p].total_time += static_cast<double>(w.length());
  });

  // Classify every record's period ONCE in a single pass (the old code
  // rescanned the whole dataset for each of the four periods).
  auto classified = classify_records(
      dataset.columns(), telemetry::kDayPeriodCount, options, [](std::int64_t time_ms) {
        return static_cast<std::size_t>(telemetry::day_period(time_ms));
      });
  for (int p = 0; p < telemetry::kDayPeriodCount; ++p) {
    data[static_cast<std::size_t>(p)].counts =
        std::move(classified.counts[static_cast<std::size_t>(p)]);
    data[static_cast<std::size_t>(p)].records =
        classified.records[static_cast<std::size_t>(p)];
  }

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
