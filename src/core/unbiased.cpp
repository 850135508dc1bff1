#include "core/unbiased.h"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>

#include "core/biased.h"
#include "core/confounder_time.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/sampling.h"
#include "stats/scratch.h"

namespace autosens::core {
namespace {

obs::Counter& mc_draw_counter() {
  static obs::Counter& counter = obs::registry().counter(
      "autosens_unbiased_mc_draws_total", "Monte-Carlo nearest-sample draws performed");
  return counter;
}

/// Rows per block of Voronoi cells handed to the weighted fill: the cells
/// and the latencies they weigh stay in L1.
constexpr std::size_t kCellBlock = 2048;

/// End of the equal-time run at the front of sorted, non-empty `times`.
std::size_t first_run_end(std::span<const std::int64_t> times) {
  std::size_t end = 1;
  while (end < times.size() && times[end] == times.front()) ++end;
  return end;
}

/// Start of the equal-time run at the back of sorted, non-empty `times`.
std::size_t last_run_begin(std::span<const std::int64_t> times) {
  std::size_t begin = times.size() - 1;
  while (begin > 0 && times[begin - 1] == times.back()) --begin;
  return begin;
}

}  // namespace

stats::Histogram unbiased_histogram_mc(std::span<const std::int64_t> times,
                                       std::span<const double> latencies,
                                       TimeWindow window, const AutoSensOptions& options,
                                       stats::Random& random) {
  if (times.size() != latencies.size()) {
    throw std::invalid_argument("unbiased_histogram_mc: size mismatch");
  }
  obs::Span span("unbiased_mc_draws");
  span.attr("draws", static_cast<std::int64_t>(options.unbiased_draws));
  mc_draw_counter().inc(options.unbiased_draws);
  // One draw from the caller's stream anchors the whole estimate; each chunk
  // of draws then runs its own counter-seeded substream, so the draw
  // sequences (and the merged histogram) are independent of thread count.
  const std::uint64_t stream_base = random.engine()();
  return parallel_map_reduce<stats::Histogram>(
      options.unbiased_draws, options.threads, kDrawChunk,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto histogram = make_latency_histogram_pooled(options);
        if (end > begin) {
          stats::Random substream(stats::substream_seed(stream_base, chunk));
          const auto draws = stats::nearest_sample_draws(times, window.begin_ms,
                                                         window.end_ms, end - begin,
                                                         substream);
          for (const std::size_t idx : draws) histogram.add(latencies[idx]);
        }
        return histogram;
      },
      merge_and_recycle);
}

stats::Histogram unbiased_histogram_voronoi(std::span<const std::int64_t> times,
                                            std::span<const double> latencies,
                                            TimeWindow window,
                                            const AutoSensOptions& options) {
  if (times.size() != latencies.size()) {
    throw std::invalid_argument("unbiased_histogram_voronoi: size mismatch");
  }
  if (times.empty()) throw std::invalid_argument("unbiased_histogram_voronoi: empty times");
  if (!(window.end_ms > window.begin_ms)) {
    throw std::invalid_argument("unbiased_histogram_voronoi: empty window");
  }
  obs::Span span("unbiased_voronoi");
  span.attr("samples", static_cast<std::int64_t>(latencies.size()));
  const auto ranges = day_ranges(times);
  const auto rows_of = [&](const DayRange& range) {
    return telemetry::SampleColumns{times.subspan(range.first, range.last - range.first),
                                    latencies.subspan(range.first, range.last - range.first)};
  };
  // One task per day; the partials fold in day order whatever the threads.
  std::vector<stats::Histogram> interiors(ranges.size(), make_latency_histogram(options));
  parallel_for_items(ranges.size(), options.threads, [&](std::size_t i) {
    interiors[i] = unbiased_interior(rows_of(ranges[i]), window, options);
  });
  std::vector<VoronoiDay> days;
  days.reserve(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    days.push_back({.rows = rows_of(ranges[i]), .shift = 0, .interior = &interiors[i]});
  }
  auto histogram = unbiased_cell_sums(days, window, options);
  histogram.scale(1.0 / static_cast<double>(window.length()));
  return histogram;
}

stats::Histogram unbiased_interior(telemetry::SampleColumns day, TimeWindow window,
                                   const AutoSensOptions& options) {
  auto histogram = make_latency_histogram(options);
  if (day.empty()) return histogram;
  const auto times = day.times;
  const double begin = static_cast<double>(window.begin_ms);
  const double end = static_cast<double>(window.end_ms);
  const std::size_t last = last_run_begin(times);
  // Every interior run has neighbours on both sides inside the day.
  std::array<double, kCellBlock> cells;
  std::size_t block = first_run_end(times);  // First row of the pending block.
  std::size_t filled = 0;
  const auto flush = [&] {
    histogram.add_all(day.latencies.subspan(block, filled),
                      std::span<const double>(cells).first(filled));
    block += filled;
    filled = 0;
  };
  for (std::size_t i = block; i < last;) {
    std::size_t j = i + 1;
    while (j < last && times[j] == times[i]) ++j;
    const double share = stats::voronoi_cell(times[i - 1], times[i], times[j], begin, end) /
                         static_cast<double>(j - i);
    for (; i < j; ++i) {
      cells[filled++] = share;
      if (filled == cells.size()) flush();
    }
  }
  if (filled > 0) flush();
  return histogram;
}

stats::Histogram unbiased_cell_sums(std::span<const VoronoiDay> days, TimeWindow window,
                                    const AutoSensOptions& options) {
  auto histogram = make_latency_histogram(options);
  for (const auto& day : days) histogram.merge(*day.interior);
  const double begin = static_cast<double>(window.begin_ms);
  const double end = static_cast<double>(window.end_ms);
  const auto time_at = [&](std::size_t s, std::size_t row) {
    return days[s].rows.times[row] + days[s].shift;
  };
  // Adds rows [first, last) of day s, an equal-time run, with their shares of
  // its cell between `previous` and `next`.
  const auto add_run = [&](std::size_t s, std::size_t first, std::size_t last,
                           std::optional<std::int64_t> previous,
                           std::optional<std::int64_t> next) {
    const double share = stats::voronoi_cell(previous, time_at(s, first), next, begin, end) /
                         static_cast<double>(last - first);
    for (std::size_t k = first; k < last; ++k) histogram.add(days[s].rows.latencies[k], share);
  };
  for (std::size_t s = 0; s < days.size(); ++s) {
    const auto times = days[s].rows.times;
    const std::size_t n = times.size();
    const auto before =
        s > 0 ? std::optional(time_at(s - 1, days[s - 1].rows.size() - 1)) : std::nullopt;
    const auto after = s + 1 < days.size() ? std::optional(time_at(s + 1, 0)) : std::nullopt;
    const std::size_t first = first_run_end(times);
    add_run(s, 0, first, before, first < n ? std::optional(time_at(s, first)) : after);
    const std::size_t last = last_run_begin(times);
    if (last > 0) add_run(s, last, n, time_at(s, last - 1), after);
  }
  return histogram;
}

stats::Histogram unbiased_histogram_over_windows(std::span<const std::int64_t> times,
                                                 std::span<const double> latencies,
                                                 std::span<const TimeWindow> windows,
                                                 double bin_width_ms, double max_latency_ms,
                                                 std::size_t threads) {
  if (!std::is_sorted(times.begin(), times.end())) {
    throw std::invalid_argument("unbiased_histogram_over_windows: times not sorted");
  }
  return unbiased_histogram_over_windows_sorted(times, latencies, windows, bin_width_ms,
                                                max_latency_ms, threads);
}

stats::Histogram unbiased_histogram_over_windows_sorted(
    std::span<const std::int64_t> times, std::span<const double> latencies,
    std::span<const TimeWindow> windows, double bin_width_ms, double max_latency_ms,
    std::size_t threads) {
  if (times.size() != latencies.size()) {
    throw std::invalid_argument("unbiased_histogram_over_windows: size mismatch");
  }
  for (const auto& window : windows) {
    if (!(window.end_ms > window.begin_ms)) {
      throw std::invalid_argument("unbiased_histogram_over_windows: empty window");
    }
  }
  // One task per window, partial histograms merged in window order.
  return parallel_map_reduce<stats::Histogram>(
      windows.size(), threads, 1,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        auto histogram = stats::Histogram::covering(0.0, max_latency_ms, bin_width_ms,
                                                    stats::ScratchPool<double>::take());
        for (std::size_t w = begin; w < end; ++w) {
          const auto& window = windows[w];
          // Samples inside this window only.
          const auto first = std::lower_bound(times.begin(), times.end(), window.begin_ms);
          const auto last = std::lower_bound(times.begin(), times.end(), window.end_ms);
          const auto lo = static_cast<std::size_t>(first - times.begin());
          const auto count = static_cast<std::size_t>(last - first);
          if (count == 0) continue;
          add_window_unbiased(histogram, times.subspan(lo, count),
                              latencies.subspan(lo, count), window);
        }
        return histogram;
      },
      merge_and_recycle);
}

void add_window_unbiased(stats::Histogram& histogram, std::span<const std::int64_t> times,
                         std::span<const double> latencies, TimeWindow window) {
  auto weights = stats::voronoi_weights(times, window.begin_ms, window.end_ms);
  simd::scale(weights, static_cast<double>(window.length()));
  histogram.add_all(latencies, weights);
}

stats::Histogram unbiased_histogram(telemetry::SampleColumns columns,
                                    const AutoSensOptions& options) {
  if (columns.empty()) throw std::invalid_argument("unbiased_histogram: empty dataset");
  const TimeWindow window{.begin_ms = columns.begin_time(), .end_ms = columns.end_time()};
  if (options.unbiased_method == UnbiasedMethod::kMonteCarlo) {
    stats::Random random(options.seed);
    return unbiased_histogram_mc(columns.times, columns.latencies, window, options, random);
  }
  return unbiased_histogram_voronoi(columns.times, columns.latencies, window, options);
}

stats::Histogram unbiased_histogram(const telemetry::Dataset& dataset,
                                    const AutoSensOptions& options) {
  return unbiased_histogram(dataset.columns(), options);
}

}  // namespace autosens::core
