#include "core/unbiased.h"

#include <algorithm>
#include <stdexcept>

#include "core/biased.h"
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
  const auto weights =
      stats::voronoi_weights(times, window.begin_ms, window.end_ms, options.threads);
  obs::Span span("unbiased_voronoi");
  span.attr("samples", static_cast<std::int64_t>(latencies.size()));
  return parallel_map_reduce<stats::Histogram>(
      latencies.size(), options.threads, kRecordChunk,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        auto histogram = make_latency_histogram_pooled(options);
        histogram.add_all(latencies.subspan(begin, end - begin),
                          std::span<const double>(weights).subspan(begin, end - begin));
        return histogram;
      },
      merge_and_recycle);
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
