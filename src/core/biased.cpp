#include "core/biased.h"

#include "core/parallel.h"
#include "stats/scratch.h"

namespace autosens::core {

stats::Histogram make_latency_histogram(const AutoSensOptions& options) {
  return stats::Histogram::covering(0.0, options.max_latency_ms, options.bin_width_ms);
}

stats::Histogram make_latency_histogram_pooled(const AutoSensOptions& options) {
  return stats::Histogram::covering(0.0, options.max_latency_ms, options.bin_width_ms,
                                    stats::ScratchPool<double>::take());
}

void merge_and_recycle(stats::Histogram& accumulator, stats::Histogram&& partial) {
  accumulator.merge(partial);
  stats::ScratchPool<double>::give(partial.release_counts());
}

stats::Histogram biased_histogram(std::span<const double> latencies,
                                  const AutoSensOptions& options) {
  // Unit weights sum exactly, so the chunked fill is bit-identical to a
  // serial pass for any thread count.
  return parallel_map_reduce<stats::Histogram>(
      latencies.size(), options.threads, kRecordChunk,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        auto histogram = make_latency_histogram_pooled(options);
        histogram.add_all(latencies.subspan(begin, end - begin));
        return histogram;
      },
      merge_and_recycle);
}

}  // namespace autosens::core
