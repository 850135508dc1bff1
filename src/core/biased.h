// The biased latency distribution B (§2.2): simply the histogram of the
// latencies of actions users actually performed — it reflects whatever bias
// users exert by acting more when latency is low.
#pragma once

#include <span>

#include "core/options.h"
#include "stats/histogram.h"

namespace autosens::core {

/// Geometry helper: the latency histogram implied by `options`.
stats::Histogram make_latency_histogram(const AutoSensOptions& options);

/// Same geometry over a buffer borrowed from the scratch pool — the cheap
/// way to build the per-chunk partials of a parallel fill.
stats::Histogram make_latency_histogram_pooled(const AutoSensOptions& options);

/// The canonical parallel_map_reduce reducer for histogram partials: merge
/// bin-wise, then hand the partial's buffer back to the scratch pool.
void merge_and_recycle(stats::Histogram& accumulator, stats::Histogram&& partial);

/// B from raw latencies (unit weight each).
stats::Histogram biased_histogram(std::span<const double> latencies,
                                  const AutoSensOptions& options);

}  // namespace autosens::core
