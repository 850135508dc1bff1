// Windowed AutoSens over an ASL3 store (DESIGN.md §6e): tile the store's
// time range into analysis windows and run the batch pipeline on each,
// materializing only the partitions (and blocks) a window overlaps. Peak
// memory is O(window), independent of store size — the out-of-core path for
// datasets larger than RAM.
//
// Equivalence contract: each window's result is byte-identical to running
// analyze()/analyze_with_confidence() on the same rows filtered out of a
// fully in-memory Dataset, because the window IS a Dataset once loaded —
// same estimators, same memoized Voronoi weights, same bootstrap draws
// (confidence replicates reseed per window and resample only the window's
// days, so they never touch partitions outside it).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/confidence.h"
#include "core/options.h"
#include "core/preference.h"
#include "stats/histogram.h"
#include "telemetry/clock.h"
#include "telemetry/record.h"
#include "telemetry/store/store.h"
#include "telemetry/validate.h"

namespace autosens::core {

struct StoreStreamOptions {
  /// Window width; windows tile [min_time, max_time] from min_time.
  std::int64_t window_ms = 7 * telemetry::kMillisPerDay;
  /// Scrub each window with telemetry::validate before analysis (the same
  /// record-local policy the batch CLI applies up front, so per-window
  /// scrubbing equals scrubbing the whole dataset first). Stores built from
  /// already-validated data can turn this off to skip the scan.
  bool scrub = true;
  telemetry::ValidationOptions validation;
  /// Optional slice filters applied to each window before analysis.
  std::optional<telemetry::ActionType> action;
  std::optional<telemetry::UserClass> user_class;
  /// Attach day-block bootstrap intervals per window. Each window gets a
  /// fresh generator seeded with `confidence_seed`, so a window's interval
  /// does not depend on which windows ran before it.
  bool with_confidence = false;
  ConfidenceOptions confidence;
  std::vector<double> probe_latencies;
  std::uint64_t confidence_seed = 17;
};

/// One analysis window's outcome. `preference` (and `confidence`) are empty
/// when the window holds no usable rows or cannot support a curve.
struct StoreWindowResult {
  std::int64_t begin_ms = 0;
  std::int64_t end_ms = 0;
  std::size_t records = 0;  ///< Rows analyzed (after slice filters).
  std::size_t partitions_scanned = 0;
  std::size_t partitions_pruned = 0;
  std::uint64_t bytes_read = 0;  ///< Stored bytes consumed from disk.
  std::optional<PreferenceResult> preference;
  std::optional<PreferenceWithConfidence> confidence;
};

/// Stream window results in time order through `sink` — O(window) memory.
void analyze_store_windows(const telemetry::store::StoredDataset& store,
                           const AutoSensOptions& options, const StoreStreamOptions& stream,
                           const std::function<void(const StoreWindowResult&)>& sink);

/// Convenience: collect every window's result (memory scales with window
/// count, still not with row count).
std::vector<StoreWindowResult> analyze_store_windows(
    const telemetry::store::StoredDataset& store, const AutoSensOptions& options,
    const StoreStreamOptions& stream = {});

/// The biased latency distribution of the whole store, filled one partition
/// at a time and merged in partition order. Unit-weight bin counts are
/// integer sums, so this is bit-identical to biased_histogram() over the
/// fully loaded dataset while touching O(partition) memory.
stats::Histogram scan_biased_histogram(const telemetry::store::StoredDataset& store,
                                       const AutoSensOptions& options);

}  // namespace autosens::core
