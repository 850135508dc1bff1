#include "telemetry/validate.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "stats/scratch.h"

namespace autosens::telemetry {
namespace {

/// Pre-registered per-reason drop counters (one per rejection cause, labeled
/// Prometheus-style) plus totals for the validation stage.
struct ValidateMetrics {
  obs::Counter& total = obs::registry().counter(
      "autosens_validate_records_total", "Records entering validation");
  obs::Counter& kept = obs::registry().counter(
      "autosens_validate_records_kept_total", "Records surviving validation");
  obs::Counter& error_status = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"error_status\"}",
      "Records dropped by validation, by reason");
  obs::Counter& nonpositive = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"nonpositive_latency\"}",
      "Records dropped by validation, by reason");
  obs::Counter& excessive = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"excessive_latency\"}",
      "Records dropped by validation, by reason");
  obs::Counter& nonfinite = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"nonfinite_latency\"}",
      "Records dropped by validation, by reason");
  obs::Counter& bad_timestamp = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"bad_timestamp\"}",
      "Records dropped by validation, by reason");
  obs::Counter& out_of_window = obs::registry().counter(
      "autosens_validate_dropped_total{reason=\"out_of_window\"}",
      "Records dropped by validation, by reason");
};

ValidateMetrics& metrics() {
  static ValidateMetrics handles;
  return handles;
}

void append_reason(std::ostream& out, bool& first, const char* name, std::size_t count) {
  if (count == 0) return;
  out << (first ? "" : ", ") << name << " " << count;
  first = false;
}

}  // namespace

std::string ValidationReport::summary() const {
  std::ostringstream out;
  out << "validated " << total << " records: kept " << kept << ", dropped " << dropped()
      << " (error-status " << dropped_error_status << ", nonpositive-latency "
      << dropped_nonpositive_latency << ", excessive-latency " << dropped_excessive_latency
      << ", nonfinite-latency " << dropped_nonfinite_latency << ", bad-timestamp "
      << dropped_bad_timestamp << ", out-of-window " << dropped_out_of_window << ")";
  return out.str();
}

std::string ValidationReport::one_line() const {
  std::ostringstream out;
  out << "kept " << kept << "/" << total;
  if (dropped() == 0) return out.str();
  out << " (dropped: ";
  bool first = true;
  append_reason(out, first, "error-status", dropped_error_status);
  append_reason(out, first, "nonpositive-latency", dropped_nonpositive_latency);
  append_reason(out, first, "excessive-latency", dropped_excessive_latency);
  append_reason(out, first, "nonfinite-latency", dropped_nonfinite_latency);
  append_reason(out, first, "bad-timestamp", dropped_bad_timestamp);
  append_reason(out, first, "out-of-window", dropped_out_of_window);
  out << ")";
  return out.str();
}

ValidatedDataset validate(const Dataset& input, const ValidationOptions& options) {
  ValidatedDataset result;
  ValidationReport& report = result.report;
  report.total = input.size();
  // Every check reads only time, latency, and status: one scan of those
  // columns writes the surviving row ids, and the result selects them from
  // the input's columns instead of copying any record. The keep test is
  // branch-free; the rare dropped row is then charged to the first check it
  // fails, in the order below.
  if (input.size() > Dataset::kMaxRows) {
    throw std::length_error("validate: more rows than 32-bit row ids can address");
  }
  const auto times = input.times();
  const auto latencies = input.latencies();
  const auto statuses = input.statuses();
  // Pooled: the selection gives the buffer back when it compacts or dies.
  std::vector<std::uint32_t> rows = stats::ScratchPool<std::uint32_t>::take();
  rows.resize(times.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const std::int64_t t = times[i];
    const double latency = latencies[i];
    const bool error = options.successful_only && statuses[i] == ActionStatus::kError;
    const bool keep = (t >= options.min_time_ms) & (t >= options.window_begin_ms) &
                      (t < options.window_end_ms) & std::isfinite(latency) & !error &
                      (latency > options.min_latency_ms) & (latency <= options.max_latency_ms);
    rows[kept] = static_cast<std::uint32_t>(i);
    kept += keep ? 1 : 0;
    if (keep) continue;
    if (t < options.min_time_ms) {
      ++report.dropped_bad_timestamp;
    } else if (t < options.window_begin_ms || t >= options.window_end_ms) {
      ++report.dropped_out_of_window;
    } else if (!std::isfinite(latency)) {
      ++report.dropped_nonfinite_latency;
    } else if (error) {
      ++report.dropped_error_status;
    } else if (latency <= options.min_latency_ms) {
      ++report.dropped_nonpositive_latency;
    } else {
      ++report.dropped_excessive_latency;
    }
  }
  rows.resize(kept);
  report.kept = kept;
  if (input.is_sorted()) {
    result.dataset = input.select(std::move(rows));
  } else {
    // Stable by time, so equal times keep input order (as sort_by_time).
    std::stable_sort(rows.begin(), rows.end(),
                     [&times](std::uint32_t a, std::uint32_t b) { return times[a] < times[b]; });
    result.dataset = input.gather(rows);
    stats::ScratchPool<std::uint32_t>::give(std::move(rows));
  }

  auto& m = metrics();
  m.total.inc(result.report.total);
  m.kept.inc(result.report.kept);
  m.error_status.inc(result.report.dropped_error_status);
  m.nonpositive.inc(result.report.dropped_nonpositive_latency);
  m.excessive.inc(result.report.dropped_excessive_latency);
  m.nonfinite.inc(result.report.dropped_nonfinite_latency);
  m.bad_timestamp.inc(result.report.dropped_bad_timestamp);
  m.out_of_window.inc(result.report.dropped_out_of_window);
  return result;
}

}  // namespace autosens::telemetry
