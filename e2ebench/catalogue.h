// The benchmark's metric catalogue: every end-to-end metric the untraced
// run reports, and every per-layer metric the traced run reports with the
// end-to-end metric it should move and the workload where it should move
// (README.md renders the table). metrics_test.cpp checks it against
// BENCHMARK.json.
#pragma once

#include <vector>

namespace e2ebench {

struct EndToEndMetric {
  const char* name;
  const char* unit;
};

inline const std::vector<EndToEndMetric>& end_to_end_metrics() {
  static const std::vector<EndToEndMetric> metrics = {
      {"setup_s", "s"},           {"op_ms_p50", "ms"},       {"op_ms_tail", "ms"},
      {"rows_per_s", "1/s"},      {"cpu_ms_per_op", "ms"},   {"peak_rss_mib", "MiB"},
      {"ok_ratio", "ratio"},
  };
  return metrics;
}

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
  const char* where;
};

inline const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"telemetry.ingest.ms", "ms", "op_ms_p50, rows_per_s", "analyze_bin; flat on confidence"},
      {"telemetry.ingest.mb_per_s", "MB/s", "op_ms_p50, rows_per_s",
       "analyze_bin; flat on confidence"},
      {"telemetry.validate.ms", "ms", "op_ms_p50",
       "analyze_bin, collect_store windows; flat on confidence"},
      {"telemetry.validate.kept_ratio", "ratio", "op_ms_p50",
       "analyze_bin, collect_store windows; flat on confidence"},
      {"telemetry.filter.ms", "ms", "op_ms_p50",
       "analyze_bin, collect_store; flat on confidence"},
      {"telemetry.filter.selectivity", "ratio", "op_ms_p50",
       "analyze_bin, collect_store; flat on confidence"},
      {"core.confounder_time.ms", "ms", "op_ms_p50, cpu_ms_per_op",
       "confidence; small on analyze_bin"},
      {"core.unbiased.ms", "ms", "op_ms_p50, cpu_ms_per_op", "confidence; small on analyze_bin"},
      {"core.preference.ms", "ms", "nothing (sentinel)", "all"},
      {"core.confidence.resample_ms", "ms", "op_ms_p50, ok_ratio", "confidence"},
      {"core.confidence.usable_ratio", "ratio", "op_ms_p50, ok_ratio", "confidence"},
      {"core.parallel.busy_ratio", "ratio", "op_ms_p50 at fixed cpu_ms_per_op",
       "confidence; n/a at threads=1"},
      {"net.emit.ms", "ms", "op_ms_p50, rows_per_s", "collect_store"},
      {"net.collect.ms", "ms", "op_ms_p50, rows_per_s", "collect_store"},
      {"net.records_per_s", "1/s", "op_ms_p50, rows_per_s", "collect_store"},
      {"net.frames", "count", "op_ms_p50, rows_per_s", "collect_store"},
      {"net.retries", "count", "ok_ratio", "collect_store"},
      {"net.reconnects", "count", "ok_ratio", "collect_store"},
      {"net.resyncs", "count", "ok_ratio", "collect_store"},
      {"net.duplicate_frames", "count", "ok_ratio", "collect_store"},
      {"net.lost_records", "count", "ok_ratio", "collect_store"},
      {"telemetry.store.write_ms", "ms", "op_ms_p50, peak_rss_mib", "collect_store (write)"},
      {"telemetry.store.bytes_per_row", "B/row", "op_ms_p50, peak_rss_mib",
       "collect_store (write)"},
      {"telemetry.store.partitions", "count", "op_ms_p50, peak_rss_mib", "collect_store (write)"},
      {"telemetry.store.open_ms", "ms", "op_ms_p50", "collect_store (read)"},
      {"telemetry.store.load_window_ms", "ms", "op_ms_p50", "collect_store (read)"},
      {"telemetry.store.read_mb", "MB", "op_ms_p50", "collect_store (read)"},
      {"telemetry.store.pruned_ratio", "ratio", "op_ms_p50", "collect_store (read)"},
      {"core.store_analyze.window_ms", "ms", "op_ms_p50", "collect_store"},
      {"bench.attributed_ratio", "ratio", "nothing (qualifies the trace)", "all"},
      {"bench.unattributed_ms", "ms", "nothing (qualifies the trace)", "all"},
      {"bench.trace_overhead", "ratio", "nothing (qualifies the trace)", "all"},
  };
  return metrics;
}

}  // namespace e2ebench
