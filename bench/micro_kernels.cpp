// Microbenchmarks (google-benchmark) of the library's hot kernels:
// histogram fill, Savitzky–Golay smoothing, Voronoi weights, nearest-sample
// draws, the telemetry codecs, the workload generator, and the end-to-end
// analysis pipeline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include <atomic>
#include <thread>

#include "core/confidence.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/simd.h"
#include "core/slices.h"
#include "core/store_analyze.h"
#include "net/collector.h"
#include "net/emitter.h"
#include "net/udp.h"
#include "obs/metrics.h"
#include "obs/server.h"
#include "obs/trace.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/rng.h"
#include "stats/sampling.h"
#include "stats/savitzky_golay.h"
#include "telemetry/binlog.h"
#include "telemetry/clock.h"
#include "telemetry/csv.h"
#include "telemetry/jsonl.h"
#include "telemetry/filter.h"
#include "telemetry/store/store.h"
#include "telemetry/store/writer.h"
#include "telemetry/validate.h"

namespace {

using namespace autosens;

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  stats::Random random(seed);
  std::vector<double> values(n);
  for (auto& v : values) v = random.lognormal(5.8, 0.5);
  return values;
}

std::vector<std::int64_t> random_times(std::size_t n, std::uint64_t seed) {
  stats::Random random(seed);
  std::vector<std::int64_t> times(n);
  std::int64_t t = 0;
  for (auto& v : times) {
    t += static_cast<std::int64_t>(random.exponential(0.02)) + 1;
    v = t;
  }
  return times;
}

void BM_HistogramFill(benchmark::State& state) {
  const auto values = random_values(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    stats::Histogram h(0.0, 10.0, 300);
    h.add_all(values);
    benchmark::DoNotOptimize(h.total_weight());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HistogramFill)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_SavitzkyGolay(benchmark::State& state) {
  const auto signal = random_values(static_cast<std::size_t>(state.range(0)), 2);
  const stats::SavitzkyGolay filter({.window = 101, .degree = 3});
  for (auto _ : state) {
    auto smoothed = filter.smooth(signal);
    benchmark::DoNotOptimize(smoothed.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SavitzkyGolay)->Arg(300)->Arg(3'000)->Arg(30'000);

void BM_VoronoiWeights(benchmark::State& state) {
  const auto times = random_times(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto weights = stats::voronoi_weights(times, 0, times.back() + 10);
    benchmark::DoNotOptimize(weights.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VoronoiWeights)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_NearestSampleDraws(benchmark::State& state) {
  const auto times = random_times(100'000, 4);
  stats::Random random(5);
  for (auto _ : state) {
    auto draws = stats::nearest_sample_draws(times, 0, times.back() + 10,
                                             static_cast<std::size_t>(state.range(0)), random);
    benchmark::DoNotOptimize(draws.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NearestSampleDraws)->Arg(10'000)->Arg(100'000);

void BM_BinlogEncode(benchmark::State& state) {
  auto config = simulate::paper_config(simulate::Scale::kTiny, 6);
  const auto dataset = simulate::WorkloadGenerator(config).generate().dataset;
  for (auto _ : state) {
    std::ostringstream out;
    telemetry::write_binlog(out, dataset);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_BinlogEncode);

void BM_BinlogDecode(benchmark::State& state) {
  auto config = simulate::paper_config(simulate::Scale::kTiny, 7);
  const auto dataset = simulate::WorkloadGenerator(config).generate().dataset;
  std::ostringstream out;
  telemetry::write_binlog(out, dataset);
  const std::string bytes = out.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    auto decoded = telemetry::read_binlog(in);
    benchmark::DoNotOptimize(decoded.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_BinlogDecode);

void BM_WorkloadGenerator(benchmark::State& state) {
  const auto config = simulate::paper_config(simulate::Scale::kTiny, 8);
  std::size_t records = 0;
  for (auto _ : state) {
    simulate::WorkloadGenerator generator(config);
    auto result = generator.generate();
    records = result.accepted;
    benchmark::DoNotOptimize(result.dataset.times().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records));
}
BENCHMARK(BM_WorkloadGenerator);

// ---------------------------------------------------------------------------
// --threads scaling of the parallel execution layer (BENCH_parallel.json).
// Each benchmark takes the worker-thread count as its argument; results are
// byte-identical across arguments, only the wall clock changes.

/// A shared 1M-record, 14-day dataset with diurnal structure (built once).
const telemetry::Dataset& million_record_dataset() {
  static const telemetry::Dataset dataset = [] {
    constexpr std::size_t kRecords = 1'000'000;
    constexpr int kDays = 14;
    stats::Random random(97);
    telemetry::Dataset built;
    built.reserve(kRecords);
    const std::int64_t begin = 400 * telemetry::kMillisPerDay;
    constexpr auto kSpan = static_cast<double>(kDays) * telemetry::kMillisPerDay;
    constexpr telemetry::ActionType kActions[] = {
        telemetry::ActionType::kSelectMail, telemetry::ActionType::kSwitchFolder,
        telemetry::ActionType::kSelectMail, telemetry::ActionType::kSearch,
        telemetry::ActionType::kComposeSend};
    for (std::size_t i = 0; i < kRecords; ++i) {
      telemetry::ActionRecord record;
      record.time_ms = begin + static_cast<std::int64_t>(
                                   kSpan * static_cast<double>(i) / kRecords);
      const double hour =
          static_cast<double>(record.time_ms % telemetry::kMillisPerDay) /
          static_cast<double>(telemetry::kMillisPerHour);
      const double diurnal = 120.0 * std::sin(hour / 24.0 * 2.0 * 3.141592653589793);
      record.latency_ms = std::min(
          2900.0, 180.0 + diurnal + 250.0 * -std::log(1.0 - random.uniform(0.0, 1.0)));
      record.user_id = i % 499;
      record.action = kActions[i % 5];
      record.user_class = (i % 3 == 0) ? telemetry::UserClass::kBusiness
                                       : telemetry::UserClass::kConsumer;
      built.add(record);
    }
    built.sort_by_time();
    return built;
  }();
  return dataset;
}

void BM_PipelineAnalyzeThreads(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  core::AutoSensOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto result = core::analyze(dataset, options);
    benchmark::DoNotOptimize(result.normalized.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_PipelineAnalyzeThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SlicesByActionThreads(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  core::AutoSensOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto curves = core::preference_by_action(dataset, options);
    benchmark::DoNotOptimize(curves.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_SlicesByActionThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MonteCarloUnbiasedThreads(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  core::AutoSensOptions options;
  options.unbiased_method = core::UnbiasedMethod::kMonteCarlo;
  options.unbiased_draws = 2'000'000;
  options.normalize_time_confounder = false;  // isolate the MC estimator
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto result = core::analyze(dataset, options);
    benchmark::DoNotOptimize(result.normalized.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(options.unbiased_draws));
}
BENCHMARK(BM_MonteCarloUnbiasedThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BootstrapThreads(benchmark::State& state) {
  const auto values = random_values(200'000, 11);
  const auto mean = [](std::span<const double> sample) {
    double sum = 0.0;
    for (const double v : sample) sum += v;
    return sum / static_cast<double>(sample.size());
  };
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    stats::Random random(12);
    auto interval = stats::bootstrap_interval(values, mean, 100, 0.95, random, threads);
    benchmark::DoNotOptimize(interval.lo);
  }
  state.SetItemsProcessed(state.iterations() * 100 * 200'000);
}
BENCHMARK(BM_BootstrapThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Observability overhead on the fig3-scale pipeline: Arg selects how much
/// instrumentation is live. Arg(0) is the shipping default (compiled in,
/// disabled — every hook is one relaxed atomic load); comparing it against
/// the other Threads pipeline numbers bounds the disabled overhead, and
/// Arg(1)/Arg(2) price fully-enabled metrics and metrics+tracing.
void BM_ObsAnalyzeOverhead(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const core::AutoSensOptions options;
  const auto mode = state.range(0);
  obs::set_enabled(mode >= 1);
  obs::Tracer::global().set_enabled(mode >= 2);
  {
    // Untimed warm-up so the first variant doesn't eat the cold-cache cost
    // and skew the disabled-vs-enabled comparison.
    auto warmup = core::analyze(dataset, options);
    benchmark::DoNotOptimize(warmup.normalized.data());
  }
  for (auto _ : state) {
    auto result = core::analyze(dataset, options);
    benchmark::DoNotOptimize(result.normalized.data());
  }
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().clear();
  obs::set_enabled(false);
  state.SetLabel(mode == 0 ? "obs_disabled" : mode == 1 ? "metrics_on" : "metrics_and_trace_on");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_ObsAnalyzeOverhead)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// A registry the size of a busy process: ~1k exported series (labelled
/// counters, gauges, and histograms whose buckets expand in the exposition).
/// Shared by both scrape benchmarks so they price the same snapshot.
obs::Registry& scrape_registry() {
  static obs::Registry* registry = [] {
    auto* r = new obs::Registry();
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    for (int i = 0; i < 300; ++i) {
      r->counter("autosens_bench_events_total{source=\"s" + std::to_string(i) + "\"}")
          .inc(static_cast<std::uint64_t>(i) * 7 + 1);
      r->gauge("autosens_bench_depth{queue=\"q" + std::to_string(i) + "\"}")
          .set(static_cast<double>(i) * 0.5);
    }
    for (int i = 0; i < 40; ++i) {
      auto& histogram =
          r->histogram("autosens_bench_latency_ms{stage=\"p" + std::to_string(i) + "\"}");
      for (int j = 0; j < 32; ++j) histogram.observe(static_cast<double>(j % 17) * 3.0);
    }
    obs::set_enabled(was_enabled);
    return r;
  }();
  return *registry;
}

/// /metrics encode cost alone: the handler path (snapshot + text exposition)
/// with no socket in the loop. This is the floor a scraper can ever see.
void BM_ObsScrapeEncode(benchmark::State& state) {
  obs::ObsServer server({.registry = &scrape_registry()});
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto response = server.handle("/metrics");
    bytes = response.body.size();
    benchmark::DoNotOptimize(response.body.data());
  }
  state.counters["scrape_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ObsScrapeEncode)->Unit(benchmark::kMicrosecond);

/// Full live scrape: loopback HTTP GET against the serving thread, the cost
/// a Prometheus scraper (or `autosens watch`) actually imposes per poll.
void BM_ObsScrapeHttp(benchmark::State& state) {
  obs::ObsServer server({.registry = &scrape_registry()});
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto response = obs::http_get(server.port(), "/metrics");
    if (response.status != 200) state.SkipWithError("scrape failed");
    bytes = response.body.size();
  }
  state.counters["scrape_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ObsScrapeHttp)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Columnar data-plane kernels (BENCH_columnar.json): zero-copy column access,
// the index-view day-block bootstrap, and the bootstrap replicate loop that
// they feed.

/// Column access: the legacy copy-out (materialize both columns as fresh
/// vectors, what times()/latencies() used to do) vs the span accessors.
void BM_DatasetColumns(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const bool zero_copy = state.range(0) != 0;
  for (auto _ : state) {
    if (zero_copy) {
      const auto columns = dataset.columns();
      benchmark::DoNotOptimize(columns.times.data());
      benchmark::DoNotOptimize(columns.latencies.data());
    } else {
      const auto times = dataset.times();
      const auto latencies = dataset.latencies();
      std::vector<std::int64_t> time_copy(times.begin(), times.end());
      std::vector<double> latency_copy(latencies.begin(), latencies.end());
      benchmark::DoNotOptimize(time_copy.data());
      benchmark::DoNotOptimize(latency_copy.data());
    }
  }
  state.SetLabel(zero_copy ? "span" : "copy");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_DatasetColumns)->Arg(0)->Arg(1)->UseRealTime();

/// The deep-copying day-block resampler that Arg(0) of BM_DayBlockResample
/// and BM_ConfidenceReplicates freeze: the same day ranges and draws as
/// core::day_block_resample, but every record of every drawn day is copied
/// with its day moved, and the copy re-sorted.
telemetry::Dataset day_block_resample_copy(const telemetry::Dataset& dataset,
                                           stats::Random& random) {
  struct DayRange {
    std::int64_t day = 0;
    std::size_t first = 0;
    std::size_t last = 0;
  };
  const auto times = dataset.times();
  std::vector<DayRange> days;
  std::size_t cursor = 0;
  for (std::int64_t day = telemetry::day_index(times.front());
       day <= telemetry::day_index(times.back()); ++day) {
    const auto it = std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(cursor),
                                     times.end(), (day + 1) * telemetry::kMillisPerDay);
    const auto next = static_cast<std::size_t>(it - times.begin());
    if (next > cursor) days.push_back({day, cursor, next});
    cursor = next;
  }
  telemetry::Dataset resampled;
  resampled.reserve(dataset.size());
  for (std::size_t slot = 0; slot < days.size(); ++slot) {
    const auto& source = days[random.uniform_index(days.size())];
    for (std::size_t k = source.first; k < source.last; ++k) {
      auto record = dataset[k];
      record.time_ms += (static_cast<std::int64_t>(slot) - source.day) * telemetry::kMillisPerDay;
      resampled.add(record);
    }
  }
  resampled.sort_by_time();
  return resampled;
}

/// One bootstrap resample: the frozen copying resampler (copy every record,
/// re-sort) vs the library's block table (O(days)).
void BM_DayBlockResample(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const bool by_view = state.range(0) != 0;
  stats::Random random(13);
  for (auto _ : state) {
    if (by_view) {
      auto resampled = core::day_block_resample(dataset, random);
      benchmark::DoNotOptimize(resampled.size());
    } else {
      auto copy = day_block_resample_copy(dataset, random);
      benchmark::DoNotOptimize(copy.size());
    }
  }
  state.SetLabel(by_view ? "view" : "copy");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_DayBlockResample)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The confidence-interval replicate loop end to end: resample + analyze,
/// 8 replicates per iteration. Arg(1) is core::analyze_with_confidence;
/// Arg(0) is the same loop over the frozen copying resampler (same point
/// estimate, substreams and percentile merge), so the two produce
/// byte-identical intervals with very different allocation profiles.
void BM_ConfidenceReplicates(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const bool by_view = state.range(0) != 0;
  const core::AutoSensOptions options;
  const core::ConfidenceOptions confidence{.replicates = 8};
  const std::vector<double> probes = {300.0, 500.0, 1000.0};
  for (auto _ : state) {
    stats::Random random(17);
    if (by_view) {
      auto result = core::analyze_with_confidence(dataset, options, probes, confidence, random);
      benchmark::DoNotOptimize(result.intervals.data());
      continue;
    }
    auto point = core::analyze(dataset, options);
    benchmark::DoNotOptimize(point.normalized.data());
    const std::uint64_t stream_base = random.engine()();
    std::vector<std::vector<std::optional<double>>> at_probe(confidence.replicates);
    core::parallel_for_items(confidence.replicates, options.threads, [&](std::size_t r) {
      stats::Random substream(stats::substream_seed(stream_base, r));
      try {
        const auto curve = core::analyze(day_block_resample_copy(dataset, substream), options);
        for (const double probe : probes) {
          at_probe[r].push_back(curve.covers(probe) ? std::optional(curve.at(probe))
                                                    : std::nullopt);
        }
      } catch (const std::invalid_argument&) {
        // Degenerate resample: contributes nothing, as in the library.
      }
    });
    const double alpha = 1.0 - confidence.confidence;
    std::vector<stats::Interval> intervals;
    for (std::size_t p = 0; p < probes.size(); ++p) {
      std::vector<double> draws;
      for (const auto& slot : at_probe) {
        if (p < slot.size() && slot[p]) draws.push_back(*slot[p]);
      }
      if (draws.size() < 2) {
        const double at = point.covers(probes[p]) ? point.at(probes[p]) : 0.0;
        intervals.push_back({at, at});
      } else {
        intervals.push_back({stats::quantile(draws, alpha / 2.0),
                             stats::quantile(draws, 1.0 - alpha / 2.0)});
      }
    }
    benchmark::DoNotOptimize(intervals.data());
  }
  state.SetLabel(by_view ? "view" : "copy");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(confidence.replicates));
}
BENCHMARK(BM_ConfidenceReplicates)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// One whole bootstrap replicate — α, B, U and the curve — serial as inside
/// the replicate loop, on one draw. Arg(0) gathers the resample's rows and
/// analyzes them (analyze_detailed(columns)); Arg(1) folds the parent's day
/// table (analyze_detailed(DrawnDays)), built once outside the timed loop as
/// analyze_with_confidence builds it once per call. Same draw, same bits.
void BM_Replicate(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const bool by_table = state.range(0) != 0;
  core::AutoSensOptions options;
  options.threads = 1;
  const auto columns = dataset.columns();
  const core::DayTable table(columns, options);
  stats::Random random(19);
  const auto drawn = core::draw_days(table.size(), random);
  for (auto _ : state) {
    if (by_table) {
      const auto result = core::analyze_detailed(core::DrawnDays{table, drawn}, options);
      benchmark::DoNotOptimize(result.preference.normalized.data());
    } else {
      const auto resample = core::day_block_resample(columns, table.days(), drawn);
      const auto result = core::analyze_detailed(resample.columns(), options);
      benchmark::DoNotOptimize(result.preference.normalized.data());
    }
  }
  state.SetLabel(by_table ? "table" : "rows");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(table.rows(drawn)));
}
BENCHMARK(BM_Replicate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The per-row scrub-and-slice that BM_ValidateSlice's Arg(0) freezes: each
/// surviving row gathered and pushed column by column onto six growing
/// vectors, once by the scrub (default ValidationOptions) and again by the
/// slice, whose predicate sees the record through std::function.
telemetry::Dataset per_row_validate_slice(const telemetry::Dataset& input,
                                          telemetry::ActionType action) {
  struct Columns {
    std::vector<std::int64_t> time;
    std::vector<double> latency;
    std::vector<std::uint64_t> user_id;
    std::vector<telemetry::ActionType> action;
    std::vector<telemetry::UserClass> user_class;
    std::vector<telemetry::ActionStatus> status;

    void push(const telemetry::ActionRecord& r) {
      time.push_back(r.time_ms);
      latency.push_back(r.latency_ms);
      user_id.push_back(r.user_id);
      action.push_back(r.action);
      user_class.push_back(r.user_class);
      status.push_back(r.status);
    }
    telemetry::Dataset adopt() {
      telemetry::Dataset out;
      out.adopt_columns(std::move(time), std::move(latency), std::move(user_id),
                        std::move(action), std::move(user_class), std::move(status));
      return out;
    }
  };
  const telemetry::ValidationOptions options;
  Columns scrubbed;
  const auto times = input.times();
  const auto latencies = input.latencies();
  const auto statuses = input.statuses();
  for (std::size_t i = 0; i < input.size(); ++i) {
    if (times[i] < options.min_time_ms || !std::isfinite(latencies[i]) ||
        statuses[i] == telemetry::ActionStatus::kError ||
        latencies[i] <= options.min_latency_ms || latencies[i] > options.max_latency_ms) {
      continue;
    }
    scrubbed.push(input[i]);
  }
  const telemetry::Dataset valid = scrubbed.adopt();
  const std::function<bool(const telemetry::ActionRecord&)> predicate =
      [action](const telemetry::ActionRecord& r) { return r.action == action; };
  Columns sliced;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const telemetry::ActionRecord record = valid[i];
    if (predicate(record)) sliced.push(record);
  }
  return sliced.adopt();
}

/// Scrub + slice on the shared 1M-record dataset, the glue in front of every
/// curve: Arg(0) the frozen per-row copy loops above, Arg(1) validate()'s row
/// selection and filtered()'s action-column scan plus one exact gather.
void BM_ValidateSlice(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const bool selection = state.range(0) != 0;
  constexpr auto kAction = telemetry::ActionType::kSelectMail;
  for (auto _ : state) {
    const telemetry::Dataset slice =
        selection ? telemetry::validate(dataset).dataset.filtered(telemetry::by_action(kAction))
                  : per_row_validate_slice(dataset, kAction);
    benchmark::DoNotOptimize(slice.times().data());
  }
  state.SetLabel(selection ? "selection" : "per_row");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_ValidateSlice)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Ingest engine (BENCH_ingest.json), fig3-scale (1M records). Arg(0) is the
// seed path — getline row-by-row for the text formats, serial ASL1 varint
// decode for binlog; Arg(N) is the chunked mmap-style path with N parse
// threads (the input is in memory either way, so the comparison isolates
// parse cost from disk).
//
// The `seed` namespace below is a frozen reconstruction of the pre-ingest-
// engine readers (commit e537279), kept verbatim so the before/after ratio
// in BENCH_ingest.json stays measurable after the originals were replaced:
// per-line std::vector<std::string_view> field splits for CSV, the callback
// ObjectParser with std::string error returns for JSONL, and the istream
// frame walk with payload copies, byte-at-a-time CRC, and per-record add()
// for ASL1 binlog.

namespace seed {

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(line.substr(start));
      break;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return fields;
}

template <typename T>
bool parse_number(std::string_view text, T& out) {
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(begin, end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

telemetry::CsvReadResult read_csv(std::istream& in) {
  telemetry::CsvReadResult result;
  std::string line;
  std::size_t line_number = 0;
  if (!std::getline(in, line)) {
    throw std::runtime_error("read_csv: empty input (missing header)");
  }
  ++line_number;
  if (trim(line) != telemetry::kCsvHeader) {
    throw std::runtime_error("read_csv: unexpected header: " + line);
  }
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto fields = split_fields(trimmed);
    if (fields.size() != 6) {
      result.errors.push_back(
          {line_number, "expected 6 fields, got " + std::to_string(fields.size())});
      continue;
    }
    telemetry::ActionRecord record;
    if (!parse_number(trim(fields[0]), record.time_ms)) {
      result.errors.push_back({line_number, "bad time_ms"});
      continue;
    }
    if (!parse_number(trim(fields[1]), record.user_id)) {
      result.errors.push_back({line_number, "bad user_id"});
      continue;
    }
    const auto action = telemetry::parse_action_type(trim(fields[2]));
    if (!action) {
      result.errors.push_back({line_number, "unknown action type"});
      continue;
    }
    record.action = *action;
    if (!parse_number(trim(fields[3]), record.latency_ms)) {
      result.errors.push_back({line_number, "bad latency_ms"});
      continue;
    }
    const auto user_class = telemetry::parse_user_class(trim(fields[4]));
    if (!user_class) {
      result.errors.push_back({line_number, "unknown user class"});
      continue;
    }
    record.user_class = *user_class;
    const auto status = telemetry::parse_action_status(trim(fields[5]));
    if (!status) {
      result.errors.push_back({line_number, "unknown status"});
      continue;
    }
    record.status = *status;
    result.dataset.add(record);
  }
  result.dataset.sort_by_time();
  return result;
}

class ObjectParser {
 public:
  explicit ObjectParser(std::string_view text) : text_(text) {}

  template <typename Callback>
  std::string parse(Callback&& on_field) {
    skip_space();
    if (!consume('{')) return "expected '{'";
    skip_space();
    if (consume('}')) return finish();
    for (;;) {
      std::string_view key;
      if (!parse_string(key)) return "expected string key";
      skip_space();
      if (!consume(':')) return "expected ':'";
      skip_space();
      std::string_view value;
      bool is_string = false;
      if (peek() == '"') {
        if (!parse_string(value)) return "bad string value";
        is_string = true;
      } else {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != ',' && text_[pos_] != '}' &&
               !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        value = text_.substr(start, pos_ - start);
        if (value.empty()) return "expected value";
      }
      const std::string error = on_field(key, value, is_string);
      if (!error.empty()) return error;
      skip_space();
      if (consume(',')) {
        skip_space();
        continue;
      }
      if (consume('}')) return finish();
      return "expected ',' or '}'";
    }
  }

 private:
  std::string finish() {
    skip_space();
    return pos_ == text_.size() ? "" : "trailing characters after object";
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool parse_string(std::string_view& out) {
    if (!consume('"')) return false;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') return false;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    out = text_.substr(start, pos_ - start);
    ++pos_;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

telemetry::JsonlReadResult read_jsonl(std::istream& in) {
  telemetry::JsonlReadResult result;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = line;
    while (!trimmed.empty() && std::isspace(static_cast<unsigned char>(trimmed.back()))) {
      trimmed.remove_suffix(1);
    }
    if (trimmed.empty()) continue;
    telemetry::ActionRecord record;
    bool saw_time = false;
    bool saw_user = false;
    bool saw_action = false;
    bool saw_latency = false;
    bool saw_class = false;
    bool saw_status = false;
    ObjectParser parser(trimmed);
    const std::string error = parser.parse(
        [&](std::string_view key, std::string_view value, bool is_string) -> std::string {
          if (key == "time_ms" && !is_string) {
            if (!parse_number(value, record.time_ms)) return "bad time_ms";
            saw_time = true;
          } else if (key == "user_id" && !is_string) {
            if (!parse_number(value, record.user_id)) return "bad user_id";
            saw_user = true;
          } else if (key == "latency_ms" && !is_string) {
            if (!parse_number(value, record.latency_ms)) return "bad latency_ms";
            saw_latency = true;
          } else if (key == "action" && is_string) {
            const auto parsed = telemetry::parse_action_type(value);
            if (!parsed) return "unknown action type";
            record.action = *parsed;
            saw_action = true;
          } else if (key == "user_class" && is_string) {
            const auto parsed = telemetry::parse_user_class(value);
            if (!parsed) return "unknown user class";
            record.user_class = *parsed;
            saw_class = true;
          } else if (key == "status" && is_string) {
            const auto parsed = telemetry::parse_action_status(value);
            if (!parsed) return "unknown status";
            record.status = *parsed;
            saw_status = true;
          } else {
            return "unknown key: " + std::string(key);
          }
          return "";
        });
    if (!error.empty()) {
      result.errors.push_back({line_number, error});
      continue;
    }
    if (!(saw_time && saw_user && saw_action && saw_latency && saw_class && saw_status)) {
      result.errors.push_back({line_number, "missing required field"});
      continue;
    }
    result.dataset.add(record);
  }
  result.dataset.sort_by_time();
  return result;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t byte : data) crc = table[(crc ^ byte) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

bool get_u32(std::istream& in, std::uint32_t& value) {
  std::array<std::uint8_t, 4> bytes{};
  if (!in.read(reinterpret_cast<char*>(bytes.data()), 4)) return false;
  value = static_cast<std::uint32_t>(bytes[0]) |
          (static_cast<std::uint32_t>(bytes[1]) << 8) |
          (static_cast<std::uint32_t>(bytes[2]) << 16) |
          (static_cast<std::uint32_t>(bytes[3]) << 24);
  return true;
}

telemetry::Dataset read_binlog(std::istream& in) {
  std::array<char, 4> magic{};
  if (!in.read(magic.data(), magic.size()) ||
      !(magic[0] == 'A' && magic[1] == 'S' && magic[2] == 'L' && magic[3] == '1')) {
    throw std::runtime_error("read_binlog: bad magic");
  }
  telemetry::Dataset dataset;
  std::uint32_t payload_len = 0;
  while (get_u32(in, payload_len)) {
    std::vector<std::uint8_t> payload(payload_len);
    if (payload_len > 0 && !in.read(reinterpret_cast<char*>(payload.data()), payload_len)) {
      throw std::runtime_error("read_binlog: truncated payload");
    }
    std::uint32_t stored_crc = 0;
    if (!get_u32(in, stored_crc)) throw std::runtime_error("read_binlog: truncated crc");
    if (stored_crc != crc32(payload)) {
      throw std::runtime_error("read_binlog: crc mismatch");
    }
    for (const auto& r : telemetry::codec::decode_batch(payload)) dataset.add(r);
  }
  if (!in.eof() && in.fail()) throw std::runtime_error("read_binlog: stream read failed");
  dataset.sort_by_time();
  return dataset;
}

}  // namespace seed

const std::string& million_record_csv() {
  static const std::string text = [] {
    std::ostringstream out;
    telemetry::write_csv(out, million_record_dataset());
    return out.str();
  }();
  return text;
}

const std::string& million_record_jsonl() {
  static const std::string text = [] {
    std::ostringstream out;
    telemetry::write_jsonl(out, million_record_dataset());
    return out.str();
  }();
  return text;
}

void BM_IngestCsv(benchmark::State& state) {
  const std::string& text = million_record_csv();
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::istringstream in(text);
  for (auto _ : state) {
    if (threads == 0) {
      in.clear();
      in.seekg(0);
      auto result = seed::read_csv(in);
      benchmark::DoNotOptimize(result.dataset.times().data());
    } else {
      auto result = telemetry::read_csv_buffer(text, {.threads = threads});
      benchmark::DoNotOptimize(result.dataset.times().data());
    }
  }
  state.SetLabel(threads == 0 ? "seed_getline" : "chunked");
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(million_record_dataset().size()));
}
BENCHMARK(BM_IngestCsv)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_IngestJsonl(benchmark::State& state) {
  const std::string& text = million_record_jsonl();
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::istringstream in(text);
  for (auto _ : state) {
    if (threads == 0) {
      in.clear();
      in.seekg(0);
      auto result = seed::read_jsonl(in);
      benchmark::DoNotOptimize(result.dataset.times().data());
    } else {
      auto result = telemetry::read_jsonl_buffer(text, {.threads = threads});
      benchmark::DoNotOptimize(result.dataset.times().data());
    }
  }
  state.SetLabel(threads == 0 ? "seed_getline" : "chunked");
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(million_record_dataset().size()));
}
BENCHMARK(BM_IngestJsonl)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_IngestBinlog(benchmark::State& state) {
  // Arg(0): the seed format and path — ASL1 rows, serial varint decode.
  // Arg(N): ASL2 columnar frames, CRC + memcpy with N threads.
  static const std::string v1_bytes = [] {
    std::ostringstream out;
    telemetry::write_binlog_v1(out, million_record_dataset());
    return out.str();
  }();
  static const std::string v2_bytes = [] {
    std::ostringstream out;
    telemetry::write_binlog(out, million_record_dataset());
    return out.str();
  }();
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::string& bytes = threads == 0 ? v1_bytes : v2_bytes;
  const std::span<const std::uint8_t> view(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  std::istringstream in(bytes);
  for (auto _ : state) {
    if (threads == 0) {
      in.clear();
      in.seekg(0);
      auto dataset = seed::read_binlog(in);
      benchmark::DoNotOptimize(dataset.times().data());
    } else {
      auto dataset = telemetry::read_binlog_buffer(view, {.threads = threads});
      benchmark::DoNotOptimize(dataset.times().data());
    }
  }
  state.SetLabel(threads == 0 ? "seed_v1_serial" : "v2_columnar");
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(million_record_dataset().size()));
}
BENCHMARK(BM_IngestBinlog)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// SIMD analysis kernels (BENCH_kernels.json): the two row-sized histogram
// fills, fig3-scale inputs. Arg(0) pins
// the scalar path, Arg(1) runs the detected dispatch level, so the
// scalar-vs-SIMD speedup is computable from one JSON. Run with
// --benchmark_repetitions=N so every row carries per-repetition samples for
// the robust regression gate (tools/check_bench_regression.py).

/// Pin the SIMD dispatch level for one benchmark run.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(bool dispatch) {
    core::simd::set_level_override(dispatch ? core::simd::detected_level()
                                            : core::simd::Level::kScalar);
  }
  ~ScopedSimdLevel() { core::simd::set_level_override(std::nullopt); }
};

const char* simd_label(benchmark::State& state) {
  return state.range(0) != 0 ? "dispatch" : "scalar";
}

/// Biased histogram fill: 1M unit-weight adds into the fig3 latency geometry.
void BM_KernelBiasedFill(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const auto latencies = dataset.latencies();
  ScopedSimdLevel level(state.range(0) != 0);
  for (auto _ : state) {
    stats::Histogram histogram(0.0, 10.0, 300);
    histogram.add_all(latencies);
    benchmark::DoNotOptimize(histogram.total_weight());
  }
  state.SetLabel(simd_label(state));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(latencies.size()));
}
BENCHMARK(BM_KernelBiasedFill)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Unbiased histogram fill: 1M Voronoi-weighted adds (weights precomputed so
/// the benchmark isolates the weighted fill, not the weight pass).
void BM_KernelUnbiasedFill(benchmark::State& state) {
  const auto& dataset = million_record_dataset();
  const auto latencies = dataset.latencies();
  static const std::vector<double> weights = [&] {
    const auto times = dataset.times();
    return stats::voronoi_weights(times, dataset.begin_time(), dataset.end_time());
  }();
  ScopedSimdLevel level(state.range(0) != 0);
  for (auto _ : state) {
    stats::Histogram histogram(0.0, 10.0, 300);
    histogram.add_all(latencies, weights);
    benchmark::DoNotOptimize(histogram.total_weight());
  }
  state.SetLabel(simd_label(state));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(latencies.size()));
}
BENCHMARK(BM_KernelUnbiasedFill)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Net fan-in saturation sweep (BENCH_net.json): records/s vs simulated
// session count for the two ingestion paths — the sharded epoll collector
// at 1/2/4 shards (the 1-shard rows are the single-loop baseline) and the
// batched UDP transport. Every row ships (roughly) the same total record
// budget; the sweep axis is how many sessions it is split across, so
// high-session rows measure connection churn and fan-in, not payload
// volume. Concurrency is capped at kNetBenchThreads emitter threads that
// work through the session list, mimicking a bounded client pool in front
// of a much larger session population.

constexpr std::size_t kNetRecordBudget = 65'536;  ///< Records per iteration.
constexpr std::size_t kNetBenchThreads = 64;      ///< Concurrent emitter cap.
/// UDP has no backpressure: 64 unthrottled senders on one core overflow the
/// receive buffer faster than the collector can drain it, losing goodbyes
/// (all copies) and turning the row into an idle-timeout measurement. A
/// smaller pool keeps the burst inside the tuned rcvbuf.
constexpr std::size_t kNetUdpBenchThreads = 16;

const std::vector<telemetry::ActionRecord>& net_bench_batch(std::size_t per_session) {
  static std::vector<telemetry::ActionRecord> records;
  if (records.size() != per_session) {
    records.clear();
    records.reserve(per_session);
    for (std::size_t i = 0; i < per_session; ++i) {
      records.push_back({.time_ms = static_cast<std::int64_t>(i + 1),
                         .user_id = 1 + i % 7,
                         .latency_ms = 1.0 + 0.01 * static_cast<double>(i % 1000),
                         .action = telemetry::ActionType::kSearch,
                         .user_class = telemetry::UserClass::kConsumer,
                         .status = telemetry::ActionStatus::kSuccess});
    }
  }
  return records;
}

/// Drive `sessions` TCP sessions against the collector on `port`, at most
/// kNetBenchThreads concurrently; each session connects, ships one batch of
/// records, and closes with a goodbye.
void run_net_tcp_sessions(std::uint16_t port, std::size_t sessions,
                          const std::vector<telemetry::ActionRecord>& records) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const std::size_t pool = std::min(sessions, kNetBenchThreads);
  threads.reserve(pool);
  for (std::size_t t = 0; t < pool; ++t) {
    threads.emplace_back([&] {
      for (std::size_t s = next.fetch_add(1); s < sessions; s = next.fetch_add(1)) {
        net::EmitterOptions options;
        options.batch_size = 256;
        options.session_id = s + 1;
        net::Emitter emitter(port, options);
        for (const auto& r : records) emitter.record(r);
        emitter.close();
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

/// UDP twin of run_net_tcp_sessions (datagram batching, goodbye copies and
/// the close-time retransmit pass at their defaults).
void run_net_udp_sessions(std::uint16_t port, std::size_t sessions,
                          const std::vector<telemetry::ActionRecord>& records) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const std::size_t pool = std::min(sessions, kNetUdpBenchThreads);
  threads.reserve(pool);
  for (std::size_t t = 0; t < pool; ++t) {
    threads.emplace_back([&] {
      for (std::size_t s = next.fetch_add(1); s < sessions; s = next.fetch_add(1)) {
        net::UdpEmitterOptions options;
        options.batch_size = 256;
        options.sndbuf_bytes = 1 << 20;
        options.session_id = s + 1;
        net::UdpEmitter emitter(port, options);
        for (const auto& r : records) emitter.record(r);
        emitter.close();
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

std::size_t net_bench_per_session(std::size_t sessions) {
  return std::max<std::size_t>(1, kNetRecordBudget / sessions);
}

/// Sharded epoll collector; Args are {sessions, shards}.
void BM_NetTcpSharded(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto& records = net_bench_batch(net_bench_per_session(sessions));
  net::CollectorOptions options;
  options.shards = shards;
  std::int64_t delivered = 0;
  for (auto _ : state) {
    net::CollectorThread collector(sessions, options, /*timeout_ms=*/20'000);
    run_net_tcp_sessions(collector.port(), sessions, records);
    delivered += static_cast<std::int64_t>(collector.join().size());
  }
  state.SetLabel("sharded_epoll");
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_NetTcpSharded)->ArgsProduct({{1, 64, 1024, 10'000}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// UDP transport through the sharded collector; Args are {sessions, shards}.
void BM_NetUdp(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto& records = net_bench_batch(net_bench_per_session(sessions));
  net::CollectorOptions options;
  options.transport = net::Transport::kUdp;
  options.shards = shards;
  options.rcvbuf_bytes = 1 << 22;  // Loopback bursts overflow default buffers.
  std::int64_t delivered = 0;
  for (auto _ : state) {
    // Short idle timeout: a rare lost-goodbye session (datagrams are allowed
    // to die) must not turn the row into a timeout measurement.
    net::CollectorThread collector(sessions, options, /*timeout_ms=*/5'000);
    run_net_udp_sessions(collector.port(), sessions, records);
    delivered += static_cast<std::int64_t>(collector.join().size());
  }
  state.SetLabel("udp_recvmmsg");
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_NetUdp)->ArgsProduct({{1, 64, 1024, 10'000}, {1, 4}})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Out-of-core store (BENCH_store.json): full-store streaming scan throughput
// (bytes/s over the raw row payload) and the windowed analyze wall-clock,
// store-streamed vs the same windows filtered out of the in-memory dataset.
// Run with --benchmark_repetitions=5 for the regression gate's spike filter.

/// The shared 1M-record dataset spilled to an ASL3 store once per process.
const std::string& bench_store_dir() {
  static const std::string dir = [] {
    const auto path = std::filesystem::temp_directory_path() / "autosens_bench_store";
    std::filesystem::remove_all(path);
    telemetry::store::build_store(million_record_dataset(), path.string());
    return path.string();
  }();
  return dir;
}

/// Sequential scan of every partition into the biased latency histogram —
/// the store's streaming read throughput with decode + CRC on the hot path.
void BM_StoreScan(benchmark::State& state) {
  const auto store = telemetry::store::StoredDataset::open(bench_store_dir());
  const core::AutoSensOptions options;
  for (auto _ : state) {
    auto histogram = core::scan_biased_histogram(store, options);
    benchmark::DoNotOptimize(histogram.total_weight());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(store.raw_bytes()));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(store.rows()));
}
BENCHMARK(BM_StoreScan)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Windowed analysis over the whole time range (7-day windows over 14 days).
/// Arg(0): in-memory baseline — windows filtered out of the resident dataset.
/// Arg(1): the out-of-core path — windows loaded from pruned partitions.
void BM_StoreAnalyze(benchmark::State& state) {
  const bool streamed = state.range(0) == 1;
  const auto store = telemetry::store::StoredDataset::open(bench_store_dir());
  const auto& dataset = million_record_dataset();
  const core::AutoSensOptions options;
  core::StoreStreamOptions stream;
  stream.window_ms = 7 * telemetry::kMillisPerDay;
  stream.scrub = false;  // Both sides analyze the raw windows.
  for (auto _ : state) {
    std::size_t records = 0;
    if (streamed) {
      core::analyze_store_windows(store, options, stream,
                                  [&](const core::StoreWindowResult& w) { records += w.records; });
    } else {
      for (std::int64_t begin = store.min_time_ms(); begin <= store.max_time_ms();
           begin += stream.window_ms) {
        const std::int64_t end = begin + stream.window_ms;
        const auto window = dataset.filtered([&](const telemetry::ActionRecord& r) {
          return r.time_ms >= begin && r.time_ms < end;
        });
        auto result = core::analyze(window, options);
        benchmark::DoNotOptimize(result.normalized.data());
        records += window.size();
      }
    }
    if (records != dataset.size()) state.SkipWithError("window tiling lost records");
  }
  state.SetLabel(streamed ? "store_windows" : "in_memory_windows");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_StoreAnalyze)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_EndToEndAnalysis(benchmark::State& state) {
  auto config = simulate::paper_config(simulate::Scale::kTiny, 9);
  auto generated = simulate::WorkloadGenerator(config).generate();
  const auto slice = telemetry::validate(generated.dataset)
                         .dataset.filtered(telemetry::by_action(
                             telemetry::ActionType::kSelectMail));
  const core::AutoSensOptions options;
  for (auto _ : state) {
    auto result = core::analyze(slice, options);
    benchmark::DoNotOptimize(result.normalized.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(slice.size()));
}
BENCHMARK(BM_EndToEndAnalysis);

}  // namespace
