#include "core/confidence.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/parallel.h"
#include "core/pipeline.h"
#include "obs/trace.h"
#include "stats/descriptive.h"
#include "telemetry/clock.h"

namespace autosens::core {

Resample::Resample(telemetry::SampleColumns parent, std::vector<Block> blocks)
    : parent_(parent), blocks_(std::move(blocks)) {
  for (const auto& block : blocks_) {
    if (block.last < block.first || block.last > parent_.size()) {
      throw std::invalid_argument("Resample: block out of range");
    }
    size_ += block.last - block.first;
  }
}

telemetry::SampleColumns Resample::columns() const {
  // Gathered once: the buffers hold size_ rows from then on.
  if (times_.size() != size_) {
    times_.reserve(size_);
    latencies_.reserve(size_);
    for (const auto& block : blocks_) {
      for (std::size_t i = block.first; i < block.last; ++i) {
        times_.push_back(parent_.times[i] + block.time_shift);
      }
      latencies_.insert(latencies_.end(), parent_.latencies.begin() + block.first,
                        parent_.latencies.begin() + block.last);
    }
  }
  return {times_, latencies_};
}

Resample day_block_resample(const telemetry::Dataset& dataset, stats::Random& random) {
  if (dataset.empty()) throw std::invalid_argument("day_block_resample: empty dataset");
  if (!dataset.is_sorted()) {
    throw std::invalid_argument("day_block_resample: dataset not sorted");
  }
  const auto columns = dataset.columns();
  const auto days = day_ranges(columns.times);
  return day_block_resample(columns, days, draw_days(days.size(), random));
}

std::vector<std::size_t> draw_days(std::size_t day_count, stats::Random& random) {
  std::vector<std::size_t> drawn(day_count);
  for (auto& day : drawn) day = random.uniform_index(day_count);
  return drawn;
}

Resample day_block_resample(telemetry::SampleColumns parent,
                            std::span<const DayRange> days,
                            std::span<const std::size_t> drawn) {
  // Slot s holds its drawn day shifted onto day s; slot-major order is
  // globally time-sorted.
  std::vector<Resample::Block> blocks;
  blocks.reserve(drawn.size());
  for (std::size_t slot = 0; slot < drawn.size(); ++slot) {
    if (drawn[slot] >= days.size()) {
      throw std::invalid_argument("day_block_resample: drawn day out of range");
    }
    const auto& source = days[drawn[slot]];
    const std::int64_t day_shift =
        (static_cast<std::int64_t>(slot) - source.day) * telemetry::kMillisPerDay;
    blocks.push_back({source.first, source.last, day_shift});
  }
  return Resample(parent, std::move(blocks));
}

PreferenceWithConfidence analyze_with_confidence(const telemetry::Dataset& dataset,
                                                 const AutoSensOptions& options,
                                                 std::vector<double> probe_latencies,
                                                 const ConfidenceOptions& confidence,
                                                 stats::Random& random) {
  if (confidence.replicates == 0) {
    throw std::invalid_argument("analyze_with_confidence: replicates must be nonzero");
  }
  if (!(confidence.confidence > 0.0 && confidence.confidence < 1.0)) {
    throw std::invalid_argument("analyze_with_confidence: confidence must be in (0,1)");
  }

  if (dataset.empty()) throw std::invalid_argument("analyze: empty dataset");
  if (!dataset.is_sorted()) throw std::invalid_argument("analyze: dataset not sorted");

  // Every analysis here, the point estimate's included, folds the parent's
  // per-day table (built once, dropped on return) instead of rescanning
  // rows; only a Monte-Carlo U still gathers a replicate's rows.
  const auto columns = dataset.columns();
  const DayTable table(columns, options);
  const auto curve_of = [&](DrawnDays draw) {
    if (options.unbiased_method != UnbiasedMethod::kMonteCarlo) {
      return analyze_detailed(draw, options).preference;
    }
    if (draw.own_dates) return analyze_detailed(draw, options, columns).preference;
    const auto resample = day_block_resample(columns, table.days(), draw.drawn);
    return analyze_detailed(draw, options, resample.columns()).preference;
  };

  PreferenceWithConfidence result;
  std::vector<std::size_t> every_day(table.size());
  std::iota(every_day.begin(), every_day.end(), std::size_t{0});
  result.point = curve_of({.table = table, .drawn = every_day, .own_dates = true});
  result.probe_latency_ms = std::move(probe_latencies);

  // Each replicate resamples from its own counter-seeded substream and
  // records its per-probe values into a private slot; the slots merge in
  // replicate order, so the intervals are byte-identical for any
  // options.threads. The inner analyze() calls serialize automatically
  // inside the replicate-level parallel region.
  struct Replicate {
    bool usable = false;
    std::vector<std::optional<double>> at_probe;
  };
  const std::uint64_t stream_base = random.engine()();
  std::vector<Replicate> replicate_draws(confidence.replicates);
  parallel_for_items(
      confidence.replicates, options.threads, [&](std::size_t r) {
        obs::Span span("replicate");
        stats::Random substream(stats::substream_seed(stream_base, r));
        auto& slot = replicate_draws[r];
        slot.at_probe.assign(result.probe_latency_ms.size(), std::nullopt);
        try {
          // O(days) draw; the analysis folds the drawn days' table entries.
          const auto drawn = draw_days(table.size(), substream);
          const auto curve = curve_of({.table = table, .drawn = drawn});
          slot.usable = true;
          for (std::size_t p = 0; p < result.probe_latency_ms.size(); ++p) {
            if (curve.covers(result.probe_latency_ms[p])) {
              slot.at_probe[p] = curve.at(result.probe_latency_ms[p]);
            }
          }
        } catch (const std::invalid_argument&) {
          // Degenerate resample (e.g. reference latency unsupported): skip.
        }
      });

  std::vector<std::vector<double>> draws(result.probe_latency_ms.size());
  for (const auto& slot : replicate_draws) {
    if (!slot.usable) continue;
    ++result.usable_replicates;
    for (std::size_t p = 0; p < draws.size(); ++p) {
      if (slot.at_probe[p]) draws[p].push_back(*slot.at_probe[p]);
    }
  }

  result.intervals.resize(result.probe_latency_ms.size());
  const double alpha = 1.0 - confidence.confidence;
  for (std::size_t p = 0; p < draws.size(); ++p) {
    if (draws[p].size() < 2) {
      // No usable replicates at this probe: degenerate interval around the
      // point estimate (callers can detect lo == hi).
      const double point = result.point.covers(result.probe_latency_ms[p])
                               ? result.point.at(result.probe_latency_ms[p])
                               : 0.0;
      result.intervals[p] = {point, point};
      continue;
    }
    result.intervals[p] = {stats::quantile(draws[p], alpha / 2.0),
                           stats::quantile(draws[p], 1.0 - alpha / 2.0)};
  }
  return result;
}

}  // namespace autosens::core
