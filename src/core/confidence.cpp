#include "core/confidence.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/parallel.h"
#include "core/pipeline.h"
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
    times_ = stats::PooledVector<std::int64_t>(size_);
    latencies_ = stats::PooledVector<double>(size_);
    std::size_t out = 0;
    for (const auto& block : blocks_) {
      for (std::size_t i = block.first; i < block.last; ++i, ++out) {
        times_[out] = parent_.times[i] + block.time_shift;
        latencies_[out] = parent_.latencies[i];
      }
    }
  }
  return {times_.span(), latencies_.span()};
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

  // Replicates are block tables over the parent's non-empty days. The α
  // inputs of every analysis here, the point estimate's included, fold the
  // parent's per-day table (built once, dropped on return) instead of
  // rescanning every row.
  const auto columns = dataset.columns();
  const auto days = day_ranges(columns.times);
  std::optional<AlphaDayTable> alpha_days;
  if (options.normalize_time_confounder) alpha_days.emplace(columns, options);
  const auto curve_of = [&](telemetry::SampleColumns analyzed,
                            std::span<const std::size_t> drawn) {
    return (alpha_days ? analyze_detailed(analyzed, DrawnDays{*alpha_days, drawn}, options)
                       : analyze_detailed(analyzed, options))
        .preference;
  };

  PreferenceWithConfidence result;
  std::vector<std::size_t> every_day(days.size());
  std::iota(every_day.begin(), every_day.end(), std::size_t{0});
  result.point = curve_of(columns, every_day);
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
        stats::Random substream(stats::substream_seed(stream_base, r));
        auto& slot = replicate_draws[r];
        slot.at_probe.assign(result.probe_latency_ms.size(), std::nullopt);
        try {
          // O(days) setup, no record copy or re-sort.
          const auto drawn = draw_days(days.size(), substream);
          const auto resample = day_block_resample(columns, days, drawn);
          const auto curve = curve_of(resample.columns(), drawn);
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
