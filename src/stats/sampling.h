// Nearest-in-time sampling — the paper's procedure for estimating the
// unbiased latency distribution U (§2.2): pick a uniformly random time in the
// observation window and take the latency sample closest in time; break ties
// at random.
//
// Also provides the exact expectation of that procedure: the probability that
// sample i is selected equals the length of its Voronoi cell (the interval of
// times closer to t_i than to any other sample) divided by the window length.
// The Monte-Carlo and Voronoi estimators are cross-checked in tests and
// compared in bench/ablation_estimators.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace autosens::stats {

/// Index of the sample whose time is nearest to `t`.
/// `times` must be sorted ascending and non-empty. Among equidistant / equal
/// times the choice is made uniformly at random via `random`.
std::size_t nearest_sample_index(std::span<const std::int64_t> times, std::int64_t t,
                                 Random& random);

/// Draw `draws` nearest-sample indices for uniformly random times in
/// [window_begin, window_end). `times` must be sorted ascending, non-empty.
/// Throws std::invalid_argument if the window is empty or times is empty.
std::vector<std::size_t> nearest_sample_draws(std::span<const std::int64_t> times,
                                              std::int64_t window_begin,
                                              std::int64_t window_end, std::size_t draws,
                                              Random& random);

/// The Voronoi cell length (ms) of an equal-time run of samples at `time`:
/// the part of [window_begin, window_end] nearer to it than to the runs at
/// `previous` and `next` (std::nullopt: no sample on that side). Cell edges
/// are the midpoints 0.5·(a+b), exact half-integer milliseconds while
/// |times| < 2⁵², so a cell is an exact double and unchanged when every time
/// shifts by the same whole number of milliseconds. The run's samples share
/// the cell equally. Both voronoi_weights and the Voronoi U
/// (core/unbiased.h) compute cells here; inline, as it runs once per row.
inline double voronoi_cell(std::optional<std::int64_t> previous, std::int64_t time,
                           std::optional<std::int64_t> next, double window_begin,
                           double window_end) noexcept {
  const double t = static_cast<double>(time);
  const double left =
      previous ? std::max(window_begin, 0.5 * (static_cast<double>(*previous) + t))
               : window_begin;
  const double right =
      next ? std::min(window_end, 0.5 * (t + static_cast<double>(*next))) : window_end;
  return std::max(0.0, right - left);
}

/// Exact selection probabilities of the nearest-sample procedure: weight[i] is
/// the fraction of [window_begin, window_end) whose nearest sample is i, with
/// exact ties (duplicate timestamps) sharing their cell equally. Weights sum
/// to 1. `times` sorted ascending, non-empty; window must be non-empty. A
/// serial pass: its callers weigh one small window at a time (the α
/// fractions' class windows, core::add_window_unbiased).
std::vector<double> voronoi_weights(std::span<const std::int64_t> times,
                                    std::int64_t window_begin, std::int64_t window_end);

}  // namespace autosens::stats
