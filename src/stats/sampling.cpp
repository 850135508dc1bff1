#include "stats/sampling.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace autosens::stats {
namespace {

/// [first, last) range of indices in `times` holding the same value as
/// times[idx].
std::pair<std::size_t, std::size_t> equal_time_run(std::span<const std::int64_t> times,
                                                   std::size_t idx) {
  const std::int64_t value = times[idx];
  std::size_t first = idx;
  while (first > 0 && times[first - 1] == value) --first;
  std::size_t last = idx + 1;
  while (last < times.size() && times[last] == value) ++last;
  return {first, last};
}

/// nearest_sample_index with the input validation hoisted out (the draw loop
/// calls this once per draw; `times` is known non-empty there).
std::size_t nearest_index_unchecked(std::span<const std::int64_t> times, std::int64_t t,
                                    Random& random) {
  const auto it = std::lower_bound(times.begin(), times.end(), t);
  std::size_t chosen = 0;
  if (it == times.end()) {
    chosen = times.size() - 1;
  } else if (it == times.begin()) {
    chosen = 0;
  } else {
    const auto right = static_cast<std::size_t>(it - times.begin());
    const std::size_t left = right - 1;
    const std::int64_t d_left = t - times[left];
    const std::int64_t d_right = times[right] - t;
    if (d_left < d_right) {
      chosen = left;
    } else if (d_right < d_left) {
      chosen = right;
    } else {
      chosen = random.bernoulli(0.5) ? left : right;
    }
  }
  // Paper §2.2: multiple samples at the chosen time → pick one at random.
  const auto [first, last] = equal_time_run(times, chosen);
  if (last - first > 1) {
    chosen = first + static_cast<std::size_t>(random.uniform_index(last - first));
  }
  return chosen;
}

/// Weights and total cell length of sorted, non-empty `times`.
double voronoi_fill(std::span<const std::int64_t> times, double begin, double end,
                    std::span<double> weights) {
  const std::size_t n = times.size();
  double total = 0.0;
  std::size_t i = 0;
  while (i < n) {
    // Group duplicates: they split their shared cell equally (the random
    // tie-break of the sampling procedure is uniform over them).
    std::size_t j = i + 1;
    while (j < n && times[j] == times[i]) ++j;
    const double cell =
        voronoi_cell(i == 0 ? std::nullopt : std::optional(times[i - 1]), times[i],
                     j == n ? std::nullopt : std::optional(times[j]), begin, end);
    const double share = cell / static_cast<double>(j - i);
    for (std::size_t k = i; k < j; ++k) weights[k] = share;
    total += cell;
    i = j;
  }
  return total;
}

}  // namespace

std::size_t nearest_sample_index(std::span<const std::int64_t> times, std::int64_t t,
                                 Random& random) {
  if (times.empty()) throw std::invalid_argument("nearest_sample_index: empty times");
  return nearest_index_unchecked(times, t, random);
}

std::vector<std::size_t> nearest_sample_draws(std::span<const std::int64_t> times,
                                              std::int64_t window_begin,
                                              std::int64_t window_end, std::size_t draws,
                                              Random& random) {
  if (times.empty()) throw std::invalid_argument("nearest_sample_draws: empty times");
  if (!(window_end > window_begin)) {
    throw std::invalid_argument("nearest_sample_draws: empty window");
  }
  std::vector<std::size_t> out;
  out.reserve(draws);
  const double span = static_cast<double>(window_end - window_begin);
  for (std::size_t i = 0; i < draws; ++i) {
    const auto t = window_begin + static_cast<std::int64_t>(random.uniform() * span);
    out.push_back(nearest_index_unchecked(times, t, random));
  }
  return out;
}

std::vector<double> voronoi_weights(std::span<const std::int64_t> times,
                                    std::int64_t window_begin, std::int64_t window_end) {
  if (times.empty()) throw std::invalid_argument("voronoi_weights: empty times");
  if (!(window_end > window_begin)) throw std::invalid_argument("voronoi_weights: empty window");
  std::vector<double> weights(times.size());
  // Cells are exact half-integer milliseconds, so their total is exact too.
  const double total = voronoi_fill(times, static_cast<double>(window_begin),
                                    static_cast<double>(window_end), weights);
  if (total > 0.0) {
    const double inv = 1.0 / total;
    for (double& w : weights) w *= inv;
  }
  return weights;
}

}  // namespace autosens::stats
