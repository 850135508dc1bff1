#include "core/preference.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"
#include "stats/savitzky_golay.h"

namespace autosens::core {

double PreferenceResult::at(double latency) const {
  if (!covers(latency)) {
    throw std::out_of_range("PreferenceResult::at: latency outside supported range");
  }
  // Bin centers are evenly spaced; interpolate between the two neighbors.
  const double step = latency_ms[1] - latency_ms[0];
  const double pos = (latency - latency_ms[support_begin]) / step;
  const auto lo = support_begin + static_cast<std::size_t>(std::max(0.0, pos));
  const auto hi = std::min(lo + 1, support_end - 1);
  const double frac = std::clamp(pos - std::floor(pos), 0.0, 1.0);
  return normalized[lo] * (1.0 - frac) + normalized[hi] * frac;
}

bool PreferenceResult::covers(double latency) const noexcept {
  if (support_end <= support_begin || latency_ms.size() < 2) return false;
  return latency >= latency_ms[support_begin] && latency <= latency_ms[support_end - 1];
}

PreferenceResult compute_preference(const stats::Histogram& biased,
                                    const stats::Histogram& unbiased,
                                    const AutoSensOptions& options) {
  const std::size_t bins = biased.size();
  if (unbiased.size() != bins || biased.bin_width() != unbiased.bin_width()) {
    throw std::invalid_argument("compute_preference: histogram geometry mismatch");
  }
  if (biased.total_weight() <= 0.0 || unbiased.total_weight() <= 0.0) {
    throw std::invalid_argument("compute_preference: empty histogram");
  }

  PreferenceResult result;
  result.reference_latency_ms = options.reference_latency_ms;
  result.biased_samples = static_cast<std::size_t>(biased.total_weight() + 0.5);
  result.latency_ms.resize(bins);
  result.raw_ratio.assign(bins, 0.0);
  result.valid.assign(bins, 0);

  // Bin-wise ratio of probability masses (bin widths cancel). The first and
  // last bins are clamp/overflow buckets and never count as supported.
  const double b_total = biased.total_weight();
  const double u_total = unbiased.total_weight();
  for (std::size_t i = 0; i < bins; ++i) {
    result.latency_ms[i] = biased.bin_center(i);
    if (i == 0 || i + 1 == bins) continue;
    const double b_mass = biased.count(i);
    const double u_mass = unbiased.count(i) / u_total;
    if (b_mass >= options.min_biased_count && u_mass >= options.min_unbiased_mass) {
      result.raw_ratio[i] = (b_mass / b_total) / u_mass;
      result.valid[i] = 1;
    }
  }

  // Supported range = [first valid, last valid]. Interior gaps (bins that
  // failed the support guards) are linearly interpolated so the smoother
  // sees a contiguous signal.
  const auto first_valid = std::find(result.valid.begin(), result.valid.end(), 1);
  if (first_valid == result.valid.end()) {
    throw std::invalid_argument("compute_preference: no supported bins");
  }
  result.support_begin = static_cast<std::size_t>(first_valid - result.valid.begin());
  result.support_end =
      bins - static_cast<std::size_t>(
                 std::find(result.valid.rbegin(), result.valid.rend(), 1) -
                 result.valid.rbegin());

  std::vector<double> signal(result.support_end - result.support_begin);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = result.raw_ratio[result.support_begin + i];
  }
  std::size_t i = 0;
  while (i < signal.size()) {
    if (result.valid[result.support_begin + i]) {
      ++i;
      continue;
    }
    std::size_t gap_end = i;
    while (!result.valid[result.support_begin + gap_end]) ++gap_end;  // support_end-1 is valid
    const double left = signal[i - 1];  // i > 0: support_begin is valid
    const double right = signal[gap_end];
    for (std::size_t k = i; k < gap_end; ++k) {
      const double t = static_cast<double>(k - i + 1) / static_cast<double>(gap_end - i + 1);
      signal[k] = left + t * (right - left);
    }
    i = gap_end;
  }

  auto smoothed = [&] {
    obs::Span span("sg_smooth");
    span.attr("bins", static_cast<std::int64_t>(signal.size()));
    const stats::SavitzkyGolay smoother(options.smoothing);
    return smoother.smooth(signal);
  }();
  // Ratios are nonnegative; smoothing overshoot below zero is clamped. The
  // compare (not std::max) leaves a NaN from a non-finite ratio unchanged.
  for (double& v : smoothed) {
    if (v < 0.0) v = 0.0;
  }

  obs::Span normalize_span("nlp_normalize");

  result.smoothed.assign(bins, 0.0);
  std::copy(smoothed.begin(), smoothed.end(), result.smoothed.begin() +
                                                  static_cast<std::ptrdiff_t>(result.support_begin));

  // Normalize at the reference latency (§2.3).
  const double lo_center = result.latency_ms[result.support_begin];
  const double hi_center = result.latency_ms[result.support_end - 1];
  if (options.reference_latency_ms < lo_center || options.reference_latency_ms > hi_center) {
    throw std::invalid_argument(
        "compute_preference: reference latency outside supported range");
  }
  const double step = biased.bin_width();
  const double pos = (options.reference_latency_ms - lo_center) / step;
  const auto ref_lo = static_cast<std::size_t>(pos);
  const double frac = pos - std::floor(pos);
  const double ref_value =
      smoothed[ref_lo] * (1.0 - frac) +
      smoothed[std::min(ref_lo + 1, smoothed.size() - 1)] * frac;
  if (!(ref_value > 0.0)) {
    throw std::invalid_argument("compute_preference: zero preference at reference latency");
  }

  // A true division, not a reciprocal multiply, which would round
  // differently.
  result.normalized.assign(bins, 0.0);
  for (std::size_t k = 0; k < smoothed.size(); ++k) {
    result.normalized[result.support_begin + k] = smoothed[k] / ref_value;
  }
  return result;
}

}  // namespace autosens::core
