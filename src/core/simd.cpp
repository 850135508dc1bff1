#include "core/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define AUTOSENS_SIMD_X86 1
#endif

#include "obs/log.h"
#include "obs/metrics.h"

namespace autosens::core::simd {
namespace {

// bin_index_scalar (simd.h) is the reference the vector binning below must
// match bit-for-bit.

// ---------------------------------------------------------------------------
// Scalar paths (always compiled, always tested).

void scalar_histogram_fill(const double* values, std::size_t n, double lo, double width,
                           std::size_t bins, double* counts) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    counts[bin_index_scalar(values[i], lo, width, bins)] += 1.0;
  }
}

// Accumulates weights into bins in element order; the caller computes the
// weight total separately with sum_interleaved so the serial `added` chain
// does not bound the fill's throughput.
void scalar_histogram_fill_weighted(const double* values, const double* weights,
                                    std::size_t n, double lo, double width,
                                    std::size_t bins, double* counts) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    counts[bin_index_scalar(values[i], lo, width, bins)] += weights[i];
  }
}

void scalar_scale(double* values, std::size_t n, double factor) noexcept {
  for (std::size_t i = 0; i < n; ++i) values[i] *= factor;
}

/// Fold the 4 interleaved lane accumulators then the serial tail — the
/// accumulation order both weight-total paths implement literally.
inline double fold_lanes_and_tail(double a0, double a1, double a2, double a3,
                                  const double* tail, std::size_t tail_n) noexcept {
  double sum = ((a0 + a1) + a2) + a3;
  for (std::size_t i = 0; i < tail_n; ++i) sum += tail[i];
  return sum;
}

/// The weighted fill's total on the scalar path: lane k sums elements k,
/// k+4, k+8, ...; the fused AVX2 fill accumulates in exactly this order.
double sum_interleaved(const double* values, std::size_t n) noexcept {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  const std::size_t m = n & ~std::size_t{3};
  for (std::size_t i = 0; i < m; i += 4) {
    a0 += values[i];
    a1 += values[i + 1];
    a2 += values[i + 2];
    a3 += values[i + 3];
  }
  return fold_lanes_and_tail(a0, a1, a2, a3, values + m, n - m);
}

/// Bin-index buffer size for the order-preserving fill paths: big enough to
/// amortize the vector pass, small enough to stay in L1.
constexpr std::size_t kIndexBlock = 1024;

// ---------------------------------------------------------------------------
// AVX2 paths. Compiled with per-function target attributes (no -mavx2 on the
// base build); selected at runtime via __builtin_cpu_supports.

#ifdef AUTOSENS_SIMD_X86

/// Clamped bin indices of 4 values; mirrors bin_index_scalar exactly: one
/// correctly-rounded division, NaN/negative offsets -> 0, >= bins -> bins-1.
__attribute__((target("avx2"), always_inline)) inline __m128i bin_index4(
    __m256d v, __m256d lo, __m256d width, __m256d bins_d, __m256d bins_m1_d) noexcept {
  __m256d off = _mm256_div_pd(_mm256_sub_pd(v, lo), width);
  // offset > 0 is false for NaN and non-positive offsets; AND with the mask
  // zeroes those lanes (bin 0).
  const __m256d gt0 = _mm256_cmp_pd(off, _mm256_setzero_pd(), _CMP_GT_OQ);
  off = _mm256_and_pd(off, gt0);
  const __m256d overflow = _mm256_cmp_pd(off, bins_d, _CMP_GE_OQ);
  off = _mm256_blendv_pd(off, bins_m1_d, overflow);
  return _mm256_cvttpd_epi32(off);  // truncate == floor for non-negative
}

/// Clamped bin index of each value (identical to bin_index_scalar), into an
/// L1-resident block the fills below scatter from.
__attribute__((target("avx2"))) void avx2_bin_indices(
    const double* values, std::size_t n, double lo, double width, std::size_t bins,
    std::uint32_t* out) noexcept {
  const __m256d lo_v = _mm256_set1_pd(lo);
  const __m256d w_v = _mm256_set1_pd(width);
  const __m256d bins_v = _mm256_set1_pd(static_cast<double>(bins));
  const __m256d bins_m1_v = _mm256_set1_pd(static_cast<double>(bins - 1));
  const std::size_t m = n & ~std::size_t{3};
  for (std::size_t i = 0; i < m; i += 4) {
    const __m128i idx =
        bin_index4(_mm256_loadu_pd(values + i), lo_v, w_v, bins_v, bins_m1_v);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), idx);
  }
  for (std::size_t i = m; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(bin_index_scalar(values[i], lo, width, bins));
  }
}

/// Unit-weight fill for inputs too small to amortize the per-lane partials:
/// indices are computed a block at a time, the adds replay in element order.
__attribute__((target("avx2"))) void avx2_fill_const(
    const double* values, std::size_t n, double lo, double width, std::size_t bins,
    double* counts) noexcept {
  alignas(16) std::uint32_t idx[kIndexBlock];
  for (std::size_t offset = 0; offset < n; offset += kIndexBlock) {
    const std::size_t m = std::min(kIndexBlock, n - offset);
    avx2_bin_indices(values + offset, m, lo, width, bins, idx);
    for (std::size_t i = 0; i < m; ++i) counts[idx[i]] += 1.0;
  }
}

/// Unit-weight fill into 8 per-lane partial histograms (lane k at
/// lanes[k * bins]); the caller merges. Exact: counts are integer-valued.
/// Indices for a whole L1-resident block are produced first so the divisions
/// pipeline freely, then the scatter loop increments eight independent
/// destination histograms so nearby values sharing a bin don't serialize on
/// store-to-load forwarding.
__attribute__((target("avx2"))) void avx2_fill_lanes(
    const double* values, std::size_t n, double lo, double width, std::size_t bins,
    double* lanes) noexcept {
  double* l0 = lanes;
  double* l1 = lanes + bins;
  double* l2 = lanes + 2 * bins;
  double* l3 = lanes + 3 * bins;
  double* l4 = lanes + 4 * bins;
  double* l5 = lanes + 5 * bins;
  double* l6 = lanes + 6 * bins;
  double* l7 = lanes + 7 * bins;
  alignas(16) std::uint32_t idx[kIndexBlock];
  std::size_t offset = 0;
  for (; offset + kIndexBlock <= n; offset += kIndexBlock) {
    avx2_bin_indices(values + offset, kIndexBlock, lo, width, bins, idx);
    for (std::size_t i = 0; i < kIndexBlock; i += 8) {
      l0[idx[i]] += 1.0;
      l1[idx[i + 1]] += 1.0;
      l2[idx[i + 2]] += 1.0;
      l3[idx[i + 3]] += 1.0;
      l4[idx[i + 4]] += 1.0;
      l5[idx[i + 5]] += 1.0;
      l6[idx[i + 6]] += 1.0;
      l7[idx[i + 7]] += 1.0;
    }
  }
  for (; offset < n; ++offset) {
    l0[bin_index_scalar(values[offset], lo, width, bins)] += 1.0;
  }
}

/// Weighted fill fused with the interleaved weight-total reduction. The
/// accumulator's lane assignment (element i -> lane i%4, ascending order),
/// the ((l0+l1)+l2)+l3 fold, and the serial tail are exactly those of
/// sum_interleaved, so the returned total is bit-identical to the scalar
/// path's; bin adds replay in element order throughout.
__attribute__((target("avx2"))) double avx2_fill_weighted(
    const double* values, const double* weights, std::size_t n, double lo,
    double width, std::size_t bins, double* counts) noexcept {
  __m256d acc = _mm256_setzero_pd();
  alignas(16) std::uint32_t idx[kIndexBlock];
  const std::size_t m = n & ~std::size_t{3};
  std::size_t offset = 0;
  while (offset < m) {
    const std::size_t block = std::min(kIndexBlock, m - offset);
    avx2_bin_indices(values + offset, block, lo, width, bins, idx);
    const double* w = weights + offset;
    for (std::size_t i = 0; i < block; i += 4) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(w + i));
      counts[idx[i]] += w[i];
      counts[idx[i + 1]] += w[i + 1];
      counts[idx[i + 2]] += w[i + 2];
      counts[idx[i + 3]] += w[i + 3];
    }
    offset += block;
  }
  for (std::size_t i = m; i < n; ++i) {
    counts[bin_index_scalar(values[i], lo, width, bins)] += weights[i];
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  return fold_lanes_and_tail(lanes[0], lanes[1], lanes[2], lanes[3], weights + m, n - m);
}

__attribute__((target("avx2"))) void avx2_scale(double* values, std::size_t n,
                                                double factor) noexcept {
  const __m256d f = _mm256_set1_pd(factor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(values + i, _mm256_mul_pd(_mm256_loadu_pd(values + i), f));
  }
  for (; i < n; ++i) values[i] *= factor;
}

#endif  // AUTOSENS_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch plumbing.

bool env_force_scalar() noexcept {
  const char* value = std::getenv("AUTOSENS_FORCE_SCALAR");
  if (value == nullptr) return false;
  const std::string_view v(value);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

/// Test override: -1 = none, otherwise a Level value.
std::atomic<int> g_level_override{-1};

void publish(Level level) {
  obs::registry()
      .gauge("autosens_simd_level",
             "Active SIMD dispatch level (0 = scalar, 2 = AVX2)")
      .set(static_cast<double>(static_cast<int>(level)));
  obs::log(obs::LogLevel::kDebug, "simd.dispatch",
           {{"level", to_string(level)}, {"forced_scalar", env_force_scalar()}});
}

/// Bin counts must fit an int32 lane for the vector conversion.
constexpr std::size_t kMaxVectorBins = (std::size_t{1} << 31) - 1;

inline bool use_avx2(std::size_t bins) noexcept {
#ifdef AUTOSENS_SIMD_X86
  return active_level() == Level::kAvx2 && bins - 1 < kMaxVectorBins;
#else
  (void)bins;
  return false;
#endif
}

inline bool use_avx2() noexcept { return use_avx2(1); }

}  // namespace

std::string_view to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "scalar";
}

Level detected_level() noexcept {
#ifdef AUTOSENS_SIMD_X86
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2 ? Level::kAvx2 : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

Level active_level() noexcept {
  const int forced = g_level_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  static const Level chosen = [] {
    const Level level = env_force_scalar() ? Level::kScalar : detected_level();
    publish(level);
    return level;
  }();
  return chosen;
}

void set_level_override(std::optional<Level> level) noexcept {
  g_level_override.store(level ? static_cast<int>(*level) : -1,
                         std::memory_order_relaxed);
}

void publish_level() { publish(active_level()); }

void histogram_fill(std::span<const double> values, double lo, double width,
                    std::span<double> counts) noexcept {
  const std::size_t bins = counts.size();
#ifdef AUTOSENS_SIMD_X86
  if (use_avx2(bins)) {
    if (values.size() >= 8 * bins) {
      // Per-lane partials amortize only when the fill dwarfs the merge.
      static thread_local std::vector<double> scratch;
      scratch.assign(8 * bins, 0.0);
      avx2_fill_lanes(values.data(), values.size(), lo, width, bins, scratch.data());
      // Integer-valued lane counts merge exactly in any order.
      for (std::size_t b = 0; b < bins; ++b) {
        double merged = scratch[b];
        for (std::size_t lane = 1; lane < 8; ++lane) merged += scratch[lane * bins + b];
        counts[b] += merged;
      }
    } else {
      avx2_fill_const(values.data(), values.size(), lo, width, bins, counts.data());
    }
    return;
  }
#endif
  scalar_histogram_fill(values.data(), values.size(), lo, width, bins, counts.data());
}

double histogram_fill_weighted(std::span<const double> values,
                               std::span<const double> weights, double lo, double width,
                               std::span<double> counts) noexcept {
  const std::size_t bins = counts.size();
#ifdef AUTOSENS_SIMD_X86
  if (use_avx2(bins)) {
    return avx2_fill_weighted(values.data(), weights.data(), values.size(), lo, width,
                              bins, counts.data());
  }
#endif
  scalar_histogram_fill_weighted(values.data(), weights.data(), values.size(), lo,
                                 width, bins, counts.data());
  // Same reduction order as the fused vector path, so the returned total
  // matches it exactly.
  return sum_interleaved(weights.data(), weights.size());
}

void scale(std::span<double> values, double factor) noexcept {
#ifdef AUTOSENS_SIMD_X86
  if (use_avx2()) {
    avx2_scale(values.data(), values.size(), factor);
    return;
  }
#endif
  scalar_scale(values.data(), values.size(), factor);
}

}  // namespace autosens::core::simd
