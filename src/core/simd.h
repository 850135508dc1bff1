// Runtime-dispatched SIMD kernels for the loops that touch every row: the
// biased (B) and unbiased (U) histogram fills and the Voronoi scaling.
// Everything downstream of the fills works on bins (300 latency bins, 30
// α-bins per class) and is plain scalar code in its one caller.
//
// Dispatch mirrors the PCLMULQDQ CRC pattern in telemetry/binlog.cpp:
// `__builtin_cpu_supports` picks an `__attribute__((target("avx2")))` variant
// at runtime, the scalar fallback is always compiled (and always tested), and
// nothing here requires -mavx2 on the base build.
//
// The determinism contract (DESIGN.md "SIMD kernels & dispatch"): every
// kernel produces BIT-IDENTICAL results on the scalar and AVX2 paths.  Three
// rules make that hold:
//
//  1. Bin selection uses the exact same arithmetic in both paths — one
//     correctly-rounded division per element (`vdivpd` == `divsd`), never a
//     reciprocal multiply, so boundary values land in the same bin.
//  2. Weighted accumulation into shared bins happens in element order in
//     both paths (the vector path only vectorizes the index math, the adds
//     replay in order).  Unit-weight fills may use per-lane partial
//     histograms because integer-valued counts add exactly in any order.
//  3. The weighted fill's weight total is defined as a fixed 4-lane
//     interleaved accumulation that both paths implement literally, not a
//     serial left fold.
//
// Level selection: AVX2 when the CPU supports it, unless the
// AUTOSENS_FORCE_SCALAR environment variable (1/true/yes/on) or a test
// override pins the scalar path.  The selected level is published once as
// the `autosens_simd_level` gauge and a debug log line.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

namespace autosens::core::simd {

/// Dispatch level of the kernel implementations. Values are stable (they are
/// exported through the `autosens_simd_level` gauge): 0 = scalar, 2 = AVX2.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 2,
};

std::string_view to_string(Level level) noexcept;

/// The level every kernel below dispatches on. Detection (CPU features +
/// AUTOSENS_FORCE_SCALAR) runs once; a test override takes precedence.
Level active_level() noexcept;

/// CPU-detected level, ignoring the environment knob and test overrides.
Level detected_level() noexcept;

/// Test hook: pin the dispatch level (std::nullopt restores detection and
/// the environment knob). Takes effect on the next kernel call.
void set_level_override(std::optional<Level> level) noexcept;

/// (Re-)publish the active level through obs: sets the `autosens_simd_level`
/// gauge and emits one `simd.dispatch` debug log line. Called automatically
/// on first detection; call again after obs::set_enabled(true) to make the
/// gauge visible in a later snapshot.
void publish_level();

// ---------------------------------------------------------------------------
// Histogram binning. Both fill kernels share Histogram::bin_index semantics:
// offset = (v - lo) / width; NaN and offsets <= 0 clamp to bin 0, offsets at
// or beyond the upper edge clamp to the last bin.

/// Scalar reference bin index — the single definition of the binning
/// semantics, shared by both fill kernels below and by
/// stats::Histogram::bin_index. NaN and non-positive offsets return 0
/// (the cast of a NaN or huge offset would otherwise be UB); offsets at or
/// beyond the upper edge return counts_size - 1. Requires counts_size >= 1.
inline std::size_t bin_index_scalar(double value, double lo, double width,
                                    std::size_t counts_size) noexcept {
  const double offset = (value - lo) / width;
  if (!(offset > 0.0)) return 0;  // negatives and NaN
  if (offset >= static_cast<double>(counts_size)) return counts_size - 1;
  return static_cast<std::size_t>(offset);
}

/// counts[bin(v)] += 1.0 for every value. The AVX2 path accumulates into
/// per-lane partial histograms merged at the end — exact for integer-valued
/// counts, so the result is bit-identical to the scalar loop.
void histogram_fill(std::span<const double> values, double lo, double width,
                    std::span<double> counts) noexcept;

/// counts[bin(values[i])] += weights[i], accumulating in element order in
/// both paths. Returns the weight total as a fixed 4-lane interleaved sum
/// (lane k sums weights k, k+4, ...; lanes fold ((l0+l1)+l2)+l3; the n % 4
/// tail adds serially), bit-identical across dispatch levels, rather than a
/// serial left fold: the serial chain's add latency would bound the whole
/// fill. The total can differ from an elementwise left fold in the last ulp.
/// Spans must be the same length.
double histogram_fill_weighted(std::span<const double> values,
                               std::span<const double> weights, double lo,
                               double width, std::span<double> counts) noexcept;

/// values[i] *= factor (independent per element, so trivially bit-identical).
void scale(std::span<double> values, double factor) noexcept;

}  // namespace autosens::core::simd
