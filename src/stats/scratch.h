// Reusable scratch buffers for allocation-free hot loops.
//
// The parallel estimators (biased fill, Monte-Carlo U, per-window U) build
// one partial histogram — a `bin_count`-double buffer — per chunk.
// Allocating those buffers fresh every time puts the allocator on the hot
// path; this pool recycles them instead. The pool is size-blind, so a
// column-sized buffer given back would be handed to the next bin-sized
// partial and stay parked: row-sized buffers are never given to it.
//
// Ownership model (see DESIGN.md "Data layout & memory model"): take() hands
// the caller full ownership of a plain std::vector — the pool keeps no
// reference, so a taken buffer may outlive the pool interaction, be moved
// into a result, or simply be dropped. give() donates a buffer back; the pool
// keeps at most kMaxPooled per element type and silently frees the rest.
// Determinism is unaffected: callers must treat a taken buffer's contents as
// unspecified and fully overwrite (or assign) it before reading.
#pragma once

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

namespace autosens::stats {

/// Process-wide freelist of reusable `std::vector<T>` buffers. Thread-safe;
/// take/give are a single mutex-protected pointer swap each, far cheaper than
/// an allocation of the typical histogram or column size.
template <typename T>
class ScratchPool {
 public:
  /// A buffer with unspecified size, capacity, and contents (possibly empty
  /// when the pool is dry). Callers must resize/assign before use.
  static std::vector<T> take() {
    std::lock_guard<std::mutex> lock(mutex());
    auto& pool = buffers();
    if (pool.empty()) return {};
    std::vector<T> buffer = std::move(pool.back());
    pool.pop_back();
    return buffer;
  }

  /// Donate a buffer's capacity back to the pool. Buffers beyond kMaxPooled
  /// (and zero-capacity ones) are simply freed.
  static void give(std::vector<T>&& buffer) noexcept {
    if (buffer.capacity() == 0) return;
    std::lock_guard<std::mutex> lock(mutex());
    auto& pool = buffers();
    if (pool.size() < kMaxPooled) pool.push_back(std::move(buffer));
  }

  /// Buffers currently parked in the pool (for tests).
  static std::size_t pooled_count() {
    std::lock_guard<std::mutex> lock(mutex());
    return buffers().size();
  }

  /// Largest capacity among the parked buffers (for tests: the pool should
  /// hold bin-sized partials, never a column).
  static std::size_t max_pooled_capacity() {
    std::lock_guard<std::mutex> lock(mutex());
    std::size_t largest = 0;
    for (const auto& buffer : buffers()) largest = std::max(largest, buffer.capacity());
    return largest;
  }

 private:
  static constexpr std::size_t kMaxPooled = 64;

  static std::mutex& mutex() {
    static std::mutex instance;
    return instance;
  }
  static std::vector<std::vector<T>>& buffers() {
    static std::vector<std::vector<T>> instance;
    return instance;
  }
};

/// RAII wrapper: takes a buffer from the ScratchPool on construction (resized
/// to `size`, contents unspecified) and gives it back on destruction.
template <typename T>
class PooledVector {
 public:
  PooledVector() = default;
  explicit PooledVector(std::size_t size) : buffer_(ScratchPool<T>::take()) {
    buffer_.resize(size);
  }
  ~PooledVector() { ScratchPool<T>::give(std::move(buffer_)); }

  PooledVector(const PooledVector&) = delete;
  PooledVector& operator=(const PooledVector&) = delete;
  PooledVector(PooledVector&& other) noexcept : buffer_(std::move(other.buffer_)) {
    other.buffer_.clear();
    other.buffer_.shrink_to_fit();
  }
  PooledVector& operator=(PooledVector&& other) noexcept {
    if (this != &other) {
      ScratchPool<T>::give(std::move(buffer_));
      buffer_ = std::move(other.buffer_);
      other.buffer_.clear();
      other.buffer_.shrink_to_fit();
    }
    return *this;
  }

  std::vector<T>& vec() noexcept { return buffer_; }
  const std::vector<T>& vec() const noexcept { return buffer_; }
  std::span<const T> span() const noexcept { return buffer_; }
  T* data() noexcept { return buffer_.data(); }
  const T* data() const noexcept { return buffer_.data(); }
  std::size_t size() const noexcept { return buffer_.size(); }
  bool empty() const noexcept { return buffer_.empty(); }
  T& operator[](std::size_t i) noexcept { return buffer_[i]; }
  const T& operator[](std::size_t i) const noexcept { return buffer_[i]; }

 private:
  std::vector<T> buffer_;
};

}  // namespace autosens::stats
