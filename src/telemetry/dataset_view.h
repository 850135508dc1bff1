// DatasetView: a lightweight reordering view over a Dataset — a list of
// (record-range, time-shift) blocks evaluated lazily, without copying or
// re-sorting the parent's records. This is the output type of the day-block
// bootstrap (core/day_block_resample): constructing a replicate is O(blocks),
// not O(records), and estimators consume the view through the same
// SampleColumns hot path as a real Dataset.
//
// Lifetime rules (DESIGN.md "Data layout & memory model"): the view borrows
// the parent Dataset — the parent must outlive the view, and any
// add()/sort_by_time() on the parent invalidates it. The view takes the
// parent's time/latency spans once at construction (compacting a selection
// parent there, before any parallel replicate loop reads it). The time/latency columns
// a view hands out are materialized on first access into buffers borrowed
// from the scratch pool and returned when the view dies; first access is not
// thread-safe (each bootstrap replicate owns its view).
#pragma once

#include <cstdint>
#include <vector>

#include "stats/scratch.h"
#include "telemetry/dataset.h"
#include "telemetry/record.h"

namespace autosens::telemetry {

class DatasetView {
 public:
  /// One contiguous run [first, last) of parent records, each shifted by
  /// `time_shift` milliseconds when read through the view.
  struct Block {
    std::size_t first = 0;
    std::size_t last = 0;
    std::int64_t time_shift = 0;
  };

  /// Blocks must be chosen so that the concatenated, shifted times are
  /// globally sorted ascending (day_block_resample guarantees this: block s
  /// lands in day s). The parent must be sorted.
  DatasetView(const Dataset& parent, std::vector<Block> blocks);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t block_count() const noexcept { return blocks_.size(); }

  /// Gather record i (time-shifted) without materializing columns.
  ActionRecord operator[](std::size_t i) const noexcept;

  /// First / one-past-last view time, straight from the block table (no
  /// materialization). Throws std::runtime_error when the view is empty.
  std::int64_t begin_time() const;
  std::int64_t end_time() const;

  /// Shifted, contiguous column views — materialized from the parent on
  /// first access into pooled buffers (O(records) once, then free).
  std::span<const std::int64_t> times() const;
  std::span<const double> latencies() const;
  SampleColumns columns() const { return {times(), latencies()}; }

  /// Deep copy into an owning, sorted Dataset (all columns gathered).
  Dataset materialize() const;

 private:
  void ensure_columns() const;
  /// Index of the block containing view position i, via offsets_.
  std::size_t block_of(std::size_t i) const noexcept;

  const Dataset* parent_;
  SampleColumns parent_columns_;
  std::vector<Block> blocks_;
  std::vector<std::size_t> offsets_;  ///< Prefix sums; offsets_[b] = view index of blocks_[b].first.
  std::size_t size_ = 0;
  mutable stats::PooledVector<std::int64_t> times_;
  mutable stats::PooledVector<double> latencies_;
  mutable bool materialized_ = false;
};

}  // namespace autosens::telemetry
