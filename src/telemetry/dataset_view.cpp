#include "telemetry/dataset_view.h"

#include <algorithm>
#include <stdexcept>

namespace autosens::telemetry {

DatasetView::DatasetView(const Dataset& parent, std::vector<Block> blocks)
    : parent_(&parent), parent_columns_(parent.columns()), blocks_(std::move(blocks)) {
  if (!parent.is_sorted()) {
    throw std::invalid_argument("DatasetView: parent dataset not sorted");
  }
  offsets_.reserve(blocks_.size() + 1);
  offsets_.push_back(0);
  for (const auto& block : blocks_) {
    if (block.last < block.first || block.last > parent.size()) {
      throw std::invalid_argument("DatasetView: block out of range");
    }
    size_ += block.last - block.first;
    offsets_.push_back(size_);
  }
}

std::size_t DatasetView::block_of(std::size_t i) const noexcept {
  // First block whose end offset exceeds i.
  const auto it = std::upper_bound(offsets_.begin() + 1, offsets_.end(), i);
  return static_cast<std::size_t>(it - offsets_.begin()) - 1;
}

ActionRecord DatasetView::operator[](std::size_t i) const noexcept {
  const std::size_t b = block_of(i);
  const auto& block = blocks_[b];
  ActionRecord record = (*parent_)[block.first + (i - offsets_[b])];
  record.time_ms += block.time_shift;
  return record;
}

std::int64_t DatasetView::begin_time() const {
  for (const auto& block : blocks_) {
    if (block.last > block.first) {
      return parent_columns_.times[block.first] + block.time_shift;
    }
  }
  throw std::runtime_error("DatasetView::begin_time: empty view");
}

std::int64_t DatasetView::end_time() const {
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    if (it->last > it->first) {
      return parent_columns_.times[it->last - 1] + it->time_shift + 1;
    }
  }
  throw std::runtime_error("DatasetView::end_time: empty view");
}

void DatasetView::ensure_columns() const {
  if (materialized_) return;
  times_ = stats::PooledVector<std::int64_t>(size_);
  latencies_ = stats::PooledVector<double>(size_);
  const auto parent_times = parent_columns_.times;
  const auto parent_latencies = parent_columns_.latencies;
  std::size_t out = 0;
  for (const auto& block : blocks_) {
    for (std::size_t i = block.first; i < block.last; ++i, ++out) {
      times_[out] = parent_times[i] + block.time_shift;
      latencies_[out] = parent_latencies[i];
    }
  }
  materialized_ = true;
}

std::span<const std::int64_t> DatasetView::times() const {
  ensure_columns();
  return times_.span();
}

std::span<const double> DatasetView::latencies() const {
  ensure_columns();
  return latencies_.span();
}

Dataset DatasetView::materialize() const {
  Dataset out;
  out.reserve(size_);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const auto& block = blocks_[b];
    for (std::size_t i = block.first; i < block.last; ++i) {
      ActionRecord record = (*parent_)[i];
      record.time_ms += block.time_shift;
      out.add(record);
    }
  }
  out.sort_by_time();
  return out;
}

}  // namespace autosens::telemetry
