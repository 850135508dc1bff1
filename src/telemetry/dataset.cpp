#include "telemetry/dataset.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "stats/descriptive.h"
#include "stats/scratch.h"
#include "telemetry/clock.h"

namespace autosens::telemetry {

/// A selection's immutable state: ascending row ids into shared base
/// columns. The id buffer comes from ScratchPool<uint32_t> and returns there.
struct Dataset::Selection {
  std::shared_ptr<const Columns> base;
  std::vector<std::uint32_t> rows;

  ~Selection() { stats::ScratchPool<std::uint32_t>::give(std::move(rows)); }
};

/// The lock of the selection's one-time compaction, held behind a pointer so
/// a Dataset stays movable. Not shared between copies.
struct Dataset::Lazy {
  std::mutex compaction;
};

namespace {

void check_row_limit(std::size_t rows) {
  if (rows > Dataset::kMaxRows) {
    throw std::length_error("Dataset: more rows than 32-bit row ids can address");
  }
}

template <typename T>
std::vector<T> gather_column(const std::vector<T>& column,
                             std::span<const std::uint32_t> rows) {
  std::vector<T> out;
  out.reserve(rows.size());
  for (const std::uint32_t row : rows) out.push_back(column[row]);
  return out;
}

/// Every column of `from` at `rows`, into exact-size storage.
template <typename Columns>
std::shared_ptr<Columns> gather_columns(const Columns& from,
                                        std::span<const std::uint32_t> rows) {
  auto out = std::make_shared<Columns>();
  out->time = gather_column(from.time, rows);
  out->latency = gather_column(from.latency, rows);
  out->user_id = gather_column(from.user_id, rows);
  out->action = gather_column(from.action, rows);
  out->user_class = gather_column(from.user_class, rows);
  out->status = gather_column(from.status, rows);
  return out;
}

/// Writes to `out` each row of `source` (row j is j when `source` is null)
/// that passes `test`, in order; returns how many. `out` may be `source`.
template <typename Test>
std::size_t keep_rows(const std::uint32_t* source, std::size_t n, std::uint32_t* out,
                      Test test) {
  std::size_t kept = 0;
  if (source == nullptr) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto row = static_cast<std::uint32_t>(j);
      out[kept] = row;
      kept += test(row) ? 1 : 0;
    }
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t row = source[j];
      out[kept] = row;
      kept += test(row) ? 1 : 0;
    }
  }
  return kept;
}

template <typename T>
std::size_t keep_equal(const std::vector<T>& column, std::int64_t value,
                       const std::uint32_t* source, std::size_t n, std::uint32_t* out) {
  const T* data = column.data();
  const auto match = static_cast<T>(value);
  return keep_rows(source, n, out, [=](std::uint32_t r) { return data[r] == match; });
}

/// keep_rows with the row test of one predicate term, reading only the
/// column the term names.
template <typename Columns>
std::size_t keep_term(const Columns& c, const RecordPredicate::Term& term,
                      const std::uint32_t* source, std::size_t n, std::uint32_t* out) {
  using Kind = RecordPredicate::Term::Kind;
  switch (term.kind) {
    case Kind::kAction:
      return keep_equal(c.action, term.value, source, n, out);
    case Kind::kUserClass:
      return keep_equal(c.user_class, term.value, source, n, out);
    case Kind::kStatus:
      return keep_equal(c.status, term.value, source, n, out);
    case Kind::kTimeRange: {
      const auto* column = c.time.data();
      const std::int64_t begin = term.value;
      const std::int64_t end = term.end_ms;
      return keep_rows(source, n, out, [=](std::uint32_t r) {
        return column[r] >= begin && column[r] < end;
      });
    }
    case Kind::kPeriod: {
      const auto* column = c.time.data();
      const auto value = static_cast<DayPeriod>(term.value);
      return keep_rows(source, n, out,
                       [=](std::uint32_t r) { return day_period(column[r]) == value; });
    }
    case Kind::kMonth: {
      const auto* column = c.time.data();
      const std::int64_t value = term.value;
      return keep_rows(source, n, out,
                       [=](std::uint32_t r) { return month_index(column[r]) == value; });
    }
    case Kind::kRecord:
      break;
  }
  return keep_rows(source, n, out,
                   [&](std::uint32_t r) { return term.record(c.record(r)); });
}

bool times_sorted(std::span<const std::int64_t> times) {
  return std::is_sorted(times.begin(), times.end());
}

}  // namespace

bool RecordPredicate::operator()(const ActionRecord& record) const {
  for (const auto& term : terms_) {
    bool match = false;
    switch (term.kind) {
      case Term::Kind::kAction:
        match = record.action == static_cast<ActionType>(term.value);
        break;
      case Term::Kind::kUserClass:
        match = record.user_class == static_cast<UserClass>(term.value);
        break;
      case Term::Kind::kStatus:
        match = record.status == static_cast<ActionStatus>(term.value);
        break;
      case Term::Kind::kTimeRange:
        match = record.time_ms >= term.value && record.time_ms < term.end_ms;
        break;
      case Term::Kind::kPeriod:
        match = day_period(record.time_ms) == static_cast<DayPeriod>(term.value);
        break;
      case Term::Kind::kMonth:
        match = month_index(record.time_ms) == term.value;
        break;
      case Term::Kind::kRecord:
        match = term.record(record);
        break;
    }
    if (!match) return false;
  }
  return true;
}

RecordPredicate& RecordPredicate::operator&=(RecordPredicate other) {
  for (auto& term : other.terms_) terms_.push_back(std::move(term));
  return *this;
}

std::shared_ptr<const Dataset::Selection> Dataset::selection() const {
  const std::lock_guard<std::mutex> lock(lazy_->compaction);
  return selection_;
}

template <typename F>
decltype(auto) Dataset::read_rows(F&& f) const {
  if (selected_) {
    if (const auto held = selection()) return f(*held->base, held->rows.data());
  }
  return f(*columns_, static_cast<const std::uint32_t*>(nullptr));
}

// Invariants: columns_ and lazy_ are never null (moved-from datasets get
// fresh empty ones). In the owned state columns_ holds size_ rows, and
// shared_ says a selection may still read them. In the selection state
// (selected_) selection_ holds size_ > 0 ascending ids into its base.
Dataset::Dataset() : columns_(std::make_shared<Columns>()), lazy_(std::make_unique<Lazy>()) {}
Dataset::~Dataset() = default;

Dataset::Dataset(std::vector<ActionRecord> records) : Dataset() {
  reserve(records.size());
  for (const auto& r : records) add(r);
}

Dataset::Dataset(const Dataset& other) : lazy_(std::make_unique<Lazy>()) {
  if (auto held = other.selected_ ? other.selection() : nullptr) {
    columns_ = std::make_shared<Columns>();
    selection_ = std::move(held);
    selected_ = true;
  } else {
    columns_ = std::make_shared<Columns>(*other.columns_);
  }
  size_ = other.size_;
  sorted_ = other.sorted_;
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this != &other) *this = Dataset(other);
  return *this;
}

Dataset::Dataset(Dataset&& other) noexcept : Dataset() { *this = std::move(other); }

Dataset& Dataset::operator=(Dataset&& other) noexcept {
  if (this != &other) {
    columns_ = std::exchange(other.columns_, std::make_shared<Columns>());
    selection_ = std::exchange(other.selection_, nullptr);
    selected_ = other.selected_.exchange(false);
    shared_ = other.shared_.exchange(false);
    size_ = std::exchange(other.size_, 0);
    sorted_ = std::exchange(other.sorted_, true);
    lazy_ = std::exchange(other.lazy_, std::make_unique<Lazy>());
  }
  return *this;
}

Dataset Dataset::from_columns(std::shared_ptr<Columns> columns, bool sorted) {
  Dataset out;
  out.size_ = columns->time.size();
  out.columns_ = std::move(columns);
  out.sorted_ = sorted || times_sorted(out.columns_->time);
  return out;
}

void Dataset::compact() const {
  const std::lock_guard<std::mutex> lock(lazy_->compaction);
  if (!selection_) return;  // another thread compacted first
  columns_ = gather_columns(*selection_->base, selection_->rows);
  selection_.reset();  // readers holding it keep the base until they finish
  selected_ = false;
}

ActionRecord Dataset::selected_record(std::size_t i) const {
  return read_rows([i](const Columns& c, const std::uint32_t* rows) {
    return c.record(rows ? rows[i] : i);
  });
}

Dataset::Columns& Dataset::own() {
  if (selected_) {
    compact();
  } else if (shared_) {
    // A selection may still read these columns: write a private copy.
    columns_ = std::make_shared<Columns>(*columns_);
    shared_ = false;
  }
  return *columns_;
}

void Dataset::reserve(std::size_t capacity) {
  Columns& c = own();
  c.time.reserve(capacity);
  c.latency.reserve(capacity);
  c.user_id.reserve(capacity);
  c.action.reserve(capacity);
  c.user_class.reserve(capacity);
  c.status.reserve(capacity);
}

void Dataset::add(ActionRecord record) {
  Columns& c = own();
  if (sorted_ && !c.time.empty() && record.time_ms < c.time.back()) sorted_ = false;
  c.time.push_back(record.time_ms);
  c.latency.push_back(record.latency_ms);
  c.user_id.push_back(record.user_id);
  c.action.push_back(record.action);
  c.user_class.push_back(record.user_class);
  c.status.push_back(record.status);
  ++size_;
}

void Dataset::append_columns(std::span<const std::int64_t> times,
                             std::span<const double> latencies,
                             std::span<const std::uint64_t> user_ids,
                             std::span<const ActionType> actions,
                             std::span<const UserClass> user_classes,
                             std::span<const ActionStatus> statuses) {
  const std::size_t n = times.size();
  if (latencies.size() != n || user_ids.size() != n || actions.size() != n ||
      user_classes.size() != n || statuses.size() != n) {
    throw std::invalid_argument("Dataset::append_columns: column length mismatch");
  }
  if (n == 0) return;
  Columns& c = own();
  if (sorted_) {
    if (!c.time.empty() && times.front() < c.time.back()) {
      sorted_ = false;
    } else if (!times_sorted(times)) {
      sorted_ = false;
    }
  }
  c.time.insert(c.time.end(), times.begin(), times.end());
  c.latency.insert(c.latency.end(), latencies.begin(), latencies.end());
  c.user_id.insert(c.user_id.end(), user_ids.begin(), user_ids.end());
  c.action.insert(c.action.end(), actions.begin(), actions.end());
  c.user_class.insert(c.user_class.end(), user_classes.begin(), user_classes.end());
  c.status.insert(c.status.end(), statuses.begin(), statuses.end());
  size_ += n;
}

void Dataset::adopt_columns(std::vector<std::int64_t> times, std::vector<double> latencies,
                            std::vector<std::uint64_t> user_ids,
                            std::vector<ActionType> actions,
                            std::vector<UserClass> user_classes,
                            std::vector<ActionStatus> statuses) {
  const std::size_t n = times.size();
  if (latencies.size() != n || user_ids.size() != n || actions.size() != n ||
      user_classes.size() != n || statuses.size() != n) {
    throw std::invalid_argument("Dataset::adopt_columns: column length mismatch");
  }
  auto columns = std::make_shared<Columns>(Columns{.time = std::move(times),
                                                   .latency = std::move(latencies),
                                                   .user_id = std::move(user_ids),
                                                   .action = std::move(actions),
                                                   .user_class = std::move(user_classes),
                                                   .status = std::move(statuses)});
  *this = from_columns(std::move(columns), false);
}

std::vector<ActionRecord> Dataset::records() const {
  return read_rows([this](const Columns& c, const std::uint32_t* rows) {
    std::vector<ActionRecord> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back(c.record(rows ? rows[i] : i));
    return out;
  });
}

namespace {

/// out[i] = column[perm[i]]. The old column is freed, not pooled: the
/// scratch pool recycles bin-sized partials, never a column.
template <typename T>
void apply_permutation(std::vector<T>& column, std::span<const std::uint64_t> perm) {
  std::vector<T> sorted(column.size());
  for (std::size_t i = 0; i < column.size(); ++i) {
    sorted[i] = column[static_cast<std::size_t>(perm[i])];
  }
  column.swap(sorted);
}

}  // namespace

void Dataset::sort_by_time() {
  if (sorted_) return;
  Columns& c = own();
  // Permutation sort: order indices by time, then gather every column once.
  // Moves 8-byte indices through the comparator instead of 48-byte records.
  std::vector<std::uint64_t> perm = stats::ScratchPool<std::uint64_t>::take();
  perm.resize(size());
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&c](std::uint64_t a, std::uint64_t b) {
    return c.time[static_cast<std::size_t>(a)] < c.time[static_cast<std::size_t>(b)];
  });
  apply_permutation(c.time, perm);
  apply_permutation(c.latency, perm);
  apply_permutation(c.user_id, perm);
  apply_permutation(c.action, perm);
  apply_permutation(c.user_class, perm);
  apply_permutation(c.status, perm);
  stats::ScratchPool<std::uint64_t>::give(std::move(perm));
  sorted_ = true;
}

std::int64_t Dataset::begin_time() const {
  if (empty()) throw std::runtime_error("Dataset::begin_time: empty dataset");
  if (!sorted_) throw std::runtime_error("Dataset::begin_time: dataset not sorted");
  return (*this)[0].time_ms;
}

std::int64_t Dataset::end_time() const {
  if (empty()) throw std::runtime_error("Dataset::end_time: empty dataset");
  if (!sorted_) throw std::runtime_error("Dataset::end_time: dataset not sorted");
  return (*this)[size_ - 1].time_ms + 1;
}

Dataset Dataset::select(std::vector<std::uint32_t> rows) const {
  check_row_limit(size_);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    if (rows[j] >= size_ || (j > 0 && rows[j] <= rows[j - 1])) {
      throw std::invalid_argument("Dataset::select: rows not ascending within the dataset");
    }
  }
  if (rows.empty()) return Dataset();
  auto picked = std::make_shared<Selection>();
  if (const auto held = selected_ ? selection() : nullptr) {
    for (auto& row : rows) row = held->rows[row];
    picked->base = held->base;
  } else {
    shared_ = true;
    picked->base = columns_;
  }
  const auto& time = picked->base->time;
  Dataset out;
  out.size_ = rows.size();
  // A subsequence of a sorted dataset is sorted; otherwise look.
  out.sorted_ = sorted_ || std::is_sorted(rows.begin(), rows.end(),
                                          [&time](std::uint32_t a, std::uint32_t b) {
                                            return time[a] < time[b];
                                          });
  picked->rows = std::move(rows);
  out.selection_ = std::move(picked);
  out.selected_ = true;
  return out;
}

Dataset Dataset::gather(std::span<const std::uint32_t> rows) const {
  check_row_limit(size_);
  for (const auto row : rows) {
    if (row >= size_) throw std::out_of_range("Dataset::gather: row outside the dataset");
  }
  return read_rows([&](const Columns& c, const std::uint32_t* source) {
    if (source == nullptr) return from_columns(gather_columns(c, rows), false);
    std::vector<std::uint32_t> base_rows(rows.size());
    for (std::size_t j = 0; j < rows.size(); ++j) base_rows[j] = source[rows[j]];
    return from_columns(gather_columns(c, base_rows), false);
  });
}

Dataset Dataset::filtered(const RecordPredicate& predicate) const {
  check_row_limit(size_);
  return read_rows([&](const Columns& c, const std::uint32_t* source) {
    // Each term narrows the surviving rows in place; the first one reads
    // the selection (or every row) directly.
    stats::PooledVector<std::uint32_t> kept_rows(size_);
    std::uint32_t* kept = kept_rows.vec().data();
    const std::uint32_t* from = source;
    std::size_t count = size_;
    if (predicate.terms().empty()) {
      count = keep_rows(from, count, kept, [](std::uint32_t) { return true; });
    }
    for (const auto& term : predicate.terms()) {
      count = keep_term(c, term, from, count, kept);
      from = kept;
    }
    // A subsequence of a sorted dataset is sorted.
    return from_columns(gather_columns(c, std::span<const std::uint32_t>(kept, count)),
                        sorted_);
  });
}

std::unordered_map<std::uint64_t, double> Dataset::per_user_median_latency() const {
  const Columns& c = owned();
  std::unordered_map<std::uint64_t, std::vector<double>> per_user;
  for (std::size_t i = 0; i < size(); ++i) {
    per_user[c.user_id[i]].push_back(c.latency[i]);
  }
  std::unordered_map<std::uint64_t, double> medians;
  medians.reserve(per_user.size());
  for (auto& [user, latencies] : per_user) {
    medians.emplace(user, stats::median(latencies));
  }
  return medians;
}

}  // namespace autosens::telemetry
