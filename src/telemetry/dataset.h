// Dataset: an in-memory, time-sorted store of ActionRecords with the access
// paths AutoSens needs — time range, parallel time/latency views, per-user
// grouping (for the conditioning-to-speed quartiles, §3.4), and slices that
// scan only the columns their predicate names.
//
// Storage is structure-of-arrays: every record field lives in its own
// contiguous column, so the estimator hot loops (which only touch time and
// latency) stream exactly the bytes they need and times()/latencies() are
// zero-copy spans rather than per-call vector copies. A scrub (validate) is
// a row selection over its input's columns rather than a copy. See
// DESIGN.md "Data layout & memory model" for the lifetime rules.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "telemetry/record.h"

namespace autosens::telemetry {

/// Non-owning view of the two analysis-plane columns: the one input of the
/// estimator pipeline (biased/unbiased fills, α-normalization, analyze).
/// Datasets and bootstrap resamples both hand these out. `times` must be
/// sorted ascending and aligned with `latencies`.
struct SampleColumns {
  std::span<const std::int64_t> times;
  std::span<const double> latencies;

  std::size_t size() const noexcept { return times.size(); }
  bool empty() const noexcept { return times.empty(); }
  /// First sample time; [begin_time, end_time) is the observation window.
  /// Throws std::runtime_error when the view is empty.
  std::int64_t begin_time() const {
    if (times.empty()) throw std::runtime_error("SampleColumns::begin_time: empty view");
    return times.front();
  }
  std::int64_t end_time() const {
    if (times.empty()) throw std::runtime_error("SampleColumns::end_time: empty view");
    return times.back() + 1;
  }
};

/// A record test as a value: a conjunction of terms, each either a test on
/// one column (action, user class, status, time range, 6-hour period,
/// month) or a generic test on the gathered ActionRecord. Dataset::filtered
/// scans only the columns its column terms name; the telemetry/filter.h
/// factories build the terms and all_of() concatenates them. Still callable
/// on one record, and any `bool(const ActionRecord&)` callable converts to a
/// one-term generic predicate.
class RecordPredicate {
 public:
  struct Term {
    enum class Kind : std::uint8_t {
      kAction,
      kUserClass,
      kStatus,
      kTimeRange,
      kPeriod,
      kMonth,
      kRecord,  ///< Generic: `record` decides on the gathered record.
    };
    Kind kind = Kind::kRecord;
    std::int64_t value = 0;   ///< The matched column value; kTimeRange: first time.
    std::int64_t end_ms = 0;  ///< kTimeRange only: one past the last time.
    std::function<bool(const ActionRecord&)> record;  ///< kRecord only.
  };

  /// The empty conjunction: matches every record.
  RecordPredicate() = default;
  explicit RecordPredicate(std::vector<Term> terms) : terms_(std::move(terms)) {}
  template <typename Test>
    requires(!std::is_same_v<std::remove_cvref_t<Test>, RecordPredicate> &&
             std::is_invocable_r_v<bool, const Test&, const ActionRecord&>)
  RecordPredicate(Test test)  // implicit: lambdas pass wherever a predicate is expected
      : terms_{Term{.kind = Term::Kind::kRecord, .value = 0, .end_ms = 0,
                    .record = std::move(test)}} {}

  bool operator()(const ActionRecord& record) const;
  /// Conjunction: appends `other`'s terms after this one's.
  RecordPredicate& operator&=(RecordPredicate other);
  const std::vector<Term>& terms() const noexcept { return terms_; }

 private:
  std::vector<Term> terms_;
};

/// A dataset is in one of two states. *Owned*: six columns. *Selection*:
/// ascending row ids into another dataset's columns, shared and never
/// written while selected — what validate() returns, so a scrub copies no
/// record; the dataset they came from copies them before its next mutation.
/// size(), empty(), operator[], is_sorted(), begin/end_time(), filtered()
/// and gather() read through a selection; the first column-span access
/// compacts it into owned columns once (thread-safe), dropping the row ids
/// and the shared base. Mutating a selection compacts it first, so it
/// behaves like mutating a copy.
class Dataset {
 public:
  /// Row ids are uint32: a selection, filtered() and gather() need size()
  /// below this (std::length_error otherwise).
  static constexpr std::size_t kMaxRows = std::numeric_limits<std::uint32_t>::max();

  Dataset();
  explicit Dataset(std::vector<ActionRecord> records);
  /// A copy of a selection is the same selection (nothing is copied).
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&& other) noexcept;
  Dataset& operator=(Dataset&& other) noexcept;
  ~Dataset();

  /// Append one record. Invalidates sortedness; sort happens lazily via
  /// ensure_sorted() or eagerly through sort_by_time().
  void add(ActionRecord record);
  /// Bulk append: splice whole column slices onto the dataset (the ingest
  /// engine's shard-concatenation path). All spans must have equal length;
  /// throws std::invalid_argument otherwise. The sorted flag survives only
  /// when the incoming times are ascending and start at or after the
  /// current last time.
  void append_columns(std::span<const std::int64_t> times, std::span<const double> latencies,
                      std::span<const std::uint64_t> user_ids,
                      std::span<const ActionType> actions,
                      std::span<const UserClass> user_classes,
                      std::span<const ActionStatus> statuses);
  /// Bulk load: take ownership of fully-formed columns without copying (the
  /// binlog zero-copy path). All vectors must have equal length; throws
  /// std::invalid_argument otherwise. Replaces the current contents;
  /// sortedness is determined by scanning the times once.
  void adopt_columns(std::vector<std::int64_t> times, std::vector<double> latencies,
                     std::vector<std::uint64_t> user_ids, std::vector<ActionType> actions,
                     std::vector<UserClass> user_classes,
                     std::vector<ActionStatus> statuses);
  void reserve(std::size_t capacity);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Gather record i from the columns (a cheap by-value assembly).
  ActionRecord operator[](std::size_t i) const {
    if (selected_) return selected_record(i);
    return columns_->record(i);
  }
  /// Materialized AoS copy, for serialization and compatibility call sites.
  /// O(n) gather — hot loops should take the column spans instead.
  std::vector<ActionRecord> records() const;

  /// Sort records ascending by time (stable, so equal-time order is
  /// insertion order). Idempotent.
  void sort_by_time();
  bool is_sorted() const noexcept { return sorted_; }

  /// First record time. Throws std::runtime_error when empty or unsorted.
  std::int64_t begin_time() const;
  /// One past the last record time (so [begin_time, end_time) is non-empty).
  std::int64_t end_time() const;

  /// Zero-copy column views (records must be sorted for `times` to be
  /// monotone). The first call on a selection compacts it. The spans alias
  /// this dataset's storage: they are valid until the next mutation or
  /// destruction, and the data pointer is stable across calls.
  std::span<const std::int64_t> times() const { return owned().time; }
  std::span<const double> latencies() const { return owned().latency; }
  std::span<const std::uint64_t> user_ids() const { return owned().user_id; }
  std::span<const ActionType> actions() const { return owned().action; }
  std::span<const UserClass> user_classes() const { return owned().user_class; }
  std::span<const ActionStatus> statuses() const { return owned().status; }
  /// The analysis-plane view (same lifetime rules as the column spans).
  SampleColumns columns() const {
    const Columns& c = owned();
    return {c.time, c.latency};
  }

  /// A selection of this dataset's rows `rows` (strictly ascending, each
  /// below size(); std::invalid_argument otherwise) that shares the columns
  /// instead of copying them, and pins them until compacted.
  Dataset select(std::vector<std::uint32_t> rows) const;
  /// A new owned dataset of rows `rows` in the given order (repeats
  /// allowed; each below size(), std::out_of_range otherwise), every column
  /// gathered once into exact-size storage. Sortedness is recomputed.
  Dataset gather(std::span<const std::uint32_t> rows) const;
  /// The records matching `predicate`, in order, as a new owned dataset:
  /// column terms scan only their column, generic terms see the gathered
  /// record, and the survivors are gathered once (see gather()).
  Dataset filtered(const RecordPredicate& predicate) const;

  /// Per-user median latency over this dataset (for quartile conditioning).
  std::unordered_map<std::uint64_t, double> per_user_median_latency() const;

 private:
  struct Columns {
    std::vector<std::int64_t> time;
    std::vector<double> latency;
    std::vector<std::uint64_t> user_id;
    std::vector<ActionType> action;
    std::vector<UserClass> user_class;
    std::vector<ActionStatus> status;

    ActionRecord record(std::size_t i) const noexcept {
      return ActionRecord{.time_ms = time[i],
                          .user_id = user_id[i],
                          .latency_ms = latency[i],
                          .action = action[i],
                          .user_class = user_class[i],
                          .status = status[i]};
    }
  };
  struct Selection;
  struct Lazy;

  /// The owned columns, compacting a selection first.
  const Columns& owned() const {
    if (selected_) compact();
    return *columns_;
  }
  void compact() const;
  /// The selection, or null once compacted. Readers keep it alive, so they
  /// read it without holding the compaction lock.
  std::shared_ptr<const Selection> selection() const;
  ActionRecord selected_record(std::size_t i) const;
  /// Calls f(columns, rows): rows is null in the owned state (row i is i),
  /// else the selection's ids into its base columns.
  template <typename F>
  decltype(auto) read_rows(F&& f) const;
  /// Unshared, mutable owned columns (compacts or un-shares first).
  Columns& own();
  static Dataset from_columns(std::shared_ptr<Columns> columns, bool sorted);

  /// The owned columns (empty while selected); never null.
  mutable std::shared_ptr<Columns> columns_;
  /// Non-null exactly while selected_; swapped for owned columns, under
  /// Lazy::compaction, by compact().
  mutable std::shared_ptr<const Selection> selection_;
  mutable std::atomic<bool> selected_{false};
  /// Owned columns a selection was taken over: the next mutation copies
  /// them first, since the selection may still be reading them.
  mutable std::atomic<bool> shared_{false};
  std::size_t size_ = 0;
  bool sorted_ = true;  // vacuously sorted when empty
  mutable std::unique_ptr<Lazy> lazy_;
};

}  // namespace autosens::telemetry
