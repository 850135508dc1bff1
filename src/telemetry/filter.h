// Composable record predicates and the slicing helpers the evaluation uses:
// by action type (§3.2), by user class (§3.3), by per-user median-latency
// quartile (§3.4), by 6-hour period (§3.6), and by month (§3.7). All but the
// quartile test are column terms (see RecordPredicate in dataset.h), so
// Dataset::filtered evaluates them by scanning one column each.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "telemetry/clock.h"
#include "telemetry/dataset.h"
#include "telemetry/record.h"

namespace autosens::telemetry {

RecordPredicate by_action(ActionType type);
RecordPredicate by_user_class(UserClass user_class);
RecordPredicate by_status(ActionStatus status);
RecordPredicate by_period(DayPeriod period);
RecordPredicate by_month(std::int64_t month);
RecordPredicate by_time_range(std::int64_t begin_ms, std::int64_t end_ms);

/// Logical AND of predicates: their terms, concatenated in order.
RecordPredicate all_of(std::vector<RecordPredicate> predicates);

/// Per-user median-latency quartile assignment. Users are ranked by their
/// median latency over `dataset`; quartile 0 (Q1) holds the quarter with the
/// lowest medians. Boundaries use the type-7 quantiles of the per-user
/// medians, so quartiles are balanced in user count (up to ties).
class UserQuartiles {
 public:
  static constexpr int kQuartileCount = 4;

  /// Throws std::invalid_argument if the dataset has no users.
  explicit UserQuartiles(const Dataset& dataset);

  /// Build from precomputed per-user medians (e.g. a streaming
  /// telemetry::UserAccumulator over data too large to materialize).
  explicit UserQuartiles(const std::unordered_map<std::uint64_t, double>& medians);

  /// Quartile in [0, 4) for a user; unknown users go to the nearest quartile
  /// by their absence being impossible in our pipelines — throws instead.
  int quartile_of(std::uint64_t user_id) const;
  bool contains(std::uint64_t user_id) const noexcept {
    return assignment_.contains(user_id);
  }

  /// Predicate matching records of users in quartile q (a generic term: it
  /// looks up each gathered record's user).
  RecordPredicate in_quartile(int q) const;

  /// Median-latency boundaries between quartiles (3 values: q25, q50, q75).
  const std::array<double, 3>& boundaries() const noexcept { return boundaries_; }
  std::size_t user_count() const noexcept { return assignment_.size(); }

 private:
  std::unordered_map<std::uint64_t, int> assignment_;
  std::array<double, 3> boundaries_{};
};

}  // namespace autosens::telemetry
