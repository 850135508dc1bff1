#include "telemetry/filter.h"

#include <stdexcept>

#include "stats/descriptive.h"

namespace autosens::telemetry {

namespace {

RecordPredicate column_term(RecordPredicate::Term::Kind kind, std::int64_t value,
                            std::int64_t end_ms = 0) {
  return RecordPredicate(
      {RecordPredicate::Term{.kind = kind, .value = value, .end_ms = end_ms, .record = {}}});
}

}  // namespace

RecordPredicate by_action(ActionType type) {
  return column_term(RecordPredicate::Term::Kind::kAction, static_cast<std::int64_t>(type));
}

RecordPredicate by_user_class(UserClass user_class) {
  return column_term(RecordPredicate::Term::Kind::kUserClass,
                     static_cast<std::int64_t>(user_class));
}

RecordPredicate by_status(ActionStatus status) {
  return column_term(RecordPredicate::Term::Kind::kStatus, static_cast<std::int64_t>(status));
}

RecordPredicate by_period(DayPeriod period) {
  return column_term(RecordPredicate::Term::Kind::kPeriod, static_cast<std::int64_t>(period));
}

RecordPredicate by_month(std::int64_t month) {
  return column_term(RecordPredicate::Term::Kind::kMonth, month);
}

RecordPredicate by_time_range(std::int64_t begin_ms, std::int64_t end_ms) {
  return column_term(RecordPredicate::Term::Kind::kTimeRange, begin_ms, end_ms);
}

RecordPredicate all_of(std::vector<RecordPredicate> predicates) {
  RecordPredicate conjunction;
  for (auto& predicate : predicates) conjunction &= std::move(predicate);
  return conjunction;
}

UserQuartiles::UserQuartiles(const Dataset& dataset)
    : UserQuartiles(dataset.per_user_median_latency()) {}

UserQuartiles::UserQuartiles(const std::unordered_map<std::uint64_t, double>& medians) {
  if (medians.empty()) throw std::invalid_argument("UserQuartiles: dataset has no users");
  std::vector<double> values;
  values.reserve(medians.size());
  for (const auto& [user, median] : medians) values.push_back(median);
  boundaries_ = {stats::quantile(values, 0.25), stats::quantile(values, 0.50),
                 stats::quantile(values, 0.75)};
  assignment_.reserve(medians.size());
  for (const auto& [user, median] : medians) {
    int q = 0;
    while (q < 3 && median > boundaries_[static_cast<std::size_t>(q)]) ++q;
    assignment_.emplace(user, q);
  }
}

int UserQuartiles::quartile_of(std::uint64_t user_id) const {
  const auto it = assignment_.find(user_id);
  if (it == assignment_.end()) {
    throw std::invalid_argument("UserQuartiles: unknown user id");
  }
  return it->second;
}

RecordPredicate UserQuartiles::in_quartile(int q) const {
  if (q < 0 || q >= kQuartileCount) {
    throw std::invalid_argument("UserQuartiles::in_quartile: q outside [0,4)");
  }
  // Capture the map by value so the predicate outlives this object safely.
  return [assignment = assignment_, q](const ActionRecord& r) {
    const auto it = assignment.find(r.user_id);
    return it != assignment.end() && it->second == q;
  };
}

}  // namespace autosens::telemetry
