// The benchmark's own metric code: the tail-percentile rule, failure
// counting, and span self time / attribution. Header-only and free of any
// AutoSens dependency so metrics_test.cpp can pin it in isolation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

// ---------------------------------------------------------------------------
// Timing summaries.

/// Median of `samples` (mean of the middle two for an even count). Throws
/// std::invalid_argument when empty.
inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The tail report: the highest percentile that still has at least
/// kMinBeyond samples above it (the order statistic at rank n - kMinBeyond),
/// its value, and how many samples that value rests on. The percentile moves
/// smoothly with the sample count, so runs of slightly different length
/// report comparable tails.
struct TailPick {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;  ///< Sample count the percentile was taken over.
  std::size_t beyond = 0;   ///< Samples ranked above the reported one.
};

inline constexpr std::size_t kMinBeyond = 10;

/// Pick the tail for `samples`. Below 2·kMinBeyond samples that rank would
/// fall under the median, so the median rank (nearest rank, p50) is
/// reported instead, with `beyond` telling the reader how thin it is.
/// Throws std::invalid_argument when empty.
inline TailPick tail_pick(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("tail_pick: no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t rank = n >= 2 * kMinBeyond ? n - kMinBeyond : (n + 1) / 2;  // 1-based
  return {.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n),
          .value = samples[rank - 1],
          .samples = n,
          .beyond = n - rank};
}

// ---------------------------------------------------------------------------
// Failure accounting.

/// Why an operation failed. An operation fails if it throws, if its output
/// differs from the set-up reference, or if records were lost, duplicated
/// or altered on the way (the collect path).
enum class Failure { kNone, kThrew, kMismatch, kRecords };

inline const char* to_string(Failure failure) {
  switch (failure) {
    case Failure::kNone: return "none";
    case Failure::kThrew: return "threw";
    case Failure::kMismatch: return "mismatch";
    case Failure::kRecords: return "records";
  }
  return "unknown";
}

/// Attempted / failed counts with a per-reason breakdown.
class FailureTally {
 public:
  void record(Failure failure) {
    ++attempted_;
    if (failure != Failure::kNone) {
      ++failed_;
      ++by_reason_[to_string(failure)];
    }
  }
  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  /// failed ÷ attempted; 0 when nothing was attempted.
  double fail_ratio() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) / static_cast<double>(attempted_);
  }
  const std::map<std::string, std::size_t>& by_reason() const noexcept { return by_reason_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::size_t> by_reason_;
};

// ---------------------------------------------------------------------------
// Spans, self time and attribution.

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/// One timed interval. `parent` indexes the enclosing span in the same
/// vector (kNoParent for an operation's root); a child may run on another
/// thread than its parent, so siblings can overlap.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t parent = kNoParent;
  std::uint64_t op = 0;
  std::uint32_t tid = 0;
  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Length of the union of `intervals` clipped to [lo, hi).
inline std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                               std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end <= start) continue;
    covered += end - start;
    cursor = end;
  }
  return covered;
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children on several threads count once
/// where they overlap).
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent == kNoParent) continue;
    if (span.parent >= spans.size()) throw std::out_of_range("self_times_ns: bad parent");
    children[span.parent].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() -
              covered_ns(std::move(children[i]), spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

/// How much of an operation's wall time the timed calls inside it account
/// for. The root's own self time is the explicit unattributed bucket.
struct Attribution {
  std::int64_t wall_ns = 0;
  std::int64_t attributed_ns = 0;
  std::int64_t unattributed_ns = 0;
  double ratio() const noexcept {
    return wall_ns <= 0 ? 0.0
                        : static_cast<double>(attributed_ns) / static_cast<double>(wall_ns);
  }
};

inline Attribution attribution(const std::vector<Span>& spans, std::size_t root) {
  if (root >= spans.size()) throw std::out_of_range("attribution: bad root");
  const auto self = self_times_ns(spans);
  Attribution result;
  result.wall_ns = spans[root].duration_ns();
  result.unattributed_ns = self[root];
  result.attributed_ns = result.wall_ns - result.unattributed_ns;
  return result;
}

}  // namespace e2ebench
