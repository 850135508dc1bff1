// Tests of the benchmark's own metric code (metrics.h) and of its metric
// catalogue against BENCHMARK.json.
#include "metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "catalogue.h"

namespace e2ebench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);  // 1, 2, ..., n
  return values;
}

TEST(TailPick, TakesTheRankWithTenSamplesBeyond) {
  // 100 samples: rank 90 is the highest with 10 samples above it.
  const TailPick pick = tail_pick(ramp(100));
  EXPECT_DOUBLE_EQ(pick.percentile, 90.0);
  EXPECT_EQ(pick.value, 90.0);
  EXPECT_EQ(pick.samples, 100u);
  EXPECT_EQ(pick.beyond, 10u);
}

TEST(TailPick, PercentileFollowsTheSampleCount) {
  EXPECT_DOUBLE_EQ(tail_pick(ramp(1000)).percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail_pick(ramp(10000)).percentile, 99.9);
  const TailPick p130 = tail_pick(ramp(130));  // rank 120 of 130
  EXPECT_NEAR(p130.percentile, 92.3077, 1e-4);
  EXPECT_EQ(p130.value, 120.0);
  EXPECT_EQ(p130.beyond, 10u);
  const TailPick p40 = tail_pick(ramp(40));
  EXPECT_DOUBLE_EQ(p40.percentile, 75.0);
  EXPECT_EQ(p40.value, 30.0);
}

TEST(TailPick, IgnoresSampleOrder) {
  std::vector<double> values = ramp(100);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(tail_pick(values).value, 90.0);
}

TEST(TailPick, FallsBackToTheMedianRankWhenThin) {
  const TailPick p20 = tail_pick(ramp(20));  // rank 10: exactly the median rank
  EXPECT_DOUBLE_EQ(p20.percentile, 50.0);
  EXPECT_EQ(p20.beyond, 10u);
  const TailPick pick = tail_pick(ramp(14));
  EXPECT_DOUBLE_EQ(pick.percentile, 50.0);
  EXPECT_EQ(pick.value, 7.0);
  EXPECT_EQ(pick.samples, 14u);
  EXPECT_EQ(pick.beyond, 7u);  // fewer than kMinBeyond: reported, not hidden
  const TailPick odd = tail_pick(ramp(15));  // rank 8 of 15
  EXPECT_EQ(odd.value, 8.0);
  EXPECT_EQ(odd.beyond, 7u);
  EXPECT_EQ(tail_pick({3.0}).beyond, 0u);
}

TEST(TailPick, RejectsEmpty) { EXPECT_THROW(tail_pick({}), std::invalid_argument); }

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(FailureTally, CountsEveryReasonAgainstAttempts) {
  FailureTally tally;
  EXPECT_EQ(tally.fail_ratio(), 0.0);
  tally.record(Failure::kNone);
  tally.record(Failure::kThrew);
  tally.record(Failure::kMismatch);
  tally.record(Failure::kRecords);
  tally.record(Failure::kNone);
  tally.record(Failure::kMismatch);
  tally.record(Failure::kNone);
  tally.record(Failure::kNone);
  EXPECT_EQ(tally.attempted(), 8u);
  EXPECT_EQ(tally.failed(), 4u);
  EXPECT_DOUBLE_EQ(tally.fail_ratio(), 0.5);
  EXPECT_EQ(tally.by_reason().at("threw"), 1u);
  EXPECT_EQ(tally.by_reason().at("mismatch"), 2u);
  EXPECT_EQ(tally.by_reason().at("records"), 1u);
  EXPECT_FALSE(tally.by_reason().contains("none"));
}

TEST(FailureTally, AllGood) {
  FailureTally tally;
  for (int i = 0; i < 5; ++i) tally.record(Failure::kNone);
  EXPECT_EQ(tally.failed(), 0u);
  EXPECT_EQ(tally.fail_ratio(), 0.0);
}

Span span(const char* name, std::int64_t start, std::int64_t end, std::size_t parent) {
  return Span{.name = name, .start_ns = start, .end_ns = end, .parent = parent};
}

TEST(SelfTime, NestedSequentialChildren) {
  // op [0,100): load [0,30), validate [30,70) with child scan [40,60); gap
  // [70,100) is unattributed.
  const std::vector<Span> spans = {span("op", 0, 100, kNoParent), span("load", 0, 30, 0),
                                   span("validate", 30, 70, 0), span("scan", 40, 60, 2)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{30, 30, 20, 20}));
  const Attribution a = attribution(spans, 0);
  EXPECT_EQ(a.wall_ns, 100);
  EXPECT_EQ(a.attributed_ns, 70);
  EXPECT_EQ(a.unattributed_ns, 30);
  EXPECT_DOUBLE_EQ(a.ratio(), 0.7);
}

TEST(SelfTime, OverlappingChildrenOnThreadsCountOnce) {
  // A parallel region [10,90) whose two workers run [10,60) and [20,80):
  // their union [10,80) covers 70 of the region's 80.
  const std::vector<Span> spans = {span("op", 0, 100, kNoParent), span("region", 10, 90, 0),
                                   span("w0", 10, 60, 1), span("w1", 20, 80, 1)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 50);
  EXPECT_EQ(self[3], 60);
  EXPECT_DOUBLE_EQ(attribution(spans, 0).ratio(), 0.8);
}

TEST(SelfTime, ChildrenClippedToParent) {
  // A child reaching past its parent's end only covers the overlap.
  const std::vector<Span> spans = {span("op", 0, 50, kNoParent), span("late", 40, 70, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 40);
  EXPECT_EQ(attribution(spans, 0).attributed_ns, 10);
}

TEST(SelfTime, FullyAttributedAndEmptyRoot) {
  const std::vector<Span> full = {span("op", 0, 10, kNoParent), span("a", 0, 4, 0),
                                  span("b", 4, 10, 0)};
  EXPECT_DOUBLE_EQ(attribution(full, 0).ratio(), 1.0);
  const std::vector<Span> zero = {span("op", 5, 5, kNoParent)};
  EXPECT_EQ(attribution(zero, 0).ratio(), 0.0);
}

TEST(SelfTime, RejectsBadIndices) {
  const std::vector<Span> bad = {span("op", 0, 10, kNoParent), span("a", 0, 4, 7)};
  EXPECT_THROW(self_times_ns(bad), std::out_of_range);
  EXPECT_THROW(attribution({span("op", 0, 1, kNoParent)}, 3), std::out_of_range);
}

/// (name, unit) pairs of one metric list of BENCHMARK.json, in file order.
std::vector<std::pair<std::string, std::string>> manifest_metrics(const std::string& list) {
  std::ifstream in(E2E_MANIFEST);
  std::stringstream text;
  text << in.rdbuf();
  const std::string manifest = text.str();
  const auto begin = manifest.find("\"" + list + "\"");
  if (begin == std::string::npos) return {};
  const auto end = manifest.find(']', begin);
  const std::string section = manifest.substr(begin, end - begin);
  const std::regex entry("\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(section.begin(), section.end(), entry), last; it != last; ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

TEST(Catalogue, MatchesBenchmarkManifest) {
  std::vector<std::pair<std::string, std::string>> end_to_end, per_layer;
  for (const auto& m : end_to_end_metrics()) end_to_end.emplace_back(m.name, m.unit);
  for (const auto& m : layer_metrics()) per_layer.emplace_back(m.name, m.unit);
  EXPECT_EQ(manifest_metrics("end_to_end"), end_to_end);
  EXPECT_EQ(manifest_metrics("per_layer"), per_layer);
}

}  // namespace
}  // namespace e2ebench
