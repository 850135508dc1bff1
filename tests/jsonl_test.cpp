#include "telemetry/jsonl.h"

#include <gtest/gtest.h>

#include <sstream>

#include "temp_path.h"

namespace autosens::telemetry {
namespace {

Dataset sample_dataset() {
  Dataset d;
  d.add({.time_ms = 1000,
         .user_id = 42,
         .latency_ms = 123.45,
         .action = ActionType::kSelectMail,
         .user_class = UserClass::kBusiness,
         .status = ActionStatus::kSuccess});
  d.add({.time_ms = 2000,
         .user_id = 43,
         .latency_ms = 678.9,
         .action = ActionType::kSearch,
         .user_class = UserClass::kConsumer,
         .status = ActionStatus::kError});
  return d;
}

TEST(JsonlTest, WriteFormat) {
  std::ostringstream out;
  write_jsonl(out, sample_dataset());
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"time_ms\":1000,\"user_id\":42,\"action\":\"SelectMail\","
                      "\"latency_ms\":123.45,\"user_class\":\"Business\","
                      "\"status\":\"Success\"}"),
            std::string::npos);
}

TEST(JsonlTest, Roundtrip) {
  const auto original = sample_dataset();
  std::stringstream stream;
  write_jsonl(stream, original);
  const auto result = read_jsonl(stream);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(result.dataset[i], original[i]);
  }
}

TEST(JsonlTest, EmptyInputGivesEmptyDataset) {
  std::istringstream in("");
  const auto result = read_jsonl(in);
  EXPECT_TRUE(result.dataset.empty());
  EXPECT_TRUE(result.errors.empty());
}

TEST(JsonlTest, ToleratesWhitespaceAndBlankLines) {
  std::istringstream in(
      "\n  {\"time_ms\": 1, \"user_id\": 2, \"action\": \"Search\", "
      "\"latency_ms\": 3.5, \"user_class\": \"Consumer\", \"status\": \"Success\"}  \n\n");
  const auto result = read_jsonl(in);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), 1u);
  EXPECT_DOUBLE_EQ(result.dataset[0].latency_ms, 3.5);
}

TEST(JsonlTest, FieldOrderIsIrrelevant) {
  std::istringstream in(
      "{\"status\":\"Success\",\"latency_ms\":9,\"user_class\":\"Business\","
      "\"action\":\"ComposeSend\",\"user_id\":7,\"time_ms\":5}");
  const auto result = read_jsonl(in);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), 1u);
  EXPECT_EQ(result.dataset[0].action, ActionType::kComposeSend);
}

TEST(JsonlTest, MalformedLinesReportedWithReasons) {
  std::istringstream in(
      "not json\n"
      "{\"time_ms\":1}\n"
      "{\"time_ms\":1,\"user_id\":2,\"action\":\"Nope\",\"latency_ms\":3,"
      "\"user_class\":\"Business\",\"status\":\"Success\"}\n"
      "{\"time_ms\":1,\"user_id\":2,\"action\":\"Search\",\"latency_ms\":3,"
      "\"user_class\":\"Business\",\"status\":\"Success\",\"extra\":1}\n"
      "{\"time_ms\":1,\"user_id\":2,\"action\":\"Search\",\"latency_ms\":3,"
      "\"user_class\":\"Business\",\"status\":\"Success\"}\n");
  const auto result = read_jsonl(in);
  EXPECT_EQ(result.dataset.size(), 1u);
  ASSERT_EQ(result.errors.size(), 4u);
  EXPECT_EQ(result.errors[0].line, 1u);
  EXPECT_EQ(result.errors[1].message, "missing required field");
  EXPECT_EQ(result.errors[2].message, "unknown action type");
  EXPECT_EQ(result.errors[3].message, "unknown key: extra");
}

TEST(JsonlTest, RejectsTrailingGarbage) {
  std::istringstream in(
      "{\"time_ms\":1,\"user_id\":2,\"action\":\"Search\",\"latency_ms\":3,"
      "\"user_class\":\"Business\",\"status\":\"Success\"} extra");
  const auto result = read_jsonl(in);
  EXPECT_TRUE(result.dataset.empty());
  ASSERT_EQ(result.errors.size(), 1u);
}

TEST(JsonlTest, OutputIsSortedByTime) {
  std::istringstream in(
      "{\"time_ms\":200,\"user_id\":1,\"action\":\"Search\",\"latency_ms\":1,"
      "\"user_class\":\"Business\",\"status\":\"Success\"}\n"
      "{\"time_ms\":100,\"user_id\":1,\"action\":\"Search\",\"latency_ms\":1,"
      "\"user_class\":\"Business\",\"status\":\"Success\"}\n");
  const auto result = read_jsonl(in);
  ASSERT_EQ(result.dataset.size(), 2u);
  EXPECT_TRUE(result.dataset.is_sorted());
  EXPECT_EQ(result.dataset[0].time_ms, 100);
}

TEST(JsonlTest, FileRoundtrip) {
  const auto original = sample_dataset();
  const std::string path = autosens::test_support::temp_path("roundtrip.jsonl").string();
  write_jsonl_file(path, original);
  const auto result = read_jsonl_file(path);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), original.size());
  EXPECT_EQ(result.dataset[0], original[0]);
  EXPECT_THROW(read_jsonl_file("/nonexistent/file.jsonl"), std::runtime_error);
}

}  // namespace
}  // namespace autosens::telemetry
