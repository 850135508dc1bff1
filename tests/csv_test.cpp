#include "telemetry/csv.h"

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

TEST(CsvTest, WriteProducesHeaderAndRows) {
  std::ostringstream out;
  write_csv(out, sample_dataset());
  const std::string text = out.str();
  EXPECT_NE(text.find(kCsvHeader), std::string::npos);
  EXPECT_NE(text.find("1000,42,SelectMail,123.45,Business,Success"), std::string::npos);
  EXPECT_NE(text.find("2000,43,Search,678.9,Consumer,Error"), std::string::npos);
}

TEST(CsvTest, Roundtrip) {
  const auto original = sample_dataset();
  std::stringstream stream;
  write_csv(stream, original);
  const auto result = read_csv(stream);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(result.dataset[i], original[i]);
  }
}

TEST(CsvTest, EmptyInputThrows) {
  std::istringstream in("");
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(CsvTest, WrongHeaderThrows) {
  std::istringstream in("a,b,c\n1,2,3\n");
  EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(CsvTest, HeaderOnlyGivesEmptyDataset) {
  std::istringstream in(std::string(kCsvHeader) + "\n");
  const auto result = read_csv(in);
  EXPECT_TRUE(result.dataset.empty());
  EXPECT_TRUE(result.errors.empty());
}

TEST(CsvTest, MalformedRowsAreReportedWithLineNumbers) {
  std::istringstream in(std::string(kCsvHeader) +
                        "\n"
                        "1000,42,SelectMail,123.45,Business,Success\n"
                        "not_a_number,42,SelectMail,1,Business,Success\n"
                        "1000,42,UnknownAction,1,Business,Success\n"
                        "1000,42,SelectMail,xyz,Business,Success\n"
                        "1000,42,SelectMail,1,Alien,Success\n"
                        "1000,42,SelectMail,1,Business,Maybe\n"
                        "1000,42,SelectMail,1,Business\n"
                        "2000,43,Search,5,Consumer,Success\n");
  const auto result = read_csv(in);
  EXPECT_EQ(result.dataset.size(), 2u);
  ASSERT_EQ(result.errors.size(), 6u);
  EXPECT_EQ(result.errors[0].line, 3u);
  EXPECT_EQ(result.errors[0].message, "bad time_ms");
  EXPECT_EQ(result.errors[1].message, "unknown action type");
  EXPECT_EQ(result.errors[2].message, "bad latency_ms");
  EXPECT_EQ(result.errors[3].message, "unknown user class");
  EXPECT_EQ(result.errors[4].message, "unknown status");
  EXPECT_NE(result.errors[5].message.find("expected 6 fields"), std::string::npos);
}

TEST(CsvTest, BlankLinesAreSkipped) {
  std::istringstream in(std::string(kCsvHeader) +
                        "\n\n1000,42,SelectMail,1,Business,Success\n\n");
  const auto result = read_csv(in);
  EXPECT_EQ(result.dataset.size(), 1u);
  EXPECT_TRUE(result.errors.empty());
}

TEST(CsvTest, WhitespaceAndCrlfTolerated) {
  std::istringstream in(std::string(kCsvHeader) +
                        "\r\n 1000 , 42 , SelectMail , 1.5 , Business , Success \r\n");
  const auto result = read_csv(in);
  ASSERT_EQ(result.dataset.size(), 1u);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_DOUBLE_EQ(result.dataset[0].latency_ms, 1.5);
}

TEST(CsvTest, ResultIsSortedByTime) {
  std::istringstream in(std::string(kCsvHeader) +
                        "\n"
                        "2000,1,SelectMail,1,Business,Success\n"
                        "1000,2,SelectMail,1,Business,Success\n");
  const auto result = read_csv(in);
  ASSERT_EQ(result.dataset.size(), 2u);
  EXPECT_EQ(result.dataset[0].time_ms, 1000);
  EXPECT_TRUE(result.dataset.is_sorted());
}

TEST(CsvTest, FileRoundtrip) {
  const auto original = sample_dataset();
  const std::string path = autosens::test_support::temp_path("roundtrip.csv").string();
  write_csv_file(path, original);
  const auto result = read_csv_file(path);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.dataset.size(), original.size());
  EXPECT_EQ(result.dataset[0], original[0]);
}

TEST(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/path/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace autosens::telemetry
