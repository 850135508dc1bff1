#include "telemetry/logdir.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "stats/rng.h"
#include "telemetry/binlog.h"
#include "temp_path.h"

namespace autosens::telemetry {
namespace {

Dataset random_dataset(std::size_t n, std::uint64_t seed) {
  stats::Random random(seed);
  Dataset d;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(random.exponential(0.01)) + 1;
    d.add({.time_ms = t,
           .user_id = 1 + random.uniform_index(20),
           .latency_ms = std::round(random.lognormal(5.5, 0.4) * 100.0) / 100.0});
  }
  return d;
}

std::string temp_dir(const std::string& name) {
  const auto dir = autosens::test_support::temp_path(name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(LogDirTest, ShardNamesSortLexicographically) {
  EXPECT_EQ(shard_name(0), "autosens-00000.bin");
  EXPECT_EQ(shard_name(42), "autosens-00042.bin");
  EXPECT_LT(shard_name(9), shard_name(10));
}

TEST(LogDirTest, WriteValidation) {
  EXPECT_THROW(write_sharded(temp_dir("ld0"), Dataset{}, 0), std::invalid_argument);
}

TEST(LogDirTest, RoundtripSingleShard) {
  const auto dir = temp_dir("ld1");
  const auto dataset = random_dataset(100, 1);
  const auto paths = write_sharded(dir, dataset, 1000);
  EXPECT_EQ(paths.size(), 1u);
  const auto merged = read_sharded(dir);
  ASSERT_EQ(merged.size(), dataset.size());
  for (std::size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i], dataset[i]);
}

TEST(LogDirTest, RoundtripManyShards) {
  const auto dir = temp_dir("ld2");
  const auto dataset = random_dataset(1000, 2);
  const auto paths = write_sharded(dir, dataset, 137);
  EXPECT_EQ(paths.size(), (1000 + 136) / 137);
  const auto merged = read_sharded(dir);
  ASSERT_EQ(merged.size(), dataset.size());
  EXPECT_TRUE(merged.is_sorted());
  for (std::size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i], dataset[i]);
}

TEST(LogDirTest, EmptyDatasetWritesMarkerShard) {
  const auto dir = temp_dir("ld3");
  const auto paths = write_sharded(dir, Dataset{}, 100);
  EXPECT_EQ(paths.size(), 1u);
  EXPECT_TRUE(read_sharded(dir).empty());
}

TEST(LogDirTest, MergesIndependentWrites) {
  // Two collectors write to the same directory under different names: the
  // reader merges whatever *.bin files are present.
  const auto dir = temp_dir("ld4");
  const auto a = random_dataset(200, 3);
  const auto b = random_dataset(300, 4);
  std::filesystem::create_directories(dir);
  write_binlog_file(dir + "/collector-a.bin", a);
  write_binlog_file(dir + "/collector-b.bin", b);
  const auto merged = read_sharded(dir);
  EXPECT_EQ(merged.size(), a.size() + b.size());
  EXPECT_TRUE(merged.is_sorted());
}

TEST(LogDirTest, IgnoresNonBinFiles) {
  const auto dir = temp_dir("ld5");
  write_sharded(dir, random_dataset(50, 5), 100);
  {
    std::ofstream junk(dir + "/notes.txt");
    junk << "not a shard";
  }
  EXPECT_EQ(read_sharded(dir).size(), 50u);
}

TEST(LogDirTest, MissingDirectoryThrows) {
  EXPECT_THROW(read_sharded("/nonexistent/autosens/dir"), std::runtime_error);
}

TEST(LogDirTest, CorruptShardThrows) {
  const auto dir = temp_dir("ld6");
  write_sharded(dir, random_dataset(50, 6), 100);
  {
    std::ofstream corrupt(dir + "/zz-corrupt.bin", std::ios::binary);
    corrupt << "garbage";
  }
  EXPECT_THROW(read_sharded(dir), std::runtime_error);
}

}  // namespace
}  // namespace autosens::telemetry
