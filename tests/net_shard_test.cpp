// Sharded-collector correctness against the records that were sent.
//
// The sharded epoll collector (net/collector.h) must deliver every emitted
// record exactly once under every injected failure class, at every shard
// count: the collected Dataset's bytes equal the encoding of every
// emitter's records merged in time order, and all goodbyes are credited.
// The spine's ordering contract makes this exact, not approximate —
// per-session frame order is preserved through any shard placement, and the
// Dataset is canonically time-sorted.
//
// Also covered here: the kEagainStorm class (edge-triggered loops that
// trust one EAGAIN as "drained" lose the edge — the shard's bounded re-poll
// list is the defense), read deadlines enforced by the event-loop timer
// against fully silent connections, and SO_REUSEPORT accept sharding
// accounting every connection to exactly one shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "net/collector.h"
#include "net/emitter.h"
#include "net/fault.h"
#include "net/wire.h"
#include "telemetry/binlog.h"
#include "telemetry/record.h"

namespace autosens::net {
namespace {

using telemetry::ActionRecord;

/// Records for emitter `t` of `emitters`, with globally unique time_ms
/// (striped across emitters) so the time-sorted Dataset has one
/// deterministic order regardless of arrival interleaving or shard
/// placement.
std::vector<ActionRecord> striped_records(std::size_t per_emitter, std::size_t emitters,
                                          std::size_t t) {
  std::vector<ActionRecord> records;
  records.reserve(per_emitter);
  for (std::size_t i = 0; i < per_emitter; ++i) {
    const auto k = i * emitters + t;
    records.push_back({.time_ms = static_cast<std::int64_t>(k + 1),
                       .user_id = 1 + k % 7,
                       .latency_ms = 1.0 + 0.01 * static_cast<double>(k % 1000),
                       .action = telemetry::ActionType::kSearch,
                       .user_class = telemetry::UserClass::kConsumer,
                       .status = telemetry::ActionStatus::kSuccess});
  }
  return records;
}

std::vector<std::uint8_t> dataset_bytes(const telemetry::Dataset& dataset) {
  std::vector<ActionRecord> records;
  records.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) records.push_back(dataset[i]);
  return telemetry::codec::encode_batch(records);
}

struct MatrixCase {
  const char* name;
  FaultSpec spec;
  bool collector_side = false;  ///< Inject on the collector's ingest path.
};

/// The same seven fault classes as net_fault_matrix_test, now pointed at
/// the sharded collector. kEagainStorm gets its own dedicated test below.
const MatrixCase kMatrix[] = {
    {"connect_refused",
     {.fault = FaultClass::kConnectRefused, .probability = 1.0, .max_injections = 2}},
    {"disconnect_mid_frame",
     {.fault = FaultClass::kDisconnect,
      .probability = 0.2,
      .skip_ops = 1,
      .max_injections = 6}},
    {"short_write", {.fault = FaultClass::kShortWrite, .probability = 0.5}},
    {"short_read",
     {.fault = FaultClass::kShortRead, .probability = 0.5},
     /*collector_side=*/true},
    {"eagain_stall", {.fault = FaultClass::kEagain, .probability = 0.4}},
    {"latency",
     {.fault = FaultClass::kLatency,
      .probability = 0.2,
      .max_injections = 3,
      .latency_ms = 1}},
    {"corrupt_frame",
     {.fault = FaultClass::kCorrupt,
      .probability = 0.1,
      .skip_ops = 1,
      .max_injections = 4}},
};

/// One sharded-collector pipeline run: `emitters` threads against a
/// Collector with `shards` ingest loops, optional fault injection on either
/// side. Returns the collected dataset.
telemetry::Dataset run_sharded(std::size_t shards, std::size_t emitters,
                               std::size_t per_emitter,
                               const std::optional<MatrixCase>& fault,
                               std::uint64_t seed_base) {
  std::unique_ptr<FaultySocketOps> collector_ops;
  CollectorOptions collector_options;
  collector_options.shards = shards;
  if (fault && fault->collector_side) {
    collector_ops = std::make_unique<FaultySocketOps>(
        FaultPlan(seed_base, {fault->spec}), real_socket_ops(), 0.0);
    collector_options.ops = collector_ops.get();
  }
  CollectorThread collector(emitters, collector_options, /*timeout_ms=*/10'000);

  std::vector<std::thread> threads;
  threads.reserve(emitters);
  for (std::size_t t = 0; t < emitters; ++t) {
    threads.emplace_back([&, t] {
      std::unique_ptr<FaultySocketOps> faulty;
      EmitterOptions options{
          .batch_size = 32,
          .retry = {.max_attempts = 10, .backoff_initial_ms = 1, .seed = seed_base + t},
          .on_give_up = EmitterOptions::GiveUp::kThrow,
      };
      if (fault && !fault->collector_side) {
        faulty = std::make_unique<FaultySocketOps>(
            FaultPlan(seed_base + 100 * (t + 1), {fault->spec}), real_socket_ops(), 0.0);
        options.ops = faulty.get();
      }
      Emitter emitter(collector.port(), options);
      for (const auto& r : striped_records(per_emitter, emitters, t)) emitter.record(r);
      emitter.close();
    });
  }
  for (auto& thread : threads) thread.join();
  auto dataset = collector.join();
  EXPECT_TRUE(collector.complete());
  return dataset;
}

/// The exact bytes a lossless, exactly-once collection must produce: every
/// emitter's records merged in time order (times are globally unique, so
/// the order is fixed) and encoded as one batch.
std::vector<std::uint8_t> expected_bytes(std::size_t emitters, std::size_t per_emitter) {
  std::vector<ActionRecord> sent;
  sent.reserve(emitters * per_emitter);
  for (std::size_t t = 0; t < emitters; ++t) {
    const auto records = striped_records(per_emitter, emitters, t);
    sent.insert(sent.end(), records.begin(), records.end());
  }
  std::sort(sent.begin(), sent.end(), [](const ActionRecord& a, const ActionRecord& b) {
    return a.time_ms < b.time_ms;
  });
  return telemetry::codec::encode_batch(sent);
}

TEST(NetShardTest, FaultMatrixByteIdenticalToSentRecordsAcrossShardCounts) {
  constexpr std::size_t kPerEmitter = 240;
  constexpr std::size_t kEmitters = 4;
  const auto expected = expected_bytes(kEmitters, kPerEmitter);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    // Fault-free run first: the baseline every fault class must match.
    const auto clean =
        run_sharded(shards, kEmitters, kPerEmitter, std::nullopt, 0x5a4d);
    EXPECT_EQ(dataset_bytes(clean), expected);

    for (const auto& matrix_case : kMatrix) {
      SCOPED_TRACE(matrix_case.name);
      const auto dataset =
          run_sharded(shards, kEmitters, kPerEmitter, matrix_case, 0x5a4d);
      EXPECT_EQ(dataset.size(), kEmitters * kPerEmitter);
      EXPECT_EQ(dataset_bytes(dataset), expected)
          << "sharded recovery must deliver exactly the records sent";
    }
  }
}

TEST(NetShardTest, EagainStormDoesNotLoseTheEdge) {
  // Bursts of consecutive injected EAGAINs from recv/epoll_wait while the
  // kernel still holds bytes: an edge-triggered loop that believes the
  // first EAGAIN would stall forever. The bounded retry list must keep
  // re-reading until real progress resumes — the dataset is still exactly
  // the records sent.
  constexpr std::size_t kPerEmitter = 240;
  constexpr std::size_t kEmitters = 4;
  const auto expected = expected_bytes(kEmitters, kPerEmitter);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const MatrixCase storm{
        "eagain_storm",
        {.fault = FaultClass::kEagainStorm, .probability = 0.25, .storm_len = 5},
        /*collector_side=*/true};
    const auto dataset = run_sharded(shards, kEmitters, kPerEmitter, storm, 0x570c);
    EXPECT_EQ(dataset.size(), kEmitters * kPerEmitter);
    EXPECT_EQ(dataset_bytes(dataset), expected);
  }
}

TEST(NetShardTest, EventLoopTimerCutsFullySilentConnection) {
  // A connection that sends a hello + one data frame and then nothing —
  // ever — produces no read return for the deadline to piggyback on. Only
  // the event-loop timer can cut it. The frames delivered before the cut
  // stay in the dataset; the drop is classified as a deadline drop (not an
  // interrupted session — that classification is for clean EOFs).
  CollectorOptions options;
  options.shards = 2;
  options.read_deadline_ms = 100;
  Collector collector(options);

  const auto records = striped_records(8, 1, 0);
  const auto payload = telemetry::codec::encode_batch(records);
  auto silent = connect_tcp(collector.port());
  write_all(silent, encode_frame(make_hello(0x51137ULL)));
  write_all(silent, encode_frame(Frame{.type = FrameType::kData, .seq = 1, .payload = payload}));
  // Keep the fd open and silent; a parallel well-behaved emitter supplies
  // the goodbye that ends the serve loop after the deadline has passed.
  std::thread good([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Emitter emitter(collector.port(), {.batch_size = 8});
    for (const auto& r : striped_records(8, 2, 1)) emitter.record(r);
    emitter.close();
  });
  const bool complete = collector.serve_until_goodbye(1, /*timeout_ms=*/10'000);
  good.join();

  EXPECT_TRUE(complete);
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deadline_drops, 1u);
  EXPECT_EQ(stats.dropped_connections, 1u);
  EXPECT_EQ(stats.interrupted_connections, 0u);
  EXPECT_EQ(collector.dataset().size(), 16u)
      << "frames delivered before the deadline cut must be kept";
}

TEST(NetShardTest, ReuseportShardsAccountAllConnections) {
  // Kernel accept sharding (the default): placement is the kernel's
  // 4-tuple hash, so per-shard counts are not asserted — only that every
  // connection is owned by exactly one shard and nothing is double-counted.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kEmitters = 8;
  constexpr std::size_t kPerEmitter = 120;

  CollectorOptions options;
  options.shards = kShards;
  Collector collector(options);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kEmitters; ++t) {
    threads.emplace_back([&, t] {
      Emitter emitter(collector.port(), {.batch_size = 32});
      for (const auto& r : striped_records(kPerEmitter, kEmitters, t)) emitter.record(r);
      emitter.close();
    });
  }
  const bool complete = collector.serve_until_goodbye(kEmitters, /*timeout_ms=*/10'000);
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(complete);
  EXPECT_EQ(collector.dataset().size(), kEmitters * kPerEmitter);
  const auto shard_stats = collector.shard_stats();
  ASSERT_EQ(shard_stats.size(), kShards);
  std::size_t total_connections = 0;
  for (const auto& s : shard_stats) total_connections += s.connections;
  EXPECT_EQ(total_connections, kEmitters);
}

}  // namespace
}  // namespace autosens::net
