// End-to-end AutoSens benchmark program. Links the library and times calls
// into each layer's public functions from outside, on inputs generated from
// --seed. One process runs one workload:
//
//   analyze_bin    read_binlog_file -> validate -> filtered(SelectMail) ->
//                  analyze_detailed, threads=1 (single-job latency baseline)
//   confidence     analyze_with_confidence on the in-memory scrubbed
//                  SelectMail slice, 50 replicates, threads=2
//   collect_store  1000 TCP emitter sessions (2 clients) into a 2-shard
//                  collector -> build_store -> StoredDataset::open ->
//                  analyze_store_windows (7-day windows, threads=1)
//
// --trace 0 measures the end-to-end metrics with every library call made as
// one call and no spans recorded. --trace 1 alternates that untraced
// operation with a traced one that performs the same work as a sequence of
// public calls, each wrapped in a span kept in memory; its per-layer numbers
// come from those spans, and its outputs must match the same set-up
// reference byte for byte. Every run leaves a capture directory holding the
// seed, the metric rows and the spans as Chrome trace JSON.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/confidence.h"
#include "core/confounder_time.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/preference.h"
#include "core/store_analyze.h"
#include "core/unbiased.h"
#include "catalogue.h"
#include "metrics.h"
#include "net/collector.h"
#include "net/emitter.h"
#include "obs/sampler.h"
#include "simulate/generator.h"
#include "simulate/presets.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "telemetry/binlog.h"
#include "telemetry/filter.h"
#include "telemetry/store/store.h"
#include "telemetry/store/writer.h"
#include "telemetry/validate.h"

namespace e2ebench {
namespace {

namespace core = autosens::core;
namespace net = autosens::net;
namespace obs = autosens::obs;
namespace simulate = autosens::simulate;
namespace stats = autosens::stats;
namespace telemetry = autosens::telemetry;
namespace fs = std::filesystem;

// Workload shape (see README.md for why each value).
constexpr std::size_t kSetupRepeats = 3;
// kMedium's 800 users give 2.05M-2.28M rows depending on the seed, so the
// scrubbed rows (~2^21) and the SelectMail slice (~2^20) land on either side
// of a power of two from seed to seed, and validate/filtered, which grow
// their columns by push_back, pay one more capacity doubling on some seeds
// than on others (up to 1.5x op time on analyze_bin). 1000 users put every
// seed's row counts well inside one doubling interval.
constexpr std::size_t kUsers = 1000;
constexpr std::uint64_t kConfidenceSeed = 17;
constexpr std::size_t kReplicates = 50;
constexpr std::size_t kConfidenceThreads = 2;
constexpr std::size_t kClientThreads = 2;
constexpr std::size_t kCollectorShards = 2;
constexpr int kCollectorIdleTimeoutMs = 30'000;
constexpr std::int64_t kWindowMs = 7 * telemetry::kMillisPerDay;
const std::vector<double> kProbes = {500.0, 750.0, 1000.0, 1500.0, 2000.0};
constexpr telemetry::ActionType kSlice = telemetry::ActionType::kSelectMail;

/// Emitter connections with one loopback source address per session
/// (127.1.0.1 + session index), as if each user's device were its own host.
/// From a single source address, the ~1000 connections of every operation
/// leave ~1000 client-side TIME_WAIT sockets for 60 s; over a run they fill
/// most of the ephemeral port range, and connect() slows as its port search
/// steps over them, so op time climbed within a run and a run inherited the
/// previous run's sockets. Apart from the bind, this is
/// SocketOps::connect_tcp_fd.
class SessionSourceOps final : public net::SocketOps {
 public:
  explicit SessionSourceOps(std::size_t session)
      : source_(htonl(INADDR_LOOPBACK + 0x10000u + static_cast<std::uint32_t>(session))) {}

  int connect_tcp_fd(std::uint16_t port) noexcept override {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -errno;
    const int enable = 1;
    sockaddr_in source{};
    source.sin_family = AF_INET;
    source.sin_addr.s_addr = source_;
    sockaddr_in target{};
    target.sin_family = AF_INET;
    target.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    target.sin_port = htons(port);
    // The port is picked at connect(), against the full address pair.
    if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable) < 0 ||
        ::setsockopt(fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &enable, sizeof enable) < 0 ||
        ::bind(fd, reinterpret_cast<const sockaddr*>(&source), sizeof source) < 0 ||
        ::connect(fd, reinterpret_cast<const sockaddr*>(&target), sizeof target) < 0) {
      const int saved = errno;
      ::close(fd);
      return -saved;
    }
    return fd;
  }

 private:
  in_addr_t source_;
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU of this process, in milliseconds.
double cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

// ---------------------------------------------------------------------------
// In-memory span recorder (traced runs only; a null Recorder* is a no-op).

class Recorder {
 public:
  std::size_t open(const char* name, std::size_t parent) {
    const std::uint32_t tid = thread_tag();
    const std::lock_guard lock(mutex_);
    spans_.push_back(Span{.name = name,
                          .start_ns = now_ns(),
                          .end_ns = 0,
                          .parent = parent,
                          .op = op_,
                          .tid = tid});
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    const std::int64_t end = now_ns();
    const std::lock_guard lock(mutex_);
    spans_[id].end_ns = end;
  }
  /// Start a new operation; its spans are those opened from here on.
  void begin_op(std::uint64_t op) {
    const std::lock_guard lock(mutex_);
    op_ = op;
    op_first_ = spans_.size();
  }
  /// The current operation's spans, parents re-based to the returned vector
  /// (its root is element 0).
  std::vector<Span> op_spans() const {
    const std::lock_guard lock(mutex_);
    std::vector<Span> out(spans_.begin() + static_cast<std::ptrdiff_t>(op_first_),
                          spans_.end());
    for (auto& span : out) {
      if (span.parent != kNoParent) span.parent -= op_first_;
    }
    return out;
  }
  std::vector<Span> all() const {
    const std::lock_guard lock(mutex_);
    return spans_;
  }

 private:
  std::uint32_t thread_tag() {
    const std::lock_guard lock(mutex_);
    const auto [it, inserted] =
        tids_.try_emplace(std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
    return it->second;
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> tids_;
  std::uint64_t op_ = 0;
  std::size_t op_first_ = 0;
};

/// RAII span; inert when `recorder` is null.
class Scope {
 public:
  Scope(Recorder* recorder, const char* name, std::size_t parent)
      : recorder_(recorder), id_(recorder ? recorder->open(name, parent) : kNoParent) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::size_t id() const noexcept { return id_; }

 private:
  Recorder* recorder_;
  std::size_t id_;
};

/// Run `fn` inside a span named after the public call it makes.
template <typename Fn>
decltype(auto) timed(Recorder* recorder, const char* name, std::size_t parent, Fn&& fn) {
  const Scope scope(recorder, name, parent);
  return fn();
}

/// Wall and CPU time of an operation's timed phase.
class Meter {
 public:
  Meter() : wall_start_(now_ns()), cpu_start_(cpu_ms()) {}
  void stop() {
    wall_ns_ = now_ns() - wall_start_;
    cpu_ms_ = cpu_ms() - cpu_start_;
  }
  std::int64_t wall_ns() const noexcept { return wall_ns_; }
  double cpu() const noexcept { return cpu_ms_; }

 private:
  std::int64_t wall_start_;
  double cpu_start_;
  std::int64_t wall_ns_ = 0;
  double cpu_ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Operation results and output comparison.

/// Per-layer values of one traced operation, by metric name.
using LayerSample = std::map<std::string, double>;

struct OpResult {
  std::int64_t wall_ns = 0;
  double cpu_ms = 0.0;
  Failure failure = Failure::kNone;
  std::string detail;  ///< What differed, for the capture file.
};

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_double(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_curve(const core::PreferenceResult& a, const core::PreferenceResult& b) {
  return same_bytes(a.latency_ms, b.latency_ms) && same_bytes(a.raw_ratio, b.raw_ratio) &&
         same_bytes(a.smoothed, b.smoothed) && same_bytes(a.normalized, b.normalized) &&
         same_bytes(a.valid, b.valid) &&
         same_double(a.reference_latency_ms, b.reference_latency_ms) &&
         a.biased_samples == b.biased_samples && a.support_begin == b.support_begin &&
         a.support_end == b.support_end;
}

bool same_confidence(const core::PreferenceWithConfidence& a,
                     const core::PreferenceWithConfidence& b) {
  if (!same_curve(a.point, b.point) || !same_bytes(a.probe_latency_ms, b.probe_latency_ms) ||
      a.usable_replicates != b.usable_replicates || a.intervals.size() != b.intervals.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    if (!same_double(a.intervals[i].lo, b.intervals[i].lo) ||
        !same_double(a.intervals[i].hi, b.intervals[i].hi)) {
      return false;
    }
  }
  return true;
}

/// FNV-1a over every column: a set-up determinism fingerprint.
std::uint64_t fingerprint(const telemetry::Dataset& dataset) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) hash = (hash ^ p[i]) * 1099511628211ULL;
  };
  mix(dataset.times().data(), dataset.times().size_bytes());
  mix(dataset.latencies().data(), dataset.latencies().size_bytes());
  mix(dataset.user_ids().data(), dataset.user_ids().size_bytes());
  mix(dataset.actions().data(), dataset.actions().size_bytes());
  mix(dataset.user_classes().data(), dataset.user_classes().size_bytes());
  mix(dataset.statuses().data(), dataset.statuses().size_bytes());
  return hash;
}

/// True when both datasets hold the same rows in the same order (latency
/// compared bit for bit).
bool same_rows(const telemetry::Dataset& a, const telemetry::Dataset& b) {
  const auto eq = [](auto x, auto y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  return eq(a.times(), b.times()) && eq(a.latencies(), b.latencies()) &&
         eq(a.user_ids(), b.user_ids()) && eq(a.actions(), b.actions()) &&
         eq(a.user_classes(), b.user_classes()) && eq(a.statuses(), b.statuses());
}

/// Order rows that share a timestamp by their remaining fields, so a
/// time-sorted dataset's row order no longer depends on which collector
/// session delivered first. Time-sorted input stays time-sorted; two
/// datasets then hold the same rows iff they are equal row by row.
telemetry::Dataset canonical_order(telemetry::Dataset dataset) {
  if (!dataset.is_sorted()) dataset.sort_by_time();
  const auto times = dataset.times();
  std::vector<std::size_t> order;
  const auto key = [&](std::size_t i) {
    std::uint64_t latency_bits = 0;
    std::memcpy(&latency_bits, &dataset.latencies()[i], sizeof(double));
    return std::tuple(dataset.user_ids()[i], latency_bits, dataset.actions()[i],
                      dataset.user_classes()[i], dataset.statuses()[i]);
  };
  for (std::size_t begin = 0; begin < times.size();) {
    std::size_t end = begin + 1;
    while (end < times.size() && times[end] == times[begin]) ++end;
    if (end - begin > 1) {
      std::vector<std::size_t> run(end - begin);
      for (std::size_t k = 0; k < run.size(); ++k) run[k] = begin + k;
      std::stable_sort(run.begin(), run.end(),
                       [&](std::size_t x, std::size_t y) { return key(x) < key(y); });
      bool moved = false;
      for (std::size_t k = 0; k < run.size(); ++k) moved = moved || run[k] != begin + k;
      if (moved) {
        if (order.empty()) {
          order.resize(times.size());
          for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
        }
        std::copy(run.begin(), run.end(), order.begin() + static_cast<std::ptrdiff_t>(begin));
      }
    }
    begin = end;
  }
  if (order.empty()) return dataset;
  const auto gather = [&](auto column) {
    std::vector<typename decltype(column)::value_type> out(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) out[k] = column[order[k]];
    return out;
  };
  telemetry::Dataset canonical;
  canonical.adopt_columns(gather(dataset.times()), gather(dataset.latencies()),
                          gather(dataset.user_ids()), gather(dataset.actions()),
                          gather(dataset.user_classes()), gather(dataset.statuses()));
  return canonical;
}

/// The rows a collector delivers for `dataset`: the wire codec carries
/// latency at 10 µs resolution, so expected rows are the input after one
/// encode/decode round trip (idempotent, so emitting them is lossless).
telemetry::Dataset wire_rows(const telemetry::Dataset& dataset) {
  constexpr std::size_t kBatch = 1 << 16;
  telemetry::Dataset out;
  out.reserve(dataset.size());
  std::vector<telemetry::ActionRecord> batch;
  for (std::size_t begin = 0; begin < dataset.size(); begin += kBatch) {
    batch.clear();
    for (std::size_t i = begin; i < std::min(dataset.size(), begin + kBatch); ++i) {
      batch.push_back(dataset[i]);
    }
    for (const auto& row : telemetry::codec::decode_batch(telemetry::codec::encode_batch(batch))) {
      out.add(row);
    }
  }
  return out;
}

/// The kMedium world (60 days, two months) with kUsers users.
telemetry::Dataset generate_inputs(std::uint64_t seed) {
  simulate::WorkloadConfig config = simulate::paper_config(simulate::Scale::kMedium, seed);
  config.population.user_count = kUsers;
  return simulate::WorkloadGenerator(config).generate().dataset;
}

core::AutoSensOptions analysis_options(std::size_t threads) {
  core::AutoSensOptions options;  // α-normalized, Voronoi U (the defaults)
  options.threads = threads;
  return options;
}

/// analyze_detailed(...).preference as its sequence of public calls: α
/// estimation, the α-normalized biased fill, U, and the preference curve.
template <typename UnbiasedFn>
core::PreferenceResult traced_analyze(Recorder* recorder, std::size_t parent,
                                      telemetry::SampleColumns columns,
                                      const core::AutoSensOptions& options,
                                      const UnbiasedFn& unbiased_fn) {
  if (columns.empty()) throw std::invalid_argument("analyze: empty dataset");
  const core::TimeNormalizer normalizer = timed(
      recorder, "core.TimeNormalizer", parent, [&] { return core::TimeNormalizer(columns, options); });
  const stats::Histogram biased =
      timed(recorder, "core.TimeNormalizer.normalized_biased", parent,
            [&] { return normalizer.normalized_biased(columns); });
  const stats::Histogram unbiased = timed(recorder, "core.unbiased_histogram", parent, unbiased_fn);
  auto preference = timed(recorder, "core.compute_preference", parent, [&] {
    return core::compute_preference(biased, unbiased, options);
  });
  preference.biased_samples = columns.size();
  return preference;
}

/// Sum of self time (ms) of the spans called `name`.
double self_ms(const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
               const std::string& name) {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) total += self[i];
  }
  return static_cast<double>(total) / 1e6;
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs from `seed` and do every load the program needs
  /// before the timed phase, replacing any earlier inputs. Returns a
  /// fingerprint of the inputs (equal seeds must give equal fingerprints).
  virtual std::uint64_t setup(std::uint64_t seed) = 0;
  /// Compute the reference outputs every operation is checked against.
  virtual void build_reference() = 0;
  /// One operation with each library entry point called once, untraced.
  virtual OpResult run_op(std::uint64_t op) = 0;
  /// The same work as public calls in spans; fills the per-layer sample.
  virtual OpResult run_traced_op(Recorder& recorder, std::uint64_t op, LayerSample& sample) = 0;
  /// Input rows one operation processes.
  virtual std::size_t rows_per_op() const = 0;
  /// Workload facts for the capture file (sizes, threads, connections).
  virtual std::map<std::string, double> facts() const = 0;
};

/// Fill the sample entries every traced operation reports.
void finish_sample(const std::vector<Span>& spans, LayerSample& sample) {
  const Attribution attributed = attribution(spans, 0);
  sample["bench.attributed_ratio"] = attributed.ratio();
  sample["bench.unattributed_ms"] = static_cast<double>(attributed.unattributed_ns) / 1e6;
}

/// Per-layer values shared by every traced analysis: α estimation, U, and
/// the preference curve.
void analysis_layers(const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
                     LayerSample& sample) {
  sample["core.confounder_time.ms"] = self_ms(spans, self, "core.TimeNormalizer") +
                                      self_ms(spans, self, "core.TimeNormalizer.normalized_biased");
  sample["core.unbiased.ms"] = self_ms(spans, self, "core.unbiased_histogram");
  sample["core.preference.ms"] = self_ms(spans, self, "core.compute_preference");
}

class AnalyzeBin final : public Workload {
 public:
  explicit AnalyzeBin(fs::path work_dir) : path_((work_dir / "input.asl2").string()) {}

  std::uint64_t setup(std::uint64_t seed) override {
    generated_ = generate_inputs(seed);
    telemetry::write_binlog_file(path_, generated_);
    return fingerprint(generated_);
  }

  void build_reference() override {
    file_bytes_ = fs::file_size(path_);
    raw_rows_ = generated_.size();
    const auto validated = telemetry::validate(generated_);
    const auto slice = validated.dataset.filtered(telemetry::by_action(kSlice));
    reference_ = core::analyze_detailed(slice, options_).preference;
    reference_rows_ = {generated_.size(), validated.dataset.size(), slice.size()};
    generated_ = telemetry::Dataset();
  }

  OpResult run_op(std::uint64_t) override {
    Meter meter;
    const auto raw = telemetry::read_binlog_file(path_, ingest_);
    const auto validated = telemetry::validate(raw);
    const auto slice = validated.dataset.filtered(telemetry::by_action(kSlice));
    const auto result = core::analyze_detailed(slice, options_);
    meter.stop();
    return check(meter, {raw.size(), validated.dataset.size(), slice.size()}, result.preference);
  }

  OpResult run_traced_op(Recorder& recorder, std::uint64_t op, LayerSample& sample) override {
    Recorder* r = &recorder;
    recorder.begin_op(op);
    Meter meter;
    std::optional<Scope> root(std::in_place, r, "bench.op", kNoParent);
    const std::size_t parent = root->id();
    const auto raw = timed(r, "telemetry.read_binlog_file", parent,
                           [&] { return telemetry::read_binlog_file(path_, ingest_); });
    const auto validated =
        timed(r, "telemetry.validate", parent, [&] { return telemetry::validate(raw); });
    const auto slice = timed(r, "telemetry.Dataset.filtered", parent, [&] {
      return validated.dataset.filtered(telemetry::by_action(kSlice));
    });
    const auto preference =
        traced_analyze(r, parent, slice.columns(), options_,
                       [&] { return core::unbiased_histogram(slice, options_); });
    root.reset();
    meter.stop();

    const auto spans = recorder.op_spans();
    const auto self = self_times_ns(spans);
    const double ingest_ms = self_ms(spans, self, "telemetry.read_binlog_file");
    sample["telemetry.ingest.ms"] = ingest_ms;
    sample["telemetry.ingest.mb_per_s"] =
        ratio(static_cast<double>(file_bytes_) / 1e6, ingest_ms / 1e3);
    sample["telemetry.validate.ms"] = self_ms(spans, self, "telemetry.validate");
    sample["telemetry.validate.kept_ratio"] =
        ratio(static_cast<double>(validated.report.kept), static_cast<double>(raw.size()));
    sample["telemetry.filter.ms"] = self_ms(spans, self, "telemetry.Dataset.filtered");
    sample["telemetry.filter.selectivity"] =
        ratio(static_cast<double>(slice.size()), static_cast<double>(validated.dataset.size()));
    analysis_layers(spans, self, sample);
    finish_sample(spans, sample);
    return check(meter, {raw.size(), validated.dataset.size(), slice.size()}, preference);
  }

  std::size_t rows_per_op() const override { return raw_rows_; }

  std::map<std::string, double> facts() const override {
    return {{"input_rows", static_cast<double>(raw_rows_)},
            {"binlog_bytes", static_cast<double>(file_bytes_)},
            {"threads", 1.0},
            {"connections", 0.0},
            {"closed_loop_clients", 1.0}};
  }

 private:
  /// Rows after load, validate and slice.
  using RowCounts = std::array<std::size_t, 3>;

  OpResult check(const Meter& meter, const RowCounts& rows,
                 const core::PreferenceResult& preference) const {
    OpResult result{.wall_ns = meter.wall_ns(), .cpu_ms = meter.cpu(), .detail = {}};
    if (rows != reference_rows_) {
      result.failure = Failure::kRecords;
      result.detail = "row counts after load/validate/slice differ from the set-up reference";
    } else if (!same_curve(preference, reference_)) {
      result.failure = Failure::kMismatch;
      result.detail = "preference curve differs from the set-up reference";
    }
    return result;
  }

  std::string path_;
  telemetry::Dataset generated_;
  std::uint64_t file_bytes_ = 0;
  std::size_t raw_rows_ = 0;
  core::PreferenceResult reference_;
  RowCounts reference_rows_{};
  const core::AutoSensOptions options_ = analysis_options(1);
  const telemetry::IngestOptions ingest_{.threads = 1};
};

class Confidence final : public Workload {
 public:
  std::uint64_t setup(std::uint64_t seed) override {
    slice_ = telemetry::Dataset();
    const auto validated = telemetry::validate(generate_inputs(seed));
    slice_ = validated.dataset.filtered(telemetry::by_action(kSlice));
    return fingerprint(slice_);
  }

  void build_reference() override {
    stats::Random random(kConfidenceSeed);
    reference_ = core::analyze_with_confidence(slice_, options_, kProbes, confidence_, random);
  }

  OpResult run_op(std::uint64_t) override {
    Meter meter;
    stats::Random random(kConfidenceSeed);
    const auto result =
        core::analyze_with_confidence(slice_, options_, kProbes, confidence_, random);
    meter.stop();
    return check(meter, result);
  }

  /// analyze_with_confidence as public calls: the point curve, then per
  /// replicate (on the same parallel layer and thread count)
  /// day_block_resample -> TimeNormalizer -> normalized_biased ->
  /// unbiased_histogram -> compute_preference, then the percentile merge.
  OpResult run_traced_op(Recorder& recorder, std::uint64_t op, LayerSample& sample) override {
    Recorder* r = &recorder;
    recorder.begin_op(op);
    Meter meter;
    std::optional<Scope> root(std::in_place, r, "bench.op", kNoParent);
    const std::size_t parent = root->id();
    stats::Random random(kConfidenceSeed);

    core::PreferenceWithConfidence result;
    result.point = traced_analyze(r, parent, slice_.columns(), options_,
                                  [&] { return core::unbiased_histogram(slice_, options_); });
    result.probe_latency_ms = kProbes;
    const std::uint64_t stream_base = random.engine()();

    struct Replicate {
      bool usable = false;
      std::vector<std::optional<double>> at_probe;
    };
    std::vector<Replicate> replicates(confidence_.replicates);
    const double region_cpu = cpu_ms();
    const std::int64_t region_start = now_ns();
    {
      const Scope region(r, "core.parallel_for_items", parent);
      core::parallel_for_items(replicates.size(), options_.threads, [&](std::size_t k) {
        stats::Random substream(stats::substream_seed(stream_base, k));
        auto& slot = replicates[k];
        slot.at_probe.assign(kProbes.size(), std::nullopt);
        try {
          const auto view = timed(r, "core.day_block_resample", region.id(),
                                  [&] { return core::day_block_resample(slice_, substream); });
          if (view.empty()) throw std::invalid_argument("analyze: empty dataset");
          const auto columns = timed(r, "telemetry.DatasetView.columns", region.id(),
                                     [&] { return view.columns(); });
          const auto curve = traced_analyze(r, region.id(), columns, options_, [&] {
            return core::unbiased_histogram(columns, options_);
          });
          slot.usable = true;
          for (std::size_t p = 0; p < kProbes.size(); ++p) {
            if (curve.covers(kProbes[p])) slot.at_probe[p] = curve.at(kProbes[p]);
          }
        } catch (const std::invalid_argument&) {
          // Degenerate resample: contributes nothing, as in the library.
        }
      });
    }
    const double region_wall_ms = static_cast<double>(now_ns() - region_start) / 1e6;
    const double region_cpu_ms = cpu_ms() - region_cpu;

    timed(r, "stats.quantile", parent, [&] {
      std::vector<std::vector<double>> draws(kProbes.size());
      for (const auto& slot : replicates) {
        if (!slot.usable) continue;
        ++result.usable_replicates;
        for (std::size_t p = 0; p < draws.size(); ++p) {
          if (slot.at_probe[p]) draws[p].push_back(*slot.at_probe[p]);
        }
      }
      result.intervals.resize(kProbes.size());
      const double alpha = 1.0 - confidence_.confidence;
      for (std::size_t p = 0; p < draws.size(); ++p) {
        if (draws[p].size() < 2) {
          const double point =
              result.point.covers(kProbes[p]) ? result.point.at(kProbes[p]) : 0.0;
          result.intervals[p] = {point, point};
          continue;
        }
        result.intervals[p] = {stats::quantile(draws[p], alpha / 2.0),
                               stats::quantile(draws[p], 1.0 - alpha / 2.0)};
      }
    });
    root.reset();
    meter.stop();

    const auto spans = recorder.op_spans();
    const auto self = self_times_ns(spans);
    analysis_layers(spans, self, sample);
    sample["core.confidence.resample_ms"] = self_ms(spans, self, "core.day_block_resample");
    sample["core.confidence.usable_ratio"] =
        ratio(static_cast<double>(result.usable_replicates),
              static_cast<double>(confidence_.replicates));
    sample["core.parallel.busy_ratio"] =
        ratio(region_cpu_ms, region_wall_ms * static_cast<double>(options_.threads));
    finish_sample(spans, sample);
    return check(meter, result);
  }

  std::size_t rows_per_op() const override { return slice_.size(); }

  std::map<std::string, double> facts() const override {
    return {{"input_rows", static_cast<double>(slice_.size())},
            {"replicates", static_cast<double>(confidence_.replicates)},
            {"threads", static_cast<double>(options_.threads)},
            {"connections", 0.0},
            {"closed_loop_clients", 1.0}};
  }

 private:
  OpResult check(const Meter& meter, const core::PreferenceWithConfidence& result) const {
    OpResult out{.wall_ns = meter.wall_ns(), .cpu_ms = meter.cpu(), .detail = {}};
    if (!same_confidence(result, reference_)) {
      out.failure = Failure::kMismatch;
      out.detail = "intervals or usable_replicates differ from the set-up reference";
    }
    return out;
  }

  telemetry::Dataset slice_;
  core::PreferenceWithConfidence reference_;
  const core::AutoSensOptions options_ = analysis_options(kConfidenceThreads);
  const core::ConfidenceOptions confidence_{.replicates = kReplicates};
};

class CollectStore final : public Workload {
 public:
  explicit CollectStore(fs::path work_dir) : work_dir_(std::move(work_dir)) {
    stream_.window_ms = kWindowMs;
    stream_.scrub = true;
    stream_.action = kSlice;
  }

  std::uint64_t setup(std::uint64_t seed) override {
    generated_ = canonical_order(wire_rows(generate_inputs(seed)));
    // One emitter session per user, replaying that user's rows in time order.
    std::map<std::uint64_t, std::vector<std::uint32_t>> by_user;
    const auto users = generated_.user_ids();
    for (std::size_t i = 0; i < users.size(); ++i) {
      by_user[users[i]].push_back(static_cast<std::uint32_t>(i));
    }
    sessions_.clear();
    for (auto& [user, rows] : by_user) sessions_.push_back(std::move(rows));
    return fingerprint(generated_);
  }

  /// Per-window references: the same window filtered from the in-memory
  /// dataset, scrubbed, sliced and analyzed (the store equivalence contract).
  void build_reference() override {
    reference_.clear();
    const auto times = generated_.times();
    for (std::int64_t begin = times.front(); begin <= times.back(); begin += kWindowMs) {
      WindowReference window{.begin_ms = begin, .end_ms = begin + kWindowMs, .preference = {}};
      const auto rows = generated_.filtered(telemetry::by_time_range(begin, window.end_ms));
      const auto sliced = telemetry::validate(rows, stream_.validation)
                              .dataset.filtered(telemetry::by_action(kSlice));
      window.records = sliced.size();
      if (!sliced.empty()) {
        try {
          window.preference = core::analyze(sliced, options_);
        } catch (const std::invalid_argument&) {
          // Too thin to support a curve: counts only, as analyze_store_windows reports.
        }
      }
      reference_.push_back(std::move(window));
    }
  }

  OpResult run_op(std::uint64_t op) override { return run(nullptr, op, nullptr); }

  OpResult run_traced_op(Recorder& recorder, std::uint64_t op, LayerSample& sample) override {
    recorder.begin_op(op);
    return run(&recorder, op, &sample);
  }

  std::size_t rows_per_op() const override { return generated_.size(); }

  std::map<std::string, double> facts() const override {
    return {{"input_rows", static_cast<double>(generated_.size())},
            {"sessions", static_cast<double>(sessions_.size())},
            {"client_threads", static_cast<double>(kClientThreads)},
            {"collector_shards", static_cast<double>(kCollectorShards)},
            {"connections", static_cast<double>(kClientThreads)},
            {"windows", static_cast<double>(reference_.size())},
            {"threads", 1.0},
            {"closed_loop_clients", 1.0}};
  }

 private:
  struct WindowReference {
    std::int64_t begin_ms = 0;
    std::int64_t end_ms = 0;
    std::size_t records = 0;
    std::optional<core::PreferenceResult> preference;
  };

  struct Collected {
    telemetry::Dataset dataset;
    net::CollectorStats collector;
    net::EmitterStats emitters;  ///< Summed over every session.
    bool complete = false;
  };

  /// Phase 1: every user's rows as one TCP emitter session, kClientThreads
  /// sessions in flight at a time, into a kCollectorShards-shard collector.
  Collected collect(Recorder* r, std::size_t parent) const {
    net::CollectorOptions options;
    options.shards = kCollectorShards;
    std::optional<net::CollectorThread> collector;
    timed(r, "net.CollectorThread", parent, [&] {
      collector.emplace(sessions_.size(), options, kCollectorIdleTimeoutMs);
    });
    std::vector<net::EmitterStats> emitter_stats(kClientThreads);
    std::vector<std::exception_ptr> errors(kClientThreads);
    {
      const Scope region(r, "net.emit", parent);
      std::atomic<std::size_t> next{0};
      std::vector<std::jthread> clients;  // joined before `region` closes
      for (std::size_t t = 0; t < kClientThreads; ++t) {
        clients.emplace_back([&, t] {
          try {
            for (std::size_t s = next++; s < sessions_.size(); s = next++) {
              const Scope session(r, "net.Emitter.session", region.id());
              SessionSourceOps ops(s);
              net::EmitterOptions emitter_options;
              emitter_options.session_id = s + 1;
              emitter_options.ops = &ops;
              net::Emitter emitter(collector->port(), emitter_options);
              for (const std::uint32_t row : sessions_[s]) emitter.record(generated_[row]);
              emitter.close();
              emitter_stats[t].retries += emitter.stats().retries;
              emitter_stats[t].reconnects += emitter.stats().reconnects;
              emitter_stats[t].dropped_records += emitter.stats().dropped_records;
            }
          } catch (...) {
            errors[t] = std::current_exception();
          }
        });
      }
    }
    Collected out;
    out.dataset = timed(r, "net.CollectorThread.join", parent, [&] { return collector->join(); });
    out.collector = collector->stats();
    out.complete = collector->complete();
    for (std::size_t t = 0; t < kClientThreads; ++t) {
      if (errors[t]) std::rethrow_exception(errors[t]);
      out.emitters.retries += emitter_stats[t].retries;
      out.emitters.reconnects += emitter_stats[t].reconnects;
      out.emitters.dropped_records += emitter_stats[t].dropped_records;
    }
    return out;
  }

  struct WindowCounts {
    std::size_t scanned = 0;
    std::size_t pruned = 0;
    std::uint64_t bytes_read = 0;
    std::size_t validated_in = 0;
    std::size_t validated_kept = 0;
    std::size_t filtered_out = 0;
  };

  /// analyze_store_windows as public calls, one window at a time:
  /// load_window -> validate -> filtered -> the analysis calls.
  std::vector<core::StoreWindowResult> traced_windows(Recorder* r, std::size_t parent,
                                                      const telemetry::store::StoredDataset& store,
                                                      WindowCounts& counts) const {
    std::vector<core::StoreWindowResult> results;
    const std::int64_t min_time = store.min_time_ms();
    const std::int64_t max_time = store.max_time_ms();
    for (std::int64_t begin = min_time; begin <= max_time; begin += kWindowMs) {
      const Scope window(r, "core.store_analyze.window", parent);
      core::StoreWindowResult result;
      result.begin_ms = begin;
      result.end_ms = begin + kWindowMs;
      auto load = timed(r, "telemetry.store.load_window", window.id(),
                        [&] { return store.load_window(begin, result.end_ms); });
      result.partitions_scanned = load.partitions_scanned;
      result.partitions_pruned = load.partitions_pruned;
      result.bytes_read = load.bytes_read;
      const auto validated = timed(r, "telemetry.validate", window.id(), [&] {
        return telemetry::validate(load.dataset, stream_.validation);
      });
      const auto sliced = timed(r, "telemetry.Dataset.filtered", window.id(), [&] {
        return validated.dataset.filtered(
            [&](const telemetry::ActionRecord& row) { return row.action == kSlice; });
      });
      counts.scanned += load.partitions_scanned;
      counts.pruned += load.partitions_pruned;
      counts.bytes_read += load.bytes_read;
      counts.validated_in += load.dataset.size();
      counts.validated_kept += validated.report.kept;
      counts.filtered_out += sliced.size();
      result.records = sliced.size();
      if (!sliced.empty()) {
        try {
          result.preference =
              traced_analyze(r, window.id(), sliced.columns(), options_,
                             [&] { return core::unbiased_histogram(sliced, options_); });
        } catch (const std::invalid_argument&) {
          // Too thin to support a curve: counts only, as analyze_store_windows reports.
        }
      }
      results.push_back(std::move(result));
    }
    return results;
  }

  OpResult run(Recorder* r, std::uint64_t op, LayerSample* sample) const {
    const fs::path dir = work_dir_ / ("store-" + std::to_string(op));
    fs::remove_all(dir);
    Meter meter;
    std::optional<Scope> root(std::in_place, r, "bench.op", kNoParent);
    const std::size_t parent = root->id();
    const std::int64_t collect_start = now_ns();
    Collected collected = collect(r, parent);
    const std::int64_t collect_ns = now_ns() - collect_start;
    const auto dataset = timed(r, "bench.canonical_order", parent, [&] {
      return canonical_order(std::move(collected.dataset));
    });
    timed(r, "telemetry.store.build_store", parent,
          [&] { telemetry::store::build_store(dataset, dir.string()); });
    const auto store = timed(r, "telemetry.store.StoredDataset.open", parent,
                             [&] { return telemetry::store::StoredDataset::open(dir.string()); });
    WindowCounts counts;
    const auto windows = r == nullptr ? core::analyze_store_windows(store, options_, stream_)
                                      : traced_windows(r, parent, store, counts);
    root.reset();
    meter.stop();

    OpResult result{.wall_ns = meter.wall_ns(), .cpu_ms = meter.cpu(), .detail = {}};
    const std::size_t lost = collected.emitters.dropped_records +
                             (generated_.size() > dataset.size() ? generated_.size() - dataset.size()
                                                                 : 0);
    if (!collected.complete || lost != 0 || !same_rows(dataset, generated_)) {
      result.failure = Failure::kRecords;
      result.detail = "collected rows differ from the generated rows";
    } else if (!same_windows(windows)) {
      result.failure = Failure::kMismatch;
      result.detail = "a store window's curve differs from the in-memory reference";
    }

    if (sample != nullptr) {
      const auto spans = r->op_spans();
      const auto self = self_times_ns(spans);
      auto& s = *sample;
      s["telemetry.validate.ms"] = self_ms(spans, self, "telemetry.validate");
      s["telemetry.validate.kept_ratio"] = ratio(static_cast<double>(counts.validated_kept),
                                                 static_cast<double>(counts.validated_in));
      s["telemetry.filter.ms"] = self_ms(spans, self, "telemetry.Dataset.filtered");
      s["telemetry.filter.selectivity"] = ratio(static_cast<double>(counts.filtered_out),
                                                static_cast<double>(counts.validated_kept));
      analysis_layers(spans, self, s);
      s["net.emit.ms"] = self_ms(spans, self, "net.Emitter.session");
      s["net.collect.ms"] = static_cast<double>(collect_ns) / 1e6;
      s["net.records_per_s"] = ratio(static_cast<double>(dataset.size()),
                                     static_cast<double>(collect_ns) / 1e9);
      s["net.frames"] = static_cast<double>(collected.collector.frames);
      s["net.retries"] = static_cast<double>(collected.emitters.retries);
      s["net.reconnects"] = static_cast<double>(collected.emitters.reconnects);
      s["net.resyncs"] = static_cast<double>(collected.collector.resyncs);
      s["net.duplicate_frames"] = static_cast<double>(collected.collector.duplicate_frames);
      s["net.lost_records"] = static_cast<double>(lost);
      s["telemetry.store.write_ms"] = self_ms(spans, self, "telemetry.store.build_store");
      s["telemetry.store.bytes_per_row"] =
          ratio(static_cast<double>(store.stored_bytes()), static_cast<double>(store.rows()));
      s["telemetry.store.partitions"] = static_cast<double>(store.partitions().size());
      s["telemetry.store.open_ms"] = self_ms(spans, self, "telemetry.store.StoredDataset.open");
      s["telemetry.store.load_window_ms"] = self_ms(spans, self, "telemetry.store.load_window");
      s["telemetry.store.read_mb"] = static_cast<double>(counts.bytes_read) / 1e6;
      s["telemetry.store.pruned_ratio"] = ratio(static_cast<double>(counts.pruned),
                                                static_cast<double>(counts.pruned + counts.scanned));
      std::int64_t window_ns = 0;
      std::size_t window_count = 0;
      for (const auto& span : spans) {
        if (span.name != "core.store_analyze.window") continue;
        window_ns += span.duration_ns();
        ++window_count;
      }
      s["core.store_analyze.window_ms"] =
          ratio(static_cast<double>(window_ns) / 1e6, static_cast<double>(window_count));
      finish_sample(spans, s);
    }
    fs::remove_all(dir);
    return result;
  }

  bool same_windows(const std::vector<core::StoreWindowResult>& windows) const {
    if (windows.size() != reference_.size()) return false;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const auto& got = windows[i];
      const auto& want = reference_[i];
      if (got.begin_ms != want.begin_ms || got.end_ms != want.end_ms ||
          got.records != want.records ||
          got.preference.has_value() != want.preference.has_value()) {
        return false;
      }
      if (got.preference && !same_curve(*got.preference, *want.preference)) return false;
    }
    return true;
  }

  fs::path work_dir_;
  telemetry::Dataset generated_;
  std::vector<std::vector<std::uint32_t>> sessions_;
  std::vector<WindowReference> reference_;
  core::StoreStreamOptions stream_;
  const core::AutoSensOptions options_ = analysis_options(1);
};

// ---------------------------------------------------------------------------
// Output.

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

void write_chrome_trace(const fs::path& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  const long pid = static_cast<long>(getpid());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"name\": " << quoted(s.name)
        << ", \"ph\": \"X\", \"ts\": " << number(static_cast<double>(s.start_ns - origin) / 1e3)
        << ", \"dur\": " << number(static_cast<double>(s.duration_ns()) / 1e3)
        << ", \"pid\": " << pid << ", \"tid\": " << s.tid << ", \"args\": {\"op\": " << s.op
        << ", \"span\": " << i << ", \"parent\": "
        << (s.parent == kNoParent ? std::string("null") : std::to_string(s.parent)) << "}}";
  }
  out << "\n]}\n";
}

std::string utc_stamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y%m%dT%H%M%SZ", &tm);
  return buffer;
}

/// Reset VmHWM to the current RSS, so the next reading covers only what
/// follows. Returns false where /proc/self/clear_refs is unavailable; the
/// peak then spans the whole process.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path capture_root = ".bench_runs";
  fs::path work_root = ".bench_work";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--capture-dir") {
      args.capture_root = value;
    } else if (flag == "--work-dir") {
      args.work_root = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: autosens_e2e --workload NAME --seed N --seconds S [--trace 0|1]");
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const fs::path& work_dir) {
  if (name == "analyze_bin") return std::make_unique<AnalyzeBin>(work_dir);
  if (name == "confidence") return std::make_unique<Confidence>();
  if (name == "collect_store") return std::make_unique<CollectStore>(work_dir);
  throw std::invalid_argument("unknown workload " + name +
                              " (analyze_bin, confidence, collect_store)");
}

/// Removes the per-process work directory on every exit path.
struct WorkDir {
  fs::path path;
  explicit WorkDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
};

int run(const Args& args) {
  const WorkDir work(args.work_root / std::to_string(getpid()));
  auto workload = make_workload(args.workload, work.path);

  // Set-up, several times: the median is setup_s, and every repeat must
  // reproduce the first one's inputs.
  std::vector<double> setup_samples;
  std::uint64_t first_fingerprint = 0;
  bool setup_consistent = true;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    const std::int64_t start = now_ns();
    const std::uint64_t print = workload->setup(args.seed);
    setup_samples.push_back(static_cast<double>(now_ns() - start) / 1e9);
    if (k == 0) first_fingerprint = print;
    setup_consistent = setup_consistent && print == first_fingerprint;
  }
  workload->build_reference();

  FailureTally tally;
  std::vector<std::string> failure_details;
  std::vector<std::uint64_t> failed_ops;
  const auto record = [&](std::uint64_t op, const OpResult& result) {
    tally.record(result.failure);
    if (result.failure == Failure::kNone) return;
    failed_ops.push_back(op);
    if (failure_details.size() < 8) failure_details.push_back(result.detail);
  };
  const auto attempt = [&](const std::function<OpResult()>& op) {
    try {
      return op();
    } catch (const std::exception& error) {
      return OpResult{.failure = Failure::kThrew, .detail = error.what()};
    }
  };

  // Warm-up: page cache, thread pool and scratch pools filled before timing.
  Recorder recorder;
  std::uint64_t op_index = 0;
  const auto untraced_op = [&] {
    // One span per untraced operation: the op timeline for the capture.
    recorder.begin_op(op_index);
    const Scope span(&recorder, "bench.op.untraced", kNoParent);
    const OpResult result = attempt([&] { return workload->run_op(op_index); });
    record(op_index++, result);
    return result;
  };
  untraced_op();
  bool peak_reset = true;

  std::vector<double> op_ms, op_cpu_ms, op_peak_mib, traced_ms;
  std::vector<LayerSample> layer_samples;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  // Past the deadline, keep going only until each kind of operation has one
  // completed sample, and never past twice the run length.
  const std::int64_t hard_deadline = deadline + static_cast<std::int64_t>(args.seconds * 1e9);
  const auto more = [&] {
    const std::int64_t now = now_ns();
    const bool missing = op_ms.empty() || (args.trace && layer_samples.empty());
    return now < deadline || (missing && now < hard_deadline);
  };
  for (bool traced_turn = false; more(); traced_turn = args.trace && !traced_turn) {
    if (traced_turn) {
      LayerSample sample;
      const OpResult result =
          attempt([&] { return workload->run_traced_op(recorder, op_index, sample); });
      record(op_index++, result);
      if (result.failure != Failure::kThrew) {
        traced_ms.push_back(static_cast<double>(result.wall_ns) / 1e6);
        layer_samples.push_back(std::move(sample));
      }
    } else {
      // Peak RSS per operation, from the RSS it starts at: the median over a
      // run does not hang on the one op that met the most fragmented heap.
      peak_reset = reset_peak_rss() && peak_reset;
      const OpResult result = untraced_op();
      const auto peak_bytes = obs::RuntimeSampler::peak_rss_bytes();
      if (result.failure != Failure::kThrew) {
        op_ms.push_back(static_cast<double>(result.wall_ns) / 1e6);
        op_cpu_ms.push_back(result.cpu_ms);
        op_peak_mib.push_back(static_cast<double>(peak_bytes) / (1024.0 * 1024.0));
      }
    }
  }
  const bool correct = setup_consistent && tally.failed() == 0;
  const TailPick tail = tail_pick(op_ms);
  const double p50 = median(op_ms);
  // Per-op figures are reported as medians over the run: a mean lets one op
  // that a busy host slowed move the whole number.
  std::vector<double> op_rows_per_s;
  for (const double ms : op_ms) {
    op_rows_per_s.push_back(static_cast<double>(workload->rows_per_op()) / (ms / 1e3));
  }

  const std::map<std::string, double> e2e_values = {
      {"setup_s", median(setup_samples)},
      {"op_ms_p50", p50},
      {"op_ms_tail", tail.value},
      {"rows_per_s", median(op_rows_per_s)},
      {"cpu_ms_per_op", median(op_cpu_ms)},
      {"peak_rss_mib", median(op_peak_mib)},
      {"ok_ratio", 1.0 - tally.fail_ratio()},
  };
  std::vector<Metric> end_to_end;
  for (const auto& metric : end_to_end_metrics()) {
    end_to_end.push_back({metric.name, e2e_values.at(metric.name), metric.unit});
  }
  std::vector<Metric> per_layer;
  if (args.trace) {
    for (const auto& metric : layer_metrics()) {
      const std::string name = metric.name;
      double value = 0.0;
      if (name == "bench.trace_overhead") {
        value = median(traced_ms) / p50;
      } else {
        std::vector<double> values;
        for (const auto& sample : layer_samples) {
          const auto it = sample.find(name);
          values.push_back(it == sample.end() ? 0.0 : it->second);
        }
        value = median(values);
      }
      per_layer.push_back({name, value, metric.unit});
    }
  }
  const auto& reported = args.trace ? per_layer : end_to_end;

  // Capture directory: seed, metric rows and spans of this run.
  const fs::path capture =
      args.capture_root / (utc_stamp() + "-" + args.workload + "-seed" + std::to_string(args.seed) +
                           "-trace" + (args.trace ? "1" : "0") + "-" + std::to_string(getpid()));
  fs::create_directories(capture);
  std::ofstream(capture / "seed.txt") << args.seed << "\n";
  write_chrome_trace(capture / "trace.json", recorder.all());
  {
    std::ofstream rows(capture / "metrics.json");
    rows << "{\"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed
         << ", \"seconds\": " << number(args.seconds) << ", \"trace\": " << args.trace
         << ",\n \"correct\": " << (correct ? "true" : "false")
         << ", \"setup_consistent\": " << (setup_consistent ? "true" : "false")
         << ", \"attempted\": " << tally.attempted() << ", \"failed\": " << tally.failed()
         << ", \"fail_ratio\": " << number(tally.fail_ratio()) << ",\n \"failures\": {";
    std::size_t i = 0;
    for (const auto& [reason, count] : tally.by_reason()) {
      rows << (i++ > 0 ? ", " : "") << quoted(reason) << ": " << count;
    }
    rows << "}, \"failure_details\": [";
    for (std::size_t k = 0; k < failure_details.size(); ++k) {
      rows << (k > 0 ? ", " : "") << quoted(failure_details[k]);
    }
    rows << "], \"failed_ops\": [";
    for (std::size_t k = 0; k < failed_ops.size(); ++k) {
      rows << (k > 0 ? ", " : "") << failed_ops[k];
    }
    rows << "],\n \"tail\": {\"percentile\": " << number(tail.percentile)
         << ", \"samples\": " << tail.samples << ", \"beyond\": " << tail.beyond
         << "}, \"peak_rss_reset\": " << (peak_reset ? "true" : "false") << ",\n \"facts\": {";
    i = 0;
    for (const auto& [key, value] : workload->facts()) {
      rows << (i++ > 0 ? ", " : "") << quoted(key) << ": " << number(value);
    }
    rows << "},\n \"end_to_end\": " << metrics_object(end_to_end);
    if (args.trace) {
      rows << ",\n \"per_layer\": " << metrics_object(per_layer) << ",\n \"layer_map\": [";
      for (std::size_t k = 0; k < layer_metrics().size(); ++k) {
        const auto& m = layer_metrics()[k];
        rows << (k > 0 ? ",\n  " : "\n  ") << "{\"name\": " << quoted(m.name)
             << ", \"moves\": " << quoted(m.moves) << ", \"where\": " << quoted(m.where) << "}";
      }
      rows << "]";
    }
    rows << ",\n \"samples_ms\": [";
    for (std::size_t k = 0; k < op_ms.size(); ++k) rows << (k > 0 ? ", " : "") << number(op_ms[k]);
    rows << "],\n \"peak_rss_samples_mib\": [";
    for (std::size_t k = 0; k < op_peak_mib.size(); ++k) {
      rows << (k > 0 ? ", " : "") << number(op_peak_mib[k]);
    }
    rows << "],\n \"setup_samples_s\": [";
    for (std::size_t k = 0; k < setup_samples.size(); ++k) {
      rows << (k > 0 ? ", " : "") << number(setup_samples[k]);
    }
    rows << "]}\n";
  }

  std::cout << "# workload " << args.workload << " seed " << args.seed << ": " << op_ms.size()
            << " untraced + " << traced_ms.size() << " traced ops, " << tally.failed()
            << " failed; op_ms_tail is p" << number(tail.percentile) << " of " << tail.samples
            << " (" << tail.beyond << " beyond)\n";
  std::cout << "# capture " << capture.string() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted() << ", \"failed\": " << tally.failed()
            << ", \"metrics\": " << metrics_object(reported) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  try {
    return e2ebench::run(e2ebench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "autosens_e2e: " << error.what() << "\n";
    return 1;
  }
}
