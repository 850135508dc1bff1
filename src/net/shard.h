// CollectorShard: one per-core ingest event loop of the sharded collector.
//
// Each shard owns an edge-triggered epoll loop over nonblocking sockets —
// its own SO_REUSEPORT TCP listener (kernel accept sharding) or its own
// SO_REUSEPORT UDP socket drained with recvmmsg. Shards do the
// byte-level work only: accept, read until EAGAIN, reassemble frames with a
// per-connection FrameDecoder, enforce the resync-garbage budget and the
// read deadline. Everything with cross-connection meaning — session
// binding, (session, seq) dedup, record decode, goodbye credit — happens on
// the single spine thread, which consumes decoded-frame batches from each
// shard over a lock-free SPSC queue. A reconnecting session can land on a
// different shard, which is exactly why dedup cannot live here.
//
// Edge-triggered pitfalls this loop defends against:
//  - EAGAIN storms (net/fault.h kEagainStorm): an injected EAGAIN while the
//    kernel still holds bytes would lose the edge forever. Any fd whose
//    drain round ends in EAGAIN without progress goes on a bounded re-poll
//    retry list and is re-read on subsequent wakeups until it makes
//    progress or the budget (kRetryRounds) is spent.
//  - Spurious wakeups (epoll_wait returning 0 under injection): every
//    iteration re-processes the retry list, control queues, and deadlines,
//    so a wakeup that delivers no events still makes progress.
//
// Read deadlines are enforced by the loop's timer, not only on read
// returns: connections sit on an intrusive list ordered by last activity
// (all connections share one deadline duration, so least-recently-active
// order IS expiry order), and the epoll timeout is clamped to the head's
// expiry. A silent connection is cut even if no byte ever arrives again.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/spsc.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace autosens::net {

using core::SpscQueue;

/// Which transport a collector ingests.
enum class Transport : std::uint8_t { kTcp = 0, kUdp = 1 };

/// One message from a shard to the spine. Frames are decoded but not yet
/// interpreted; `conn` identifies the originating connection stream
/// (shard-unique serial; the spine keys on (shard, conn)). UDP events use
/// conn 0 — datagrams are self-describing (each starts with a kHello), so
/// there is no per-connection stream state to key.
struct ShardEvent {
  enum class Kind : std::uint8_t {
    kOpen,    ///< TCP connection accepted.
    kFrames,  ///< Decoded frames (order preserved within the stream).
    kEof,     ///< Connection ended; `reason` says how.
    kSync,    ///< Ack of request_sync(): everything readable at request
              ///< time has been drained and queued ahead of this event.
  };
  enum class EofReason : std::uint8_t {
    kClean,        ///< Peer closed (EOF).
    kDeadline,     ///< Cut by the read deadline.
    kTransport,    ///< recv error (`err` holds errno).
    kResyncBudget  ///< Cut after skipping more than max_resync_bytes.
  };

  Kind kind = Kind::kFrames;
  std::uint32_t shard = 0;
  std::uint64_t conn = 0;
  Transport transport = Transport::kTcp;
  EofReason reason = EofReason::kClean;
  int err = 0;
  bool received_bytes = false;    ///< kEof: stream delivered payload bytes.
  std::size_t pending_bytes = 0;  ///< kEof: undecoded bytes left behind.
  std::vector<Frame> frames;
  // Stat deltas accumulated on the shard thread but applied by the spine,
  // so every CollectorStats cell has a single writer.
  std::size_t bytes_delta = 0;          ///< Payload bytes read.
  std::size_t backpressure_delta = 0;   ///< Reads that filled the whole buffer.
  std::size_t resyncs_delta = 0;        ///< Decoder resyncs since last event.
  std::size_t skipped_delta = 0;        ///< Garbage bytes discarded by resync.
  std::size_t udp_datagrams_delta = 0;  ///< Datagrams with a valid leading hello.
  std::size_t udp_rejected_delta = 0;   ///< Datagrams discarded whole.
};

/// Per-shard counters snapshot for /statusz and tests.
struct ShardStats {
  std::size_t connections = 0;
  std::size_t epoll_wakeups = 0;
  std::size_t eagain_retries = 0;   ///< Re-poll attempts from the retry list.
  std::size_t spsc_stalls = 0;      ///< Pushes that found the queue full.
  std::size_t queue_depth = 0;      ///< Events queued right now (approx).
  std::size_t udp_datagrams = 0;    ///< Datagrams with a decodable leading hello.
  std::size_t udp_rejected = 0;     ///< Datagrams discarded (no valid hello).
};

struct ShardOptions {
  std::uint32_t index = 0;       ///< This shard's number (metric label).
  Transport transport = Transport::kTcp;
  int read_deadline_ms = -1;     ///< TCP: cut connections silent this long.
  std::size_t max_resync_bytes = 1 << 20;
  std::size_t recvmmsg_batch = 32;  ///< Datagrams per recvmmsg call.
  SocketOps* ops = nullptr;      ///< nullptr = real syscalls.
};

class CollectorShard {
 public:
  /// `out` is the shard→spine event queue (this shard is its only
  /// producer); `notify` is invoked after each push so the spine can sleep
  /// on a condition variable instead of spinning.
  CollectorShard(const ShardOptions& options, SpscQueue<ShardEvent>& out,
                 std::function<void()> notify);
  ~CollectorShard();

  CollectorShard(const CollectorShard&) = delete;
  CollectorShard& operator=(const CollectorShard&) = delete;

  /// Install the shard's socket before start(): a TCP listener for
  /// Transport::kTcp, a UDP socket for Transport::kUdp.
  void set_tcp_listener(Socket listener);
  void set_udp_socket(Socket socket);

  void start();
  void stop();  ///< Signal + join. Idempotent.

  /// Spine thread: ask this shard to close a connection it owns (malformed
  /// stream, goodbye received). Unknown serials are ignored (EOF raced).
  void request_close(std::uint64_t conn);
  /// Spine thread: settle barrier. The shard drains every connection and
  /// the UDP socket *directly* (not trusting epoll readiness, which
  /// injected spurious wakeups can mask), waits out any active EAGAIN
  /// retries, then acks with a kSync event ordered after everything it
  /// drained. Lets the spine guarantee bytes-before-goodbye are ingested
  /// before it declares the collection complete.
  void request_sync();

  ShardStats stats() const noexcept;
  std::uint32_t index() const noexcept { return options_.index; }

 private:
  struct Connection {
    Socket socket;
    std::uint64_t serial = 0;
    FrameDecoder decoder;
    bool received_bytes = false;
    std::size_t reported_resyncs = 0;
    std::size_t reported_skipped = 0;
    std::size_t retry_rounds = 0;  ///< Consecutive no-progress re-polls.
    std::chrono::steady_clock::time_point last_activity;
    /// Position in deadline_order_ (least-recently-active first).
    std::list<std::uint64_t>::iterator deadline_pos;
  };

  /// Control messages from the spine (its only producer) into the shard
  /// thread.
  struct Control {
    enum class Kind : std::uint8_t { kClose, kSync };
    Kind kind = Kind::kClose;
    std::uint64_t conn = 0;
  };

  void run();
  void handle_accept();
  void add_connection(int fd);
  /// Drain one connection to EAGAIN; returns false when it was closed.
  bool drain_connection(Connection& conn);
  void emit_frames(Connection& conn);
  void close_connection(std::uint64_t serial, ShardEvent::EofReason reason, int err,
                        bool emit_eof);
  void drain_udp();
  void process_controls();
  void reap_deadlines();
  void touch(Connection& conn);
  int loop_timeout_ms() const;
  void push_event(ShardEvent event);
  void wake();  ///< Kick the eventfd so a blocked epoll_wait returns.

  ShardOptions options_;
  SpscQueue<ShardEvent>& out_;
  std::function<void()> notify_;

  Socket tcp_listener_;
  Socket udp_socket_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};

  SpscQueue<Control> close_requests_;

  std::uint64_t next_serial_ = 1;
  std::unordered_map<std::uint64_t, Connection> connections_;
  /// Serials in last-activity order; front expires first (one shared
  /// deadline duration makes this list the whole timer wheel).
  std::list<std::uint64_t> deadline_order_;
  /// Serials to re-read despite EAGAIN (bounded edge-loss defense);
  /// 0 stands for the listener, 1-based otherwise. kUdpRetry stands for
  /// the UDP socket.
  std::vector<std::uint64_t> retry_list_;
  bool listener_retry_ = false;
  bool udp_retry_ = false;
  std::size_t sync_pending_ = 0;    ///< request_sync acks owed to the spine.
  bool sync_drain_needed_ = false;  ///< Direct drain-all not yet done.

  struct Counters {
    obs::RawCounter connections;
    obs::RawCounter epoll_wakeups;
    obs::RawCounter eagain_retries;
    obs::RawCounter spsc_stalls;
    obs::RawCounter udp_datagrams;
    obs::RawCounter udp_rejected;
  };
  Counters counters_;
  /// Registry mirrors, labelled {shard="i"}.
  obs::Counter* metric_connections_ = nullptr;
  obs::Counter* metric_wakeups_ = nullptr;
  obs::Gauge* metric_queue_depth_ = nullptr;
};

}  // namespace autosens::net
