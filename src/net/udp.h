// UdpEmitter: batched UDP transport for the telemetry path, reusing wire-v2
// framing. Where the TCP emitter owns a stream, this one owns datagrams:
//
//   datagram := hello-frame(seq = per-session datagram number)
//              [data / flush / goodbye frames ...]     (≤ max_datagram_bytes)
//
// Every datagram is self-describing — the leading kHello carries the session
// id, so the collector needs no per-source state and a reconnect/rebind
// costs nothing. The hello's seq gives the collector datagram-level
// exactly-once AND exact loss accounting: gaps still open when the session
// finalizes are the datagrams that never arrived (autosens_net_udp_lost_total).
// Frames inside carry the session-wide frame seqs, so frame-level dedup
// keeps close-time retransmits idempotent.
//
// Reliability contract (UDP is lossy by design):
//  - close() optionally re-sends every data frame once more in fresh
//    datagrams (final_retransmit, on by default): datagram loss then shows
//    up in the loss counter but not in the Dataset, as long as not both
//    copies die. Duplicates are deduped by frame seq.
//  - goodbye ships goodbye_copies times as the *same* datagram bytes (same
//    datagram seq): copies collapse in the datagram dedup. The goodbye
//    carries the copy count, and the collector keeps serving until every
//    copy has arrived (or the idle timeout passes), so its duplicate count
//    does not depend on when the later copies land.
//  - drop_datagrams is a seeded drop plan for tests: listed datagram
//    numbers are silently never sent, producing exact, predictable loss.
//
// Datagrams are queued and shipped in sendmmsg batches; -EAGAIN and partial
// batches resume. All syscalls go through the SocketOps seam.
#pragma once

#include <cstdint>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "telemetry/record.h"

namespace autosens::net {

struct UdpEmitterOptions {
  std::size_t batch_size = 128;  ///< Records per data frame (must fit a datagram;
                                 ///< oversized frames are split automatically).
  std::size_t max_datagram_bytes = 8192;
  std::size_t sendmmsg_batch = 32;  ///< Datagrams per sendmmsg call.
  int sndbuf_bytes = 0;             ///< SO_SNDBUF (0 = kernel default).
  bool final_retransmit = true;     ///< Re-send all data frames at close().
  std::size_t goodbye_copies = 3;   ///< Same goodbye datagram, sent N times.
  SocketOps* ops = nullptr;         ///< nullptr = real syscalls.
  std::uint64_t session_id = 0;     ///< 0 = derive a process-unique one.
  /// Seeded drop plan: per-session datagram numbers never handed to the
  /// kernel. Deterministic loss injection for exact-accounting tests.
  std::vector<std::uint32_t> drop_datagrams;
};

class UdpEmitter {
 public:
  explicit UdpEmitter(std::uint16_t port, UdpEmitterOptions options = {});
  ~UdpEmitter();

  UdpEmitter(const UdpEmitter&) = delete;
  UdpEmitter& operator=(const UdpEmitter&) = delete;

  /// Buffer one record; packs a data frame when the batch fills.
  void record(const telemetry::ActionRecord& record);

  /// Pack any buffered records, add a flush marker, and ship everything
  /// queued so far.
  void flush();

  /// Flush, run the final retransmit pass, send goodbye; further record()
  /// calls throw. Idempotent.
  void close();

  std::size_t sent_records() const noexcept { return sent_records_; }
  std::size_t sent_frames() const noexcept { return sent_frames_; }
  /// Datagrams handed to the kernel (excludes planned drops).
  std::size_t sent_datagrams() const noexcept { return sent_datagrams_; }
  /// Datagrams suppressed by the drop plan.
  std::size_t planned_drops() const noexcept { return planned_drops_; }
  std::uint64_t session_id() const noexcept { return session_id_; }

 private:
  /// Encode records into data frame(s), splitting batches that would not
  /// fit a datagram.
  void pack_records(const telemetry::ActionRecord* records, std::size_t count);
  /// Append one encoded frame to the open datagram (starting a new one if
  /// it would overflow); remembers data frames for the retransmit pass.
  void queue_frame(const Frame& frame, bool remember);
  void append_bytes(const std::vector<std::uint8_t>& encoded);
  /// Seal the open datagram into the outbox (or the drop plan's bin).
  void seal_datagram();
  /// sendmmsg the outbox; resumes partial batches and EAGAIN stalls.
  void ship();

  SocketOps& ops_;
  Socket socket_;
  UdpEmitterOptions options_;
  std::uint64_t session_id_ = 0;
  std::uint32_t next_seq_ = 1;      ///< Frame sequence (session-wide).
  std::uint32_t next_datagram_ = 1; ///< Datagram sequence (session-wide).
  std::vector<std::uint8_t> current_;         ///< Open datagram bytes.
  std::uint32_t current_datagram_seq_ = 0;
  std::vector<std::vector<std::uint8_t>> outbox_;
  std::vector<std::vector<std::uint8_t>> retransmit_;  ///< Encoded data frames.
  std::vector<telemetry::ActionRecord> pending_;
  std::size_t sent_records_ = 0;
  std::size_t sent_frames_ = 0;
  std::size_t sent_datagrams_ = 0;
  std::size_t planned_drops_ = 0;
  bool closed_ = false;
};

}  // namespace autosens::net
