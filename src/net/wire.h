// Wire protocol for the telemetry pipeline: magic-prefixed, length-prefixed,
// CRC-checked, sequence-numbered frames carrying batches of ActionRecords
// (the same batch payload format as the binary log, so collector output and
// on-disk logs are interchangeable).
//
// Frame layout (little-endian), version 2:
//   u8  magic0 = 0xA5, u8 magic1 = 0x5E
//   u8  type        (kData = 1, kFlush = 2, kGoodbye = 3, kHello = 4;
//                    bit 7 = kFrameTraceFlag, see below)
//   u32 seq         (per-session frame sequence; 0 for unsequenced senders)
//   u32 payload_len
//   [u64 span_id]   (only when kFrameTraceFlag is set in type)
//   payload (payload_len bytes)
//   u32 crc32(type..payload)   — covers the header after the magic, so a
//                                 corrupted length or sequence number cannot
//                                 pass as a valid frame
//
// Trace-context extension: setting Frame::span_id stamps the sending span's
// id onto the frame (flagged by bit 7 of the type byte, an 8-byte insert
// between the header and the payload, covered by the CRC like everything
// after the magic). A kHello payload may additionally be 24 bytes — session
// id, then a WireTraceContext (trace id + emitter root span id) — so
// collector-side decode/dedup spans stitch into emitter-side send/retry
// spans under one trace id. Both extensions are optional; receivers accept
// plain v2 frames unchanged, and senders only emit them while tracing is on.
//
// The magic makes mid-stream recovery possible: after damage, a receiver
// scans forward to the next byte position where magic + type + bounded
// length + CRC all hold (FrameDecoder resync) instead of killing the
// connection. The sequence number makes retransmission idempotent: an
// emitter that cannot know whether a failed send was delivered resends the
// frame, and the collector drops the duplicate by (session, seq).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/socket.h"
#include "telemetry/record.h"

namespace autosens::net {

inline constexpr std::uint8_t kFrameMagic0 = 0xA5;
inline constexpr std::uint8_t kFrameMagic1 = 0x5E;
/// magic(2) + type(1) + seq(4) + len(4).
inline constexpr std::size_t kFrameHeaderBytes = 11;
/// Header + trailing CRC: the wire overhead of an empty frame.
inline constexpr std::size_t kFrameOverheadBytes = kFrameHeaderBytes + 4;
/// Bit 7 of the type byte: the frame carries a u64 span id between the
/// header and the payload.
inline constexpr std::uint8_t kFrameTraceFlag = 0x80;
inline constexpr std::size_t kFrameSpanIdBytes = 8;

enum class FrameType : std::uint8_t {
  kData = 1,     ///< Payload is an encoded record batch.
  kFlush = 2,    ///< Sender requests durability point (no payload).
  kGoodbye = 3,  ///< Orderly end of stream (no payload; a UDP session's
                 ///< carries its copy count, make_udp_goodbye).
  kHello = 4,    ///< First frame of a connection: payload is a u64 session
                 ///< id, stable across the emitter's reconnects.
};

struct Frame {
  FrameType type = FrameType::kData;
  std::uint32_t seq = 0;
  /// Sending span's id (0 = no trace context). Nonzero values ride the wire
  /// via the kFrameTraceFlag extension; the collector parents its
  /// decode/dedup spans onto this id.
  std::uint64_t span_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Trace context carried by an extended (24-byte) kHello payload.
struct WireTraceContext {
  std::uint64_t trace_id = 0;  ///< Shared by every process of the trace.
  std::uint64_t span_id = 0;   ///< Emitter-side root span at connect time.
};

/// Serialize a frame (computes the CRC).
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// A kHello frame carrying `session_id`; the overload appends a
/// WireTraceContext (24-byte payload).
Frame make_hello(std::uint64_t session_id);
Frame make_hello(std::uint64_t session_id, const WireTraceContext& trace);

/// Extract the session id from a kHello payload (8- or 24-byte form);
/// nullopt if malformed.
std::optional<std::uint64_t> parse_hello(std::span<const std::uint8_t> payload) noexcept;

/// Extract the trace context from an extended kHello payload; nullopt for
/// the plain 8-byte form or malformed payloads.
std::optional<WireTraceContext> parse_hello_trace(
    std::span<const std::uint8_t> payload) noexcept;

/// A UDP session's kGoodbye frame. Its payload is the u32 number of
/// byte-identical copies of its datagram the emitter sends, so the
/// collector can wait for every copy instead of racing the later ones.
Frame make_udp_goodbye(std::uint32_t seq, std::uint32_t copies);

/// The copy count of a kGoodbye payload: 1 for the empty form, nullopt if
/// malformed.
std::optional<std::uint32_t> parse_goodbye_copies(
    std::span<const std::uint8_t> payload) noexcept;

/// Write one frame to the socket.
void send_frame(const Socket& socket, const Frame& frame,
                SocketOps& ops = real_socket_ops());

/// Convenience: encode records into a kData frame and send.
void send_records(const Socket& socket, std::span<const telemetry::ActionRecord> records);

/// Read one frame. Returns std::nullopt on clean EOF before a frame starts.
/// Throws std::runtime_error on bad magic / CRC mismatch / malformed frame,
/// SocketError on transport errors. `max_payload` bounds memory against
/// corrupt lengths. Strict (no resync): this is the simple blocking API;
/// stream recovery lives in FrameDecoder.
std::optional<Frame> recv_frame(const Socket& socket, std::size_t max_payload = 16 << 20);

/// Incremental frame decoder for non-blocking IO: feed() whatever bytes
/// arrived, then drain complete frames with next(). Used by the concurrent
/// collector, where a read may deliver half a frame or three of them.
///
/// Damage tolerance: next() never throws. Bytes that do not parse as a
/// valid frame (wrong magic, unknown type, oversized length, CRC mismatch)
/// are skipped one position at a time until the next byte offset where a
/// whole valid frame sits. Each contiguous skipped run that ends in a valid
/// frame counts as one resync; skipped_bytes() totals the garbage so the
/// caller can bound it (a peer streaming pure noise is cut off by the
/// collector's max_resync_bytes, not by unbounded buffering here).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = 16 << 20) : max_payload_(max_payload) {}

  /// Append received bytes to the internal buffer.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extract the next complete valid frame, if any.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by a complete frame.
  std::size_t pending_bytes() const noexcept { return buffer_.size() - consumed_; }
  /// Contiguous damaged runs skipped over (each ending in a valid frame).
  std::size_t resyncs() const noexcept { return resyncs_; }
  /// Total bytes discarded while scanning for valid frames.
  std::size_t skipped_bytes() const noexcept { return skipped_bytes_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< Prefix of buffer_ already decoded/rejected.
  std::size_t resyncs_ = 0;
  std::size_t skipped_bytes_ = 0;
  bool skipping_ = false;  ///< In the middle of a damaged run.
};

}  // namespace autosens::net
