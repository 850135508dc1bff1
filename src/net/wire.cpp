#include "net/wire.h"

#include <array>
#include <stdexcept>

#include "telemetry/binlog.h"

namespace autosens::net {
namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

std::uint32_t read_u32(std::span<const std::uint8_t, 4> bytes) {
  return static_cast<std::uint32_t>(bytes[0]) | (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

bool valid_type(std::uint8_t raw) noexcept {
  const std::uint8_t base = raw & static_cast<std::uint8_t>(~kFrameTraceFlag);
  return base >= 1 && base <= 4;
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

std::uint64_t read_u64(const std::uint8_t* bytes) noexcept {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = (value << 8) | bytes[i];
  return value;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  const bool traced = frame.span_id != 0;
  std::vector<std::uint8_t> out;
  out.reserve(frame.payload.size() + kFrameOverheadBytes +
              (traced ? kFrameSpanIdBytes : 0));
  out.push_back(kFrameMagic0);
  out.push_back(kFrameMagic1);
  out.push_back(static_cast<std::uint8_t>(static_cast<std::uint8_t>(frame.type) |
                                          (traced ? kFrameTraceFlag : 0)));
  put_u32(out, frame.seq);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  if (traced) put_u64(out, frame.span_id);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  // CRC over type..payload: a flipped length, sequence, or span-id byte
  // fails the check the same way a flipped payload byte does.
  put_u32(out, telemetry::codec::crc32(
                   std::span<const std::uint8_t>(out.data() + 2, out.size() - 2)));
  return out;
}

Frame make_hello(std::uint64_t session_id) {
  Frame frame{.type = FrameType::kHello, .seq = 0, .span_id = 0, .payload = {}};
  frame.payload.reserve(8);
  put_u64(frame.payload, session_id);
  return frame;
}

Frame make_hello(std::uint64_t session_id, const WireTraceContext& trace) {
  Frame frame = make_hello(session_id);
  frame.payload.reserve(24);
  put_u64(frame.payload, trace.trace_id);
  put_u64(frame.payload, trace.span_id);
  return frame;
}

Frame make_udp_goodbye(std::uint32_t seq, std::uint32_t copies) {
  Frame frame{.type = FrameType::kGoodbye, .seq = seq, .span_id = 0, .payload = {}};
  put_u32(frame.payload, copies);
  return frame;
}

std::optional<std::uint32_t> parse_goodbye_copies(
    std::span<const std::uint8_t> payload) noexcept {
  if (payload.empty()) return 1;
  if (payload.size() != 4) return std::nullopt;
  return read_u32(payload.first<4>());
}

std::optional<std::uint64_t> parse_hello(std::span<const std::uint8_t> payload) noexcept {
  if (payload.size() != 8 && payload.size() != 24) return std::nullopt;
  return read_u64(payload.data());
}

std::optional<WireTraceContext> parse_hello_trace(
    std::span<const std::uint8_t> payload) noexcept {
  if (payload.size() != 24) return std::nullopt;
  return WireTraceContext{.trace_id = read_u64(payload.data() + 8),
                          .span_id = read_u64(payload.data() + 16)};
}

void send_frame(const Socket& socket, const Frame& frame, SocketOps& ops) {
  const auto bytes = encode_frame(frame);
  write_all(socket, bytes, ops);
}

void send_records(const Socket& socket, std::span<const telemetry::ActionRecord> records) {
  Frame frame{.type = FrameType::kData,
              .seq = 0,
              .payload = telemetry::codec::encode_batch(records)};
  send_frame(socket, frame);
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  // Compact occasionally so the buffer does not grow without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameDecoder::next() {
  while (buffer_.size() - consumed_ >= kFrameHeaderBytes) {
    const std::uint8_t* at = buffer_.data() + consumed_;
    const std::size_t available = buffer_.size() - consumed_;

    // Candidate frame at the current offset? Anything that fails a header
    // check is definitively not a frame start: skip one byte and rescan.
    if (at[0] != kFrameMagic0 || at[1] != kFrameMagic1 || !valid_type(at[2])) {
      ++consumed_;
      ++skipped_bytes_;
      skipping_ = true;
      continue;
    }
    const std::uint32_t len = read_u32(std::span<const std::uint8_t, 4>(at + 7, 4));
    if (len > max_payload_) {
      ++consumed_;
      ++skipped_bytes_;
      skipping_ = true;
      continue;
    }
    const std::size_t ext = (at[2] & kFrameTraceFlag) != 0 ? kFrameSpanIdBytes : 0;
    const std::size_t total = kFrameOverheadBytes + ext + static_cast<std::size_t>(len);
    if (available < total) return std::nullopt;  // plausible frame, need more bytes

    const std::uint32_t crc = read_u32(
        std::span<const std::uint8_t, 4>(at + kFrameHeaderBytes + ext + len, 4));
    if (crc != telemetry::codec::crc32(std::span<const std::uint8_t>(
                   at + 2, kFrameHeaderBytes - 2 + ext + len))) {
      ++consumed_;
      ++skipped_bytes_;
      skipping_ = true;
      continue;
    }

    Frame frame;
    frame.type = static_cast<FrameType>(at[2] & ~kFrameTraceFlag);
    frame.seq = read_u32(std::span<const std::uint8_t, 4>(at + 3, 4));
    if (ext != 0) frame.span_id = read_u64(at + kFrameHeaderBytes);
    frame.payload.assign(at + kFrameHeaderBytes + ext,
                         at + kFrameHeaderBytes + ext + len);
    consumed_ += total;
    if (skipping_) {
      ++resyncs_;
      skipping_ = false;
    }
    return frame;
  }
  return std::nullopt;
}

std::optional<Frame> recv_frame(const Socket& socket, std::size_t max_payload) {
  std::array<std::uint8_t, kFrameHeaderBytes> header{};
  if (!read_exact(socket, header)) return std::nullopt;
  if (header[0] != kFrameMagic0 || header[1] != kFrameMagic1) {
    throw std::runtime_error("recv_frame: bad frame magic");
  }
  if (!valid_type(header[2])) throw std::runtime_error("recv_frame: unknown frame type");
  const std::uint32_t len =
      read_u32(std::span<const std::uint8_t, 4>(header.data() + 7, 4));
  if (len > max_payload) throw std::runtime_error("recv_frame: payload exceeds limit");
  const std::size_t ext =
      (header[2] & kFrameTraceFlag) != 0 ? kFrameSpanIdBytes : 0;

  // The CRC covers type..[span id..]payload; rebuild that region
  // contiguously so the check runs over one span (this blocking path is
  // tests/tools only — the collector's FrameDecoder checks in place without
  // the copy).
  std::vector<std::uint8_t> checked(kFrameHeaderBytes - 2 + ext + len);
  std::copy(header.begin() + 2, header.end(), checked.begin());
  if (ext + len > 0 &&
      !read_exact(socket, std::span<std::uint8_t>(checked.data() + kFrameHeaderBytes - 2,
                                                  ext + len))) {
    throw std::runtime_error("recv_frame: truncated payload");
  }
  std::array<std::uint8_t, 4> crc_bytes{};
  if (!read_exact(socket, crc_bytes)) throw std::runtime_error("recv_frame: truncated crc");
  const std::uint32_t crc = read_u32(std::span<const std::uint8_t, 4>(crc_bytes));
  if (crc != telemetry::codec::crc32(checked)) {
    throw std::runtime_error("recv_frame: crc mismatch");
  }

  Frame frame;
  frame.type = static_cast<FrameType>(header[2] & ~kFrameTraceFlag);
  frame.seq = read_u32(std::span<const std::uint8_t, 4>(header.data() + 3, 4));
  if (ext != 0) frame.span_id = read_u64(checked.data() + kFrameHeaderBytes - 2);
  frame.payload.assign(checked.begin() + kFrameHeaderBytes - 2 + static_cast<std::ptrdiff_t>(ext),
                       checked.end());
  return frame;
}

}  // namespace autosens::net
