#include "net/udp.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <stdexcept>

#include "obs/log.h"
#include "stats/rng.h"
#include "telemetry/binlog.h"

namespace autosens::net {
namespace {

std::uint64_t derive_udp_session_id() {
  // Process-unique, deterministic order; never 0 (0 marks sessionless).
  static std::atomic<std::uint64_t> next{1};
  const std::uint64_t id =
      stats::SplitMix64(0x0dd5e551'0d17aULL + next.fetch_add(1)).next();
  return id != 0 ? id : 1;
}

}  // namespace

UdpEmitter::UdpEmitter(std::uint16_t port, UdpEmitterOptions options)
    : ops_(options.ops != nullptr ? *options.ops : real_socket_ops()),
      options_(std::move(options)),
      session_id_(options_.session_id != 0 ? options_.session_id
                                           : derive_udp_session_id()) {
  if (options_.batch_size == 0) {
    throw std::invalid_argument("UdpEmitter: batch_size must be nonzero");
  }
  if (options_.max_datagram_bytes < 128) {
    throw std::invalid_argument("UdpEmitter: max_datagram_bytes too small");
  }
  socket_ = connect_udp(port);
  if (options_.sndbuf_bytes > 0) {
    ops_.setsockopt_int(socket_.fd(), SOL_SOCKET, SO_SNDBUF, options_.sndbuf_bytes);
  }
  std::sort(options_.drop_datagrams.begin(), options_.drop_datagrams.end());
  obs::log_debug("udp_emitter.open", {{"port", port},
                                      {"session", session_id_},
                                      {"batch", options_.batch_size},
                                      {"max_datagram", options_.max_datagram_bytes}});
}

UdpEmitter::~UdpEmitter() {
  try {
    close();
  } catch (...) {
    // Destructor close is best-effort; loss is accounted collector-side.
  }
}

void UdpEmitter::record(const telemetry::ActionRecord& record) {
  if (closed_) throw std::logic_error("UdpEmitter: record() after close()");
  pending_.push_back(record);
  if (pending_.size() >= options_.batch_size) {
    pack_records(pending_.data(), pending_.size());
    pending_.clear();
  }
}

void UdpEmitter::pack_records(const telemetry::ActionRecord* records,
                              std::size_t count) {
  if (count == 0) return;
  Frame frame;
  frame.type = FrameType::kData;
  frame.payload = telemetry::codec::encode_batch({records, count});
  // A frame that cannot share a datagram with its hello must be split:
  // datagrams are never fragmented across reads on the collector side.
  const std::size_t budget =
      options_.max_datagram_bytes - (kFrameOverheadBytes + 8 + 4);  // hello share
  if (count > 1 && frame.payload.size() + kFrameOverheadBytes > budget) {
    const std::size_t half = count / 2;
    pack_records(records, half);
    pack_records(records + half, count - half);
    return;
  }
  frame.seq = next_seq_++;
  queue_frame(frame, /*remember=*/true);
  sent_records_ += count;
}

void UdpEmitter::append_bytes(const std::vector<std::uint8_t>& encoded) {
  if (current_.empty()) {
    Frame hello = make_hello(session_id_);
    hello.seq = next_datagram_++;
    current_datagram_seq_ = hello.seq;
    const auto hello_bytes = encode_frame(hello);
    current_.insert(current_.end(), hello_bytes.begin(), hello_bytes.end());
    ++sent_frames_;
  } else if (current_.size() + encoded.size() > options_.max_datagram_bytes) {
    seal_datagram();
    append_bytes(encoded);
    return;
  }
  current_.insert(current_.end(), encoded.begin(), encoded.end());
  ++sent_frames_;
}

void UdpEmitter::queue_frame(const Frame& frame, bool remember) {
  auto encoded = encode_frame(frame);
  append_bytes(encoded);
  if (remember && options_.final_retransmit) retransmit_.push_back(std::move(encoded));
  if (outbox_.size() >= options_.sendmmsg_batch) ship();
}

void UdpEmitter::seal_datagram() {
  if (current_.empty()) return;
  const bool dropped = std::binary_search(options_.drop_datagrams.begin(),
                                          options_.drop_datagrams.end(),
                                          current_datagram_seq_);
  if (dropped) {
    // Planned loss: the datagram number is consumed but the bytes never
    // reach the kernel — the collector's gap tracker owes us exactly one
    // lost datagram for it.
    ++planned_drops_;
    obs::log_debug("udp_emitter.planned_drop",
                   {{"session", session_id_}, {"datagram", current_datagram_seq_}});
  } else {
    outbox_.push_back(std::move(current_));
  }
  current_.clear();
}

void UdpEmitter::ship() {
  seal_datagram();
  std::size_t offset = 0;
  while (offset < outbox_.size()) {
    const std::size_t batch =
        std::min(options_.sendmmsg_batch, outbox_.size() - offset);
    std::vector<iovec> iovs(batch);
    std::vector<mmsghdr> msgs(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      iovs[i] = {.iov_base = outbox_[offset + i].data(),
                 .iov_len = outbox_[offset + i].size()};
      msgs[i] = {};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int n = ops_.sendmmsg(socket_.fd(), msgs.data(), static_cast<unsigned>(batch));
    if (n < 0) {
      const int err = -n;
      if (err == EINTR) continue;
      if (err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS) {
        // Kernel buffers full (or an injected stall): wait and resume —
        // silently losing a whole batch here would be sender-side loss the
        // accounting could never see.
        ops_.sleep_ms(1);
        continue;
      }
      throw SocketError("sendmmsg()", err);
    }
    if (n == 0) {
      ops_.sleep_ms(1);
      continue;
    }
    sent_datagrams_ += static_cast<std::size_t>(n);
    offset += static_cast<std::size_t>(n);  // partial batch: resume the rest
  }
  outbox_.clear();
}

void UdpEmitter::flush() {
  if (closed_) return;
  if (!pending_.empty()) {
    pack_records(pending_.data(), pending_.size());
    pending_.clear();
  }
  Frame flush_marker;
  flush_marker.type = FrameType::kFlush;
  flush_marker.seq = next_seq_++;
  queue_frame(flush_marker, /*remember=*/false);
  ship();
}

void UdpEmitter::close() {
  if (closed_) return;
  flush();

  if (options_.final_retransmit && !retransmit_.empty()) {
    // Second delivery attempt for every data frame, in fresh datagrams
    // (new datagram numbers, original frame seqs): datagram loss on the
    // first pass becomes an accounted gap, not missing data — the
    // collector's frame dedup collapses the overlap.
    for (const auto& encoded : retransmit_) {
      append_bytes(encoded);
      if (outbox_.size() >= options_.sendmmsg_batch) ship();
    }
    ship();
  }

  queue_frame(make_udp_goodbye(next_seq_++, static_cast<std::uint32_t>(std::max<std::size_t>(
                                                 options_.goodbye_copies, 1))),
              /*remember=*/false);
  seal_datagram();
  // The goodbye datagram ships goodbye_copies times byte-identically (same
  // datagram number): surviving any copy ends the session; extra copies
  // collapse in the datagram dedup.
  if (!outbox_.empty() && options_.goodbye_copies > 1) {
    const auto goodbye_datagram = outbox_.back();
    for (std::size_t i = 1; i < options_.goodbye_copies; ++i) {
      outbox_.push_back(goodbye_datagram);
    }
  }
  ship();
  closed_ = true;
  obs::log_debug("udp_emitter.close", {{"session", session_id_},
                                       {"records", sent_records_},
                                       {"datagrams", sent_datagrams_},
                                       {"planned_drops", planned_drops_}});
}

}  // namespace autosens::net
