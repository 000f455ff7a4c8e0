// transport::Endpoint — one side of a framed, sequenced byte stream.
//
// Wraps a connected stream socket (AF_UNIX socketpair for kUds, a
// pre-connected loopback TCP pair for kTcp — same codec either way) and
// speaks the frame.hpp codec over it: send_frame() stamps the next stream
// sequence number and writes the whole encoded frame; recv_frame() blocks
// until one full frame is decoded, CRC- and sequence-checked. Any codec
// violation aborts the process — on this transport a malformed frame is
// always a bug or a corruption, never something to paper over.
//
// All pairs are created in the coordinator BEFORE fork, so workers inherit
// fully connected sockets and no child ever dials anything (no races, no
// listener lifetime, and the TCP path needs no port coordination).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/wire.hpp"
#include "transport/frame.hpp"

namespace clb::transport {

/// Wire selection for a process pair. Mirrors rt::Transport minus kInProc.
enum class WireKind : std::uint8_t { kUds, kTcp };

class Endpoint {
 public:
  Endpoint() = default;
  explicit Endpoint(int fd) : fd_(fd) {}
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  Endpoint(Endpoint&& o) noexcept { *this = std::move(o); }
  Endpoint& operator=(Endpoint&& o) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  /// Releases ownership of the fd without closing it.
  int release();
  void close_fd();

  /// Blocking full write of one encoded frame; stamps the next sequence.
  void send_frame(FrameType type, const std::uint8_t* payload,
                  std::size_t len);
  void send_frame(FrameType type, const std::vector<std::uint8_t>& payload) {
    send_frame(type, payload.data(), payload.size());
  }

  /// Blocking read of the next frame. Aborts on EOF (peer died) and on any
  /// codec or sequence violation.
  [[nodiscard]] Frame recv_frame();
  /// As recv_frame(), but returns nullopt once the peer has closed the
  /// link, so the caller can clean up before it fails.
  [[nodiscard]] std::optional<Frame> try_recv_frame();

  /// Byte/frame accounting for the wire gauges (RTT histograms are kept by
  /// the layer that knows what a round trip is).
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return bytes_received_;
  }
  [[nodiscard]] std::uint64_t frames_sent() const { return next_seq_; }
  [[nodiscard]] std::uint64_t frames_received() const {
    return frames_received_;
  }
  void account_into(obs::WireStats& s) const {
    s.bytes_sent += bytes_sent_;
    s.bytes_received += bytes_received_;
    s.frames_sent += next_seq_;
    s.frames_received += frames_received_;
  }

 private:
  int fd_ = -1;
  std::uint64_t next_seq_ = 0;  // last sequence sent
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t frames_received_ = 0;
  FrameReader reader_;
};

/// Creates a connected stream pair of the given kind. kUds uses
/// socketpair(AF_UNIX, SOCK_STREAM); kTcp binds a 127.0.0.1 ephemeral
/// listener, connects, accepts, sets TCP_NODELAY and closes the listener.
/// Both ends get enlarged send/receive buffers (the all-to-all batch flush
/// relies on kernel buffering to stay deadlock-free; see docs/transport.md).
[[nodiscard]] std::pair<Endpoint, Endpoint> make_stream_pair(WireKind kind);

}  // namespace clb::transport
