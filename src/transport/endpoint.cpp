#include "transport/endpoint.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.hpp"

namespace clb::transport {

namespace {

// Generous kernel buffers: one superstep's all-to-all batch flush must fit
// in flight while every peer is still writing (blocking writes + full
// buffers on a cycle would deadlock; see docs/transport.md "Backpressure").
constexpr int kSockBuf = 1 << 20;

void tune_socket(int fd) {
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSockBuf, sizeof(kSockBuf));
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSockBuf, sizeof(kSockBuf));
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not a process signal.
    const ssize_t w = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      CLB_CHECK(false, "transport: socket write failed (peer died?)");
    }
    off += static_cast<std::size_t>(w);
  }
}

}  // namespace

Endpoint::~Endpoint() { close_fd(); }

Endpoint& Endpoint::operator=(Endpoint&& o) noexcept {
  if (this != &o) {
    close_fd();
    fd_ = o.fd_;
    o.fd_ = -1;
    next_seq_ = o.next_seq_;
    bytes_sent_ = o.bytes_sent_;
    bytes_received_ = o.bytes_received_;
    frames_received_ = o.frames_received_;
    reader_ = std::move(o.reader_);
  }
  return *this;
}

int Endpoint::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Endpoint::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Endpoint::send_frame(FrameType type, const std::uint8_t* payload,
                          std::size_t len) {
  CLB_CHECK(fd_ >= 0, "transport: send on a closed endpoint");
  const std::vector<std::uint8_t> wire =
      encode_frame(type, ++next_seq_, payload, len);
  write_all(fd_, wire.data(), wire.size());
  bytes_sent_ += wire.size();
}

Frame Endpoint::recv_frame() {
  std::optional<Frame> f = try_recv_frame();
  CLB_CHECK(f.has_value(), "transport: peer closed the connection mid-stream");
  return std::move(*f);
}

std::optional<Frame> Endpoint::try_recv_frame() {
  CLB_CHECK(fd_ >= 0, "transport: recv on a closed endpoint");
  Frame f;
  for (;;) {
    const DecodeStatus st = reader_.next(f);
    if (st == DecodeStatus::kOk) {
      ++frames_received_;
      return f;
    }
    if (st != DecodeStatus::kNeedMore) {
      CLB_CHECK(false, reader_.error().c_str());
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      CLB_CHECK(false, "transport: socket read failed");
    }
    if (r == 0) return std::nullopt;
    bytes_received_ += static_cast<std::uint64_t>(r);
    reader_.feed(buf, static_cast<std::size_t>(r));
  }
}

std::pair<Endpoint, Endpoint> make_stream_pair(WireKind kind) {
  if (kind == WireKind::kUds) {
    int fds[2];
    CLB_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
              "transport: socketpair(AF_UNIX) failed");
    tune_socket(fds[0]);
    tune_socket(fds[1]);
    return {Endpoint(fds[0]), Endpoint(fds[1])};
  }

  // TCP: ephemeral loopback listener, connect + accept, listener gone.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLB_CHECK(lfd >= 0, "transport: socket(AF_INET) failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  CLB_CHECK(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
            "transport: bind(127.0.0.1:0) failed");
  CLB_CHECK(::listen(lfd, 1) == 0, "transport: listen failed");
  socklen_t alen = sizeof(addr);
  CLB_CHECK(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0,
            "transport: getsockname failed");

  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  CLB_CHECK(cfd >= 0, "transport: socket(AF_INET) failed");
  CLB_CHECK(
      ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "transport: connect(127.0.0.1) failed");
  const int afd = ::accept(lfd, nullptr, nullptr);
  CLB_CHECK(afd >= 0, "transport: accept failed");
  ::close(lfd);

  const int one = 1;
  (void)setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)setsockopt(afd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  tune_socket(cfd);
  tune_socket(afd);
  return {Endpoint(cfd), Endpoint(afd)};
}

}  // namespace clb::transport
