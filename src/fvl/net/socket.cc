#include "fvl/net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace fvl::net {
namespace {

Status Unavailable(const char* what) {
  return Status::Error(ErrorCode::kUnavailable,
                       std::string(what) + ": " + std::strerror(errno));
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best-effort: a socket without NODELAY is slower, not wrong.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Tells the CPU this is a spin-wait loop: an SMT sibling gets the core's
// resources while the loop polls.
void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// One recv(2), retried on EINTR. With MSG_DONTWAIT and nothing ready it
// reports would_block. A reset peer is indistinguishable from a closed one
// for our callers: the conversation is over either way.
Result<ReadOutcome> Receive(int fd, char* buf, size_t capacity, int flags) {
  for (;;) {
    ssize_t n = ::recv(fd, buf, capacity, flags);
    if (n > 0) return ReadOutcome{.n = static_cast<size_t>(n)};
    if (n == 0) return ReadOutcome{.eof = true};
    if (errno == EINTR) continue;
    if ((flags & MSG_DONTWAIT) != 0 &&
        (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return ReadOutcome{.would_block = true};
    }
    if (errno == ECONNRESET) return ReadOutcome{.eof = true};
    return Unavailable("recv");
  }
}

sockaddr_in LoopbackAddress(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

Result<Socket> TcpListen(int port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable("socket");
  Socket socket(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddress(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Unavailable("bind");
  }
  if (::listen(fd, backlog) != 0) return Unavailable("listen");
  return socket;
}

Result<int> LocalPort(const Socket& socket) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Unavailable("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<Socket> TcpConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Unavailable("socket");
  Socket socket(fd);
  sockaddr_in addr = LoopbackAddress(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) return Unavailable("connect");
  SetNoDelay(fd);
  return socket;
}

Result<Socket> Accept(const Socket& listener) {
  for (;;) {
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Unavailable("accept");
  }
}

Status WriteAll(const Socket& socket, std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::send(socket.fd(), bytes.data() + written,
                       bytes.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Unavailable("send");
  }
  return Status::Ok();
}

Result<ReadOutcome> ReadSome(Socket& socket, char* buf, size_t capacity,
                             bool non_blocking) {
  if (non_blocking) return Receive(socket.fd(), buf, capacity, MSG_DONTWAIT);
  const auto start = std::chrono::steady_clock::now();
  if (socket.fast_reads_ == kFastReadsToSpin) {
    const auto deadline = start + kSpinBudget;
    do {
      Result<ReadOutcome> polled =
          Receive(socket.fd(), buf, capacity, MSG_DONTWAIT);
      if (!polled.ok() || !polled->would_block) return polled;
      CpuRelax();
    } while (std::chrono::steady_clock::now() < deadline);
  }
  Result<ReadOutcome> outcome = Receive(socket.fd(), buf, capacity, 0);
  socket.fast_reads_ =
      std::chrono::steady_clock::now() - start <= kSpinBudget
          ? std::min(socket.fast_reads_ + 1, kFastReadsToSpin)
          : 0;
  if (outcome.ok()) outcome->parked = true;
  return outcome;
}

}  // namespace fvl::net
