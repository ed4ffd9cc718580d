// Minimal RAII wrappers over POSIX loopback TCP — just enough socket for
// the provenance server and client, with every fallible call surfaced as a
// Status instead of errno spelunking at the call sites.
//
// Scope decisions: IPv4 loopback only (the server fronts an in-process
// service; cross-host deployment would add name resolution here, nothing
// above this layer changes), blocking I/O plus one non-blocking receive
// used by the server's greedy frame coalescing, blocking reads that spin
// briefly before they park (ReadSome), TCP_NODELAY everywhere
// (the protocol is request/response; Nagle would serialize pipelined point
// queries), and MSG_NOSIGNAL so a peer that vanished mid-write is a Status,
// not a SIGPIPE.

#ifndef FVL_NET_SOCKET_H_
#define FVL_NET_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "fvl/util/status.h"

namespace fvl::net {

// One receive into buf[0, capacity). eof is set when the peer closed (or
// reset the connection, or this side's read half was shut down);
// would_block only when non_blocking and no data was ready. n is 0 in both
// of those cases. Other transport errors are kUnavailable. parked is set
// when a blocking read went to the blocking recv rather than being
// answered while it spun.
struct ReadOutcome {
  size_t n = 0;
  bool eof = false;
  bool would_block = false;
  bool parked = false;
};

// How long a blocking read polls before it parks in recv. A kApply round
// trip over loopback spends about 3 us in the server and about 27 us in
// the two kernel wake-ups of parked readers (fvlbench ingest_archive,
// 4 vCPUs): a reply due within the budget is cheaper to wait for on the
// CPU than asleep.
inline constexpr std::chrono::microseconds kSpinBudget{50};

// A blocking read spins only when this many blocking reads in a row, the
// socket's last ones, were answered within kSpinBudget.
inline constexpr int kFastReadsToSpin = 2;

// Owning file-descriptor handle (move-only).
//
// Thread contract: the Shutdown* calls only read the descriptor and may be
// made from another thread to unblock a parked reader/writer (that is their
// whole point). Close() and the move operations write it, so they must be
// reserved to the owning thread, after any thread that might touch the
// socket has been joined — close() frees the fd *number*, which the kernel
// can immediately reuse for an unrelated descriptor. net/server.cc's
// shutdown-then-join-then-destroy sequence is the canonical pattern; the
// field stays a plain int deliberately so TSan flags any violation. The
// spin hint (fast_reads_) belongs to the one thread that makes blocking
// reads.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), fast_reads_(other.fast_reads_) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
      fast_reads_ = other.fast_reads_;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  void Close();
  // shutdown(SHUT_RDWR): unblocks any thread parked in recv/accept on this
  // socket without racing the descriptor's lifetime (Close alone would).
  void ShutdownBoth();
  // shutdown(SHUT_RD) only: ends a parked or spinning read (as eof) while
  // keeping the write side open, so responses to already-received
  // requests still go out — the drain half of ProvenanceServer::Stop.
  void ShutdownRead();
  // shutdown(SHUT_WR) only: signals EOF to the peer while keeping our read
  // side open to drain whatever it still sends.
  void ShutdownWrite();

 private:
  friend Result<ReadOutcome> ReadSome(Socket&, char*, size_t, bool);

  int fd_ = -1;
  // Blocking reads in a row answered within kSpinBudget, capped at
  // kFastReadsToSpin. A new socket spins.
  int fast_reads_ = kFastReadsToSpin;
};

// Listening socket bound to 127.0.0.1:port (port 0 picks an ephemeral
// port; read it back with LocalPort).
[[nodiscard]] Result<Socket> TcpListen(int port, int backlog = 64);
[[nodiscard]] Result<int> LocalPort(const Socket& socket);

// Blocking connect to 127.0.0.1:port with TCP_NODELAY set.
[[nodiscard]] Result<Socket> TcpConnect(int port);

// Blocking accept; TCP_NODELAY is set on the returned socket.
// kUnavailable when the listener was shut down.
[[nodiscard]] Result<Socket> Accept(const Socket& listener);

// Writes all of `bytes` (retrying short writes and EINTR).
[[nodiscard]] Status WriteAll(const Socket& socket, std::string_view bytes);

// A blocking read (non_blocking false) first polls the socket for up to
// kSpinBudget, then parks in recv. Each socket remembers how many of its
// last blocking reads were answered within the budget, spinning or parked;
// after one that was not, the next kFastReadsToSpin blocking reads park at
// once. Ping-pong traffic keeps spinning; a connection whose reads wait
// longer (pipelined windows, idle peers, a host too busy to answer in
// time) stops after one long wait, and one whose short and long waits
// alternate does not start again. non_blocking reads never spin or park.
[[nodiscard]] Result<ReadOutcome> ReadSome(Socket& socket, char* buf,
                                           size_t capacity,
                                           bool non_blocking = false);

}  // namespace fvl::net

#endif  // FVL_NET_SOCKET_H_
