// ProvenanceServer — the framed-TCP front-end the service API was designed
// for (ROADMAP: network front-end + multi-client workload driver).
//
// One server wraps one ProvenanceService and exposes the full session
// lifecycle over the wire protocol of net/wire.h: register-view /
// begin-run / apply / snapshot / snapshot-delta / depends(-many) /
// visibility-sweep / merge-runs / open-index-file / compact-files /
// stats. Views, sessions and indexes live server-side behind small
// integer ids, so queries ship ids and answers — never labels or arenas.
// Indexes of any run count share one registry: every index id answers on
// every query op, and every item is named by its flat id.
//
// Threading: one accept loop, one thread per connection, and one shared
// *batcher* thread. Point dependency queries (MsgType::kDepends) are not
// answered inline: each connection thread greedily drains the run of
// point-query frames already buffered on its socket, enqueues them on the
// batcher, and the batcher folds everything queued across all connections
// into one DependsMany decode pass per (view, index, mode) group (a query
// whose item ids are out of range is answered alone, so its error frame
// never fails the rest of its group). That
// coalescing is the same amortization lever as the in-process batch API —
// per-op decode overhead, not predicate cost, dominates small queries —
// and it is what lets N clients issuing point queries approach batched
// throughput (bench/ycsb_driver.cc measures it; stats().MeanBatchSize()
// must exceed 1 under concurrent load for the lever to be engaged).
//
// Robustness: malformed request payloads are answered with error frames
// (the Status taxonomy travels on the wire) and the connection stays
// usable; framing violations (zero/oversize lengths) close the connection
// after a final error frame, since the stream has no trustworthy
// resynchronization point. A request that fails inside the service is an
// error frame too — the server never aborts on anything a peer sends
// (tests/net_protocol_test.cc fuzzes this contract).
//
// Shutdown: Stop() drains — it stops accepting, lets every in-flight
// request finish and its response reach the socket, then joins all
// threads. Requests arriving after the drain began see connection EOF.
// Connections that close earlier are reaped by the accept loop: their
// threads are joined and their fds freed before the next connection is
// added, so a long-running server holds slots for open connections only.
// A failed accept (out of fds, a connection aborted in the backlog) never
// ends the accept loop: it reaps, pauses ~10 ms and retries until Stop().

#ifndef FVL_NET_SERVER_H_
#define FVL_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "fvl/service/provenance_service.h"
#include "fvl/util/status.h"

namespace fvl::net {

struct ServerOptions {
  int port = 0;  // 0 = pick an ephemeral port (read it back with port())
  int backlog = 64;
};

// Monotonic counters since Start (readable live; exposed over the wire via
// MsgType::kStats).
struct ServerStats {
  uint64_t point_queries = 0;  // kDepends requests answered
  uint64_t point_batches = 0;  // DependsMany decode passes serving them
  uint64_t frames = 0;         // request frames processed
  uint64_t connections = 0;    // connections accepted
  // Blocking reads on connection threads (net/socket.h ReadSome): those
  // answered while spinning, and those that parked in recv.
  uint64_t reads_spun = 0;
  uint64_t reads_parked = 0;

  // Serving-cache counters, summed over every index currently registered
  // with the server (each snapshot owns its cache — core/serving_cache.h —
  // so these reset when snapshots are replaced, not when the server
  // restarts).
  uint64_t label_hits = 0;  // decoded-label cache hits
  uint64_t label_misses = 0;
  // Always 0: there is no reachability memo. Not sent by kStats; kept for
  // in-process readers of the struct.
  uint64_t reach_hits = 0;
  uint64_t reach_misses = 0;  // same-run pairs the predicate evaluated

  // Coalescing effectiveness: point queries per decode pass. > 1 means
  // concurrent queries actually shared decode passes.
  double MeanBatchSize() const {
    return point_batches == 0
               ? 0.0
               : static_cast<double>(point_queries) / point_batches;
  }

  double LabelHitRate() const {
    const uint64_t total = label_hits + label_misses;
    return total == 0 ? 0.0 : static_cast<double>(label_hits) / total;
  }
};

// The kStats reply names each counter (docs/SERVER.md): the server sends
// these, and the client fills a ServerStats by name, skipping names it
// does not know. reach_misses travels under what it counts.
inline constexpr std::pair<std::string_view, uint64_t ServerStats::*>
    kStatsFields[] = {
        {"point_queries", &ServerStats::point_queries},
        {"point_batches", &ServerStats::point_batches},
        {"frames", &ServerStats::frames},
        {"connections", &ServerStats::connections},
        {"label_hits", &ServerStats::label_hits},
        {"label_misses", &ServerStats::label_misses},
        {"predicate_evaluations", &ServerStats::reach_misses},
        {"reads_spun", &ServerStats::reads_spun},
        {"reads_parked", &ServerStats::reads_parked},
};

class ProvenanceServer {
 public:
  // Binds 127.0.0.1:options.port, spawns the accept and batcher threads.
  // kUnavailable if the socket cannot be bound.
  [[nodiscard]] static Result<std::unique_ptr<ProvenanceServer>> Start(
      std::shared_ptr<ProvenanceService> service,
      const ServerOptions& options = {});

  ~ProvenanceServer();
  ProvenanceServer(const ProvenanceServer&) = delete;
  ProvenanceServer& operator=(const ProvenanceServer&) = delete;

  // The bound port (the ephemeral one when options.port was 0).
  int port() const;

  // Drain-and-stop; idempotent. See the class comment.
  void Stop();

  ServerStats stats() const;

  // Connection slots currently held: open connections plus closed ones not
  // yet reaped (reaping happens when the next connection is accepted). Not
  // exposed on the wire; for tests and diagnostics.
  int connection_slots() const;

 private:
  class Impl;
  explicit ProvenanceServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace fvl::net

#endif  // FVL_NET_SERVER_H_
