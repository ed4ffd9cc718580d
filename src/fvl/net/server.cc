#include "fvl/net/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/net/socket.h"
#include "fvl/net/wire.h"
#include "fvl/util/thread_annotations.h"

namespace fvl::net {
namespace {

// Pause before retrying a failed accept(). Linux reserves the new
// descriptor before accept() blocks, so a process at its fd limit fails
// with EMFILE even with no connection pending; the pause keeps that from
// spinning until reaped slots or the caller free descriptors.
constexpr std::chrono::milliseconds kAcceptRetryDelay{10};

Status NotFound(const char* what, uint64_t id) {
  return Status::Error(ErrorCode::kNotFound, std::string("unknown ") + what +
                                                 " id " + std::to_string(id));
}

// One queued point query awaiting a shared decode pass. Owned by its
// connection thread; the batcher only touches it between enqueue and the
// done handshake. The handshake fields (status/answer/done) are guarded by
// the server's batch_mu_ — they live outside Impl, so the guard is the
// enqueue/done protocol (checked by TSan) rather than an FVL_GUARDED_BY.
struct PointQuery {
  DependsRequest request;
  // Filled by the batcher.
  Status status;
  bool answer = false;
  bool done = false;
};

// Prebuilt `u64 len | kOkByte | bool` response frames — every point-query
// answer is one of these two constants, appended without allocation.
const std::string& OkBoolFrame(bool answer) {
  static const std::string kTrue = [] {
    std::string out;
    AppendFrame(&out, OkResponse(std::string(1, '\x01')));
    return out;
  }();
  static const std::string kFalse = [] {
    std::string out;
    AppendFrame(&out, OkResponse(std::string(1, '\x00')));
    return out;
  }();
  return answer ? kTrue : kFalse;
}

}  // namespace

class ProvenanceServer::Impl {
 public:
  Impl(std::shared_ptr<ProvenanceService> service, Socket listener, int port)
      : service_(std::move(service)),
        listener_(std::move(listener)),
        port_(port) {}

  void StartThreads() {
    batcher_ = std::thread([this] { BatcherLoop(); });
    acceptor_ = std::thread([this] { AcceptLoop(); });
  }

  int port() const { return port_; }

  int connection_slots() const FVL_EXCLUDES(conns_mu_) {
    MutexLock lock(&conns_mu_);
    return static_cast<int>(connections_.size());
  }

  ServerStats stats() const FVL_EXCLUDES(state_mu_) {
    ServerStats stats;
    stats.point_queries = point_queries_.load(std::memory_order_relaxed);
    stats.point_batches = point_batches_.load(std::memory_order_relaxed);
    stats.frames = frames_.load(std::memory_order_relaxed);
    stats.connections = connections_accepted_.load(std::memory_order_relaxed);
    stats.reads_spun = reads_spun_.load(std::memory_order_relaxed);
    stats.reads_parked = reads_parked_.load(std::memory_order_relaxed);
    // Cache counters live on the indexes, not the server: sum them over
    // the registered artifacts. state_mu_ only guards the map walk — the
    // counters themselves are relaxed atomics, safe to read live.
    MutexLock lock(&state_mu_);
    auto add = [&stats](const ServingCache* cache) {
      if (cache == nullptr) return;
      const ServingCacheStats s = cache->stats();
      stats.label_hits += s.label_hits;
      stats.label_misses += s.label_misses;
      stats.reach_misses += s.reach_misses;
    };
    for (const auto& [id, index] : artifacts_) add(index->serving_cache());
    return stats;
  }

  void Stop() FVL_EXCLUDES(stop_mu_, conns_mu_, batch_mu_) {
    if (stopping_.exchange(true)) {
      // A concurrent/second Stop still waits for the first drain to finish
      // (destructor-vs-explicit-Stop race).
      MutexLock lock(&stop_mu_);
      return;
    }
    MutexLock lock(&stop_mu_);
    // 1. No new connections.
    listener_.ShutdownBoth();
    if (acceptor_.joinable()) acceptor_.join();
    // 2. Drain: wake every parked reader but keep write sides open, so
    // responses to requests already received still go out. The join runs
    // under conns_mu_ too — the acceptor (the only other writer of
    // connections_) is already joined, and connection threads never take
    // conns_mu_, so holding it across the joins cannot deadlock.
    {
      MutexLock conns_lock(&conns_mu_);
      for (auto& conn : connections_) conn->socket.ShutdownRead();
      for (auto& conn : connections_) {
        if (conn->thread.joinable()) conn->thread.join();
      }
    }
    // 3. The batcher exits once the queue is dry (connection threads are
    // gone, so nothing re-fills it).
    {
      MutexLock batch_lock(&batch_mu_);
      batch_stopping_ = true;
    }
    batch_cv_.NotifyAll();
    if (batcher_.joinable()) batcher_.join();
  }

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    // Set by the connection thread as its last act; the acceptor then joins
    // the thread and frees the slot (closing the fd) under conns_mu_.
    std::atomic<bool> done{false};
  };

  struct SessionEntry {
    Mutex mu;  // sessions are single-writer; serialize wire mutations
    // The pointer is written once before the entry is published in
    // sessions_; the *session object* behind it is what mu guards.
    std::shared_ptr<ProvenanceSession> session FVL_PT_GUARDED_BY(mu);
  };

  // --- Accept loop --------------------------------------------------------

  void AcceptLoop() FVL_EXCLUDES(conns_mu_) {
    for (;;) {
      Result<Socket> accepted = Accept(listener_);
      if (stopping_.load()) return;  // Stop shut the listener down
      if (!accepted.ok()) {
        // Out of descriptors or buffers, or a connection that died in the
        // backlog: none of these ends the server. Free finished slots
        // (and their fds), pause, retry.
        {
          MutexLock lock(&conns_mu_);
          ReapDoneConnections();
        }
        std::this_thread::sleep_for(kAcceptRetryDelay);
        continue;
      }
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      auto conn = std::make_unique<Connection>();
      conn->socket = std::move(accepted).value();
      Connection* raw = conn.get();
      MutexLock lock(&conns_mu_);
      if (stopping_.load()) return;  // raced Stop; drop the connection
      ReapDoneConnections();
      connections_.push_back(std::move(conn));
      raw->thread = std::thread([this, raw] { ServeConnection(raw); });
    }
  }

  // Joins and frees the slots of connections whose threads have finished,
  // so live slots track open connections rather than connection churn. A
  // done thread has returned or is returning and never takes conns_mu_, so
  // the join is short and cannot deadlock. Stop's ShutdownRead sweep also
  // runs under conns_mu_, so it never sees a freed socket.
  void ReapDoneConnections() FVL_REQUIRES(conns_mu_) {
    std::erase_if(connections_, [](std::unique_ptr<Connection>& conn) {
      if (!conn->done.load(std::memory_order_acquire)) return false;
      conn->thread.join();
      return true;
    });
  }

  // --- Connection loop ----------------------------------------------------

  void ServeConnection(Connection* conn) {
    std::string buffer;
    char chunk[1 << 16];
    for (;;) {
      size_t frame_size = 0;
      std::string_view payload;
      FrameStatus status = TryExtractFrame(buffer, &frame_size, &payload);
      if (status == FrameStatus::kBad) {
        // Framing violation: no resynchronization point. Final error
        // frame, then close.
        std::string out;
        AppendFrame(&out, ErrorResponse(Status::Error(
                              ErrorCode::kMalformedBlob,
                              "bad frame length (zero or oversize)")));
        (void)WriteAll(conn->socket, out);
        break;
      }
      if (status == FrameStatus::kNeedMore) {
        Result<ReadOutcome> outcome =
            ReadSome(conn->socket, chunk, sizeof(chunk));
        if (!outcome.ok()) break;
        (outcome->parked ? reads_parked_ : reads_spun_)
            .fetch_add(1, std::memory_order_relaxed);
        if (outcome->eof) break;
        buffer.append(chunk, outcome->n);
        continue;
      }
      frames_.fetch_add(1, std::memory_order_relaxed);
      // Hot path first: a well-formed point query skips the Request bag
      // (whose vectors would be constructed and destroyed per frame) and
      // goes straight to the batcher.
      DependsRequest point;
      if (DecodeDependsRequest(payload, &point)) {
        if (!ServePointQueryRun(conn, point, frame_size, &buffer)) break;
        continue;
      }
      Result<Request> request = DecodeRequest(payload);
      buffer.erase(0, frame_size);
      if (!request.ok()) {
        // Framing stayed intact — answer the error, keep the connection.
        std::string out;
        AppendFrame(&out, ErrorResponse(request.status()));
        if (!WriteAll(conn->socket, out).ok()) break;
        continue;
      }
      std::string out;
      AppendFrame(&out, HandleRequest(*request));
      if (!WriteAll(conn->socket, out).ok()) break;
    }
    // Tear down the conversation but do NOT close: Stop() may still call
    // ShutdownRead() on this socket, and close() here would free the fd
    // number out from under it (racing the read, and worse, the number can
    // be reused by an unrelated descriptor). The fd is released when the
    // Connection slot is destroyed, after the acceptor's reap or Stop has
    // joined this thread.
    conn->socket.ShutdownBoth();
    conn->done.store(true, std::memory_order_release);
  }

  // Greedily drains the run of already-buffered point-query frames that
  // starts with `first` (already decoded, `first_size` bytes at the front
  // of *buffer), queues the whole run on the shared batcher, and writes
  // the answers in request order. Pipelined clients land many frames per
  // socket read, so the run length — and with it the batch the decoder
  // amortizes over — grows with load, not with a tuning knob.
  // Returns false when the connection must close.
  bool ServePointQueryRun(Connection* conn, const DependsRequest& first,
                          size_t first_size, std::string* buffer) {
    std::deque<PointQuery> run;  // deque: stable addresses for the queue
    run.emplace_back();
    run.back().request = first;
    size_t pos = first_size;  // consumed prefix; erased once at the end
    bool close_after = false;
    for (;;) {
      size_t frame_size = 0;
      std::string_view payload;
      FrameStatus status = TryExtractFrame(
          std::string_view(*buffer).substr(pos), &frame_size, &payload);
      if (status == FrameStatus::kNeedMore) {
        // Top up without blocking: take what the socket already holds,
        // but never stall the queries we owe answers for.
        char chunk[1 << 16];
        Result<ReadOutcome> outcome = ReadSome(
            conn->socket, chunk, sizeof(chunk), /*non_blocking=*/true);
        if (!outcome.ok()) {
          close_after = true;
          break;
        }
        if (outcome->would_block || outcome->eof) break;
        buffer->append(chunk, outcome->n);
        continue;
      }
      if (status == FrameStatus::kBad) break;  // main loop reports + closes
      // A complete frame: only a decodable point query joins the run;
      // anything else stays buffered for the main loop.
      PointQuery query;
      if (!DecodeDependsRequest(payload, &query.request)) break;
      frames_.fetch_add(1, std::memory_order_relaxed);
      run.push_back(query);
      pos += frame_size;
    }
    buffer->erase(0, pos);

    ExecuteThroughBatcher(run);

    std::string out;
    out.reserve(run.size() * 18);
    for (const PointQuery& query : run) {
      if (query.status.ok()) {
        out.append(OkBoolFrame(query.answer));
      } else {
        AppendFrame(&out, ErrorResponse(query.status));
      }
    }
    if (!WriteAll(conn->socket, out).ok()) return false;
    return !close_after;
  }

  // --- Point-query batcher ------------------------------------------------

  void ExecuteThroughBatcher(std::deque<PointQuery>& run)
      FVL_EXCLUDES(batch_mu_) {
    {
      MutexLock lock(&batch_mu_);
      for (PointQuery& query : run) queue_.push_back(&query);
    }
    batch_cv_.NotifyOne();
    MutexLock lock(&batch_mu_);
    for (;;) {
      bool all_done = true;
      for (const PointQuery& query : run) {
        if (!query.done) {
          all_done = false;
          break;
        }
      }
      if (all_done) return;
      done_cv_.Wait(&batch_mu_);
    }
  }

  void BatcherLoop() FVL_EXCLUDES(batch_mu_) {
    batch_mu_.Lock();
    for (;;) {
      while (queue_.empty() && !batch_stopping_) batch_cv_.Wait(&batch_mu_);
      if (queue_.empty()) break;  // batch_stopping_ and nothing left to serve
      // Take everything queued right now — the pop IS the coalescing
      // window: while one decode pass runs, new arrivals pile up for the
      // next, so batch size tracks concurrency with zero added latency.
      std::vector<PointQuery*> batch;
      batch.swap(queue_);
      batch_mu_.Unlock();
      ExecuteBatch(batch);
      batch_mu_.Lock();
      for (PointQuery* query : batch) query->done = true;
      done_cv_.NotifyAll();
    }
    batch_mu_.Unlock();
  }

  void ExecuteBatch(const std::vector<PointQuery*>& batch) {
    point_queries_.fetch_add(batch.size(), std::memory_order_relaxed);
    // Group by (view, index, mode): one DependsMany decode pass each. A
    // batch almost always holds runs of one group (clients hammer one
    // index), so the map is only consulted when the key changes.
    using Key = std::tuple<uint64_t, uint64_t, ViewLabelMode>;
    std::map<Key, std::vector<PointQuery*>> groups;
    Key last_key;
    std::vector<PointQuery*>* last_group = nullptr;
    for (PointQuery* query : batch) {
      const DependsRequest& request = query->request;
      Key key{request.view_id, request.index_id, request.mode};
      if (last_group == nullptr || key != last_key) {
        last_group = &groups[key];
        last_key = key;
      }
      last_group->push_back(query);
    }
    for (auto& [key, group] : groups) {
      point_batches_.fetch_add(1, std::memory_order_relaxed);
      const QueryHeader& header = group.front()->request;  // the group's key
      Result<QueryTarget> target = LookupTarget(header);
      if (!target.ok()) {
        for (PointQuery* query : group) query->status = target.status();
        continue;
      }
      // One out-of-range query must not fail its neighbours (other
      // connections' queries among them): the in-range ones share one
      // decode pass, and each out-of-range one gets its own one-pair
      // DependsMany, which fails with the service's own message.
      const uint64_t num_items = target->index->total_items();
      auto bad = std::stable_partition(
          group.begin(), group.end(), [num_items](const PointQuery* query) {
            return query->request.d1 < num_items &&
                   query->request.d2 < num_items;
          });
      auto answer = [&](std::span<PointQuery* const> queries) {
        std::vector<std::pair<int, int>> pairs;
        pairs.reserve(queries.size());
        for (const PointQuery* query : queries) {
          pairs.push_back({static_cast<int>(query->request.d1),
                           static_cast<int>(query->request.d2)});
        }
        Result<std::vector<bool>> answers = service_->DependsMany(
            target->view, *target->index, pairs, header.mode);
        for (size_t i = 0; i < queries.size(); ++i) {
          if (answers.ok()) {
            queries[i]->answer = (*answers)[i];
          } else {
            queries[i]->status = answers.status();
          }
        }
      };
      if (bad != group.begin()) answer({group.begin(), bad});
      for (auto it = bad; it != group.end(); ++it) answer({it, 1});
    }
  }

  // --- Request dispatch ---------------------------------------------------

  std::string HandleRequest(const Request& request) {
    switch (request.type) {
      case MsgType::kPing: {
        std::string body;
        AppendU64(&body, kProtocolVersion);
        return OkResponse(body);
      }
      case MsgType::kRegisterView:
        return HandleRegisterView(request);
      case MsgType::kBeginRun:
        return HandleBeginRun();
      case MsgType::kApply:
        return HandleApply(request);
      case MsgType::kSnapshot:
      case MsgType::kSnapshotDelta:
        return HandleSnapshot(request);
      case MsgType::kDependsMany:
      case MsgType::kVisibilitySweep:
        return HandleQuery(request);
      case MsgType::kMergeRuns:
        return HandleMergeRuns(request);
      case MsgType::kOpenIndexFile:
        return HandleOpenIndexFile(request);
      case MsgType::kCompactFiles:
        return HandleCompactFiles(request);
      case MsgType::kStats: {
        const ServerStats snapshot = stats();
        std::vector<NamedCounter> counters;
        for (const auto& [name, field] : kStatsFields) {
          counters.emplace_back(name, snapshot.*field);
        }
        return OkResponse(EncodeStatsBody(counters));
      }
      case MsgType::kDepends:
        break;  // handled by the fast-path batcher route, never here
    }
    return ErrorResponse(
        Status::Error(ErrorCode::kInvalidArgument, "unroutable request"));
  }

  std::string HandleRegisterView(const Request& request)
      FVL_EXCLUDES(state_mu_) {
    Result<ViewHandle> handle = service_->RegisterView(request.view);
    if (!handle.ok()) return ErrorResponse(handle.status());
    MutexLock lock(&state_mu_);
    // The service dedups structurally equal views; mirror that on the wire
    // so re-registration returns a stable id.
    for (size_t i = 0; i < views_.size(); ++i) {
      if (views_[i] == *handle) {
        std::string body;
        AppendU64(&body, i);
        return OkResponse(body);
      }
    }
    views_.push_back(*handle);
    std::string body;
    AppendU64(&body, views_.size() - 1);
    return OkResponse(body);
  }

  std::string HandleBeginRun() FVL_EXCLUDES(state_mu_) {
    auto entry = std::make_shared<SessionEntry>();
    entry->session = service_->BeginRun();
    MutexLock lock(&state_mu_);
    uint64_t id = next_session_id_++;
    sessions_[id] = std::move(entry);
    std::string body;
    AppendU64(&body, id);
    return OkResponse(body);
  }

  std::string HandleApply(const Request& request) FVL_EXCLUDES(state_mu_) {
    std::shared_ptr<SessionEntry> entry = LookupSession(request.session_id);
    if (entry == nullptr) {
      return ErrorResponse(NotFound("session", request.session_id));
    }
    MutexLock lock(&entry->mu);
    Result<DerivationStep> step =
        entry->session->Apply(static_cast<int>(request.instance),
                              static_cast<int>(request.production));
    if (!step.ok()) return ErrorResponse(step.status());
    std::string body;
    AppendU64(&body, static_cast<uint64_t>(step->index));
    AppendU64(&body, static_cast<uint64_t>(step->instance));
    AppendU64(&body, static_cast<uint64_t>(step->production));
    AppendU64(&body, static_cast<uint64_t>(step->first_child));
    AppendU64(&body, static_cast<uint64_t>(step->first_item));
    AppendU64(&body, static_cast<uint64_t>(step->num_items));
    return OkResponse(body);
  }

  std::string HandleSnapshot(const Request& request)
      FVL_EXCLUDES(state_mu_) {
    std::shared_ptr<SessionEntry> entry = LookupSession(request.session_id);
    if (entry == nullptr) {
      return ErrorResponse(NotFound("session", request.session_id));
    }
    ProvenanceIndex index;
    int frozen = 0;
    {
      MutexLock lock(&entry->mu);
      index = request.type == MsgType::kSnapshotDelta
                  ? entry->session->SnapshotDelta()
                  : entry->session->Snapshot();
      frozen = entry->session->frozen_items();
    }
    const int num_items = index.num_items();
    std::string body;
    AppendU64(&body, Register(std::move(index)));
    AppendU64(&body, static_cast<uint64_t>(num_items));
    AppendU64(&body, static_cast<uint64_t>(frozen));
    return OkResponse(body);
  }

  // kDependsMany and kVisibilitySweep: look up the header's view and
  // index, answer with a bool vector.
  std::string HandleQuery(const Request& request) {
    Result<QueryTarget> target = LookupTarget(request);
    if (!target.ok()) return ErrorResponse(target.status());
    const ViewHandle& view = target->view;
    const ProvenanceIndex& index = *target->index;
    Result<std::vector<bool>> answers =
        request.type == MsgType::kDependsMany
            ? service_->DependsMany(view, index, request.pairs, request.mode)
            : service_->VisibilitySweep(view, index, request.mode);
    if (!answers.ok()) return ErrorResponse(answers.status());
    std::string body;
    AppendBools(&body, *answers);
    return OkResponse(body);
  }

  std::string HandleMergeRuns(const Request& request)
      FVL_EXCLUDES(state_mu_) {
    // Every registered artifact already passed this service's codec check
    // (sessions label against its grammar; files and compactions are
    // vetted on the way in), so the registered indexes feed the streaming
    // builder directly — each input's runs are appended in stored order.
    CompactStream stream;
    for (size_t i = 0; i < request.index_ids.size(); ++i) {
      const uint64_t id = request.index_ids[i];
      std::shared_ptr<const ProvenanceIndex> index = LookupArtifact(id);
      if (index == nullptr) return ErrorResponse(NotFound("index", id));
      if (Status status = stream.Append(*index); !status.ok()) {
        return ErrorResponse(Status::Error(
            status.code(),
            "index " + std::to_string(i) + ": " + status.message()));
      }
    }
    Result<ProvenanceIndex> merged = std::move(stream).Finish();
    if (!merged.ok()) return ErrorResponse(merged.status());
    return MergeInfoResponse(std::move(merged).value());
  }

  std::string HandleOpenIndexFile(const Request& request)
      FVL_EXCLUDES(state_mu_) {
    // The mapped index's store holds its mapping, so registering it
    // serves queries straight off the archive's pages — a cold open is the
    // whole point of the on-disk tier (bench/bench_mmap_serve.cc). Either
    // format opens.
    Result<ProvenanceIndex> index = service_->OpenIndexFile(request.path);
    if (!index.ok()) return ErrorResponse(index.status());
    return MergeInfoResponse(std::move(index).value());
  }

  std::string HandleCompactFiles(const Request& request)
      FVL_EXCLUDES(state_mu_) {
    Result<ProvenanceIndex> merged =
        service_->CompactFiles(request.input_paths, request.path);
    if (!merged.ok()) return ErrorResponse(merged.status());
    return MergeInfoResponse(std::move(merged).value());
  }

  // Registers `index` and replies {id, num_runs, total_items}.
  std::string MergeInfoResponse(ProvenanceIndex index)
      FVL_EXCLUDES(state_mu_) {
    const int num_runs = index.num_runs();
    const int total_items = index.total_items();
    std::string body;
    AppendU64(&body, Register(std::move(index)));
    AppendU64(&body, static_cast<uint64_t>(num_runs));
    AppendU64(&body, static_cast<uint64_t>(total_items));
    return OkResponse(body);
  }

  // --- Registry -----------------------------------------------------------

  // Adds an index to the artifact registry under a fresh id.
  uint64_t Register(ProvenanceIndex index) FVL_EXCLUDES(state_mu_) {
    auto shared = std::make_shared<const ProvenanceIndex>(std::move(index));
    MutexLock lock(&state_mu_);
    const uint64_t id = next_artifact_id_++;
    artifacts_[id] = std::move(shared);
    return id;
  }

  // What a query op's header names: the view and the index it queries.
  struct QueryTarget {
    ViewHandle view;
    std::shared_ptr<const ProvenanceIndex> index;
  };

  Result<QueryTarget> LookupTarget(const QueryHeader& header)
      FVL_EXCLUDES(state_mu_) {
    MutexLock lock(&state_mu_);
    if (header.view_id >= views_.size()) {
      return NotFound("view", header.view_id);
    }
    auto it = artifacts_.find(header.index_id);
    if (it == artifacts_.end()) return NotFound("index", header.index_id);
    return QueryTarget{views_[header.view_id], it->second};
  }

  std::shared_ptr<SessionEntry> LookupSession(uint64_t session_id)
      FVL_EXCLUDES(state_mu_) {
    MutexLock lock(&state_mu_);
    auto it = sessions_.find(session_id);
    return it == sessions_.end() ? nullptr : it->second;
  }

  std::shared_ptr<const ProvenanceIndex> LookupArtifact(uint64_t id)
      FVL_EXCLUDES(state_mu_) {
    MutexLock lock(&state_mu_);
    auto it = artifacts_.find(id);
    return it == artifacts_.end() ? nullptr : it->second;
  }

  // --- State --------------------------------------------------------------

  std::shared_ptr<ProvenanceService> service_;
  Socket listener_;
  int port_;

  std::thread acceptor_;
  std::thread batcher_;
  std::atomic<bool> stopping_{false};
  Mutex stop_mu_;  // serializes concurrent Stop calls

  mutable Mutex conns_mu_;  // mutable: connection_slots() reads under it
  std::vector<std::unique_ptr<Connection>> connections_
      FVL_GUARDED_BY(conns_mu_);

  // Wire-visible registries. Mutable: the const stats() reader walks the
  // artifact map under it to aggregate cache counters.
  mutable Mutex state_mu_;
  std::vector<ViewHandle> views_ FVL_GUARDED_BY(state_mu_);
  std::unordered_map<uint64_t, std::shared_ptr<SessionEntry>> sessions_
      FVL_GUARDED_BY(state_mu_);
  // Every index the wire can name — snapshots, deltas, merges, mapped
  // files, compactions — under one id space; any id answers on every
  // query op.
  std::unordered_map<uint64_t, std::shared_ptr<const ProvenanceIndex>>
      artifacts_ FVL_GUARDED_BY(state_mu_);
  uint64_t next_session_id_ FVL_GUARDED_BY(state_mu_) = 1;
  uint64_t next_artifact_id_ FVL_GUARDED_BY(state_mu_) = 1;

  // Coalescing queue.
  Mutex batch_mu_;
  CondVar batch_cv_;  // wakes the batcher
  CondVar done_cv_;   // wakes waiting connection threads
  std::vector<PointQuery*> queue_ FVL_GUARDED_BY(batch_mu_);
  bool batch_stopping_ FVL_GUARDED_BY(batch_mu_) = false;

  std::atomic<uint64_t> point_queries_{0};
  std::atomic<uint64_t> point_batches_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> reads_spun_{0};
  std::atomic<uint64_t> reads_parked_{0};
};

ProvenanceServer::ProvenanceServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ProvenanceServer::~ProvenanceServer() { Stop(); }

Result<std::unique_ptr<ProvenanceServer>> ProvenanceServer::Start(
    std::shared_ptr<ProvenanceService> service, const ServerOptions& options) {
  FVL_CHECK(service != nullptr);
  Result<Socket> listener = TcpListen(options.port, options.backlog);
  if (!listener.ok()) return listener.status();
  Result<int> port = LocalPort(*listener);
  if (!port.ok()) return port.status();
  auto impl = std::make_unique<Impl>(std::move(service),
                                     std::move(listener).value(), *port);
  impl->StartThreads();
  return std::unique_ptr<ProvenanceServer>(
      new ProvenanceServer(std::move(impl)));
}

int ProvenanceServer::port() const { return impl_->port(); }

int ProvenanceServer::connection_slots() const {
  return impl_->connection_slots();
}

void ProvenanceServer::Stop() { impl_->Stop(); }

ServerStats ProvenanceServer::stats() const { return impl_->stats(); }

}  // namespace fvl::net
