// One layout sample of the repository benchmark.
//
// The process starts a ProvenanceServer in-process, drives it over loopback
// from closed-loop client threads, checks every answer against the
// one-at-a-time in-process path (ProvenanceIndex::Label + Decoder::Depends)
// outside the timed region, and prints one JSON line of raw samples on
// stdout. run.py starts several of these processes one after another per
// run — each a fresh address-space layout — and pools their samples into
// the reported metrics. NOTES.md describes the workloads and every metric.
//
//   fvlbench --workload query_uniform --seed 1 --seconds 2 --trace 0
//            --workdir DIR [--trace-out FILE]
//
// Phases of one process:
//   setup   server start, view registration, the 64K-item served run
//           replayed over the wire and snapshotted, L0 archives written,
//           the ingest run pool generated, warm-up traffic;
//   main    the workload's own closed loop, for --seconds (with --trace 1:
//           half untraced, half traced, so tracing overhead is measured in
//           the same layout);
//   probe   a fixed amount of the *other* traffic kind — an ingest probe on
//           the query workloads, read-back query windows on ingest_archive —
//           so every workload reports every metric (NOTES.md says which
//           workload each metric is meant to be watched on).
//
// Tracing keeps spans in memory and writes them at exit. Spans are taken
// from this file only, around calls into the library's public functions:
// each traced query window is replayed against an in-process replica of the
// served index (own service, own serving cache), and each traced ingest
// step against a replica session plus a bare RunLabeler, so the replays
// never warm the served state.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fvl/core/decoder.h"
#include "fvl/core/index.h"
#include "fvl/core/label_store.h"
#include "fvl/core/run_labeler.h"
#include "fvl/net/client.h"
#include "fvl/net/server.h"
#include "fvl/run/run.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/blob_source.h"
#include "fvl/util/file.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/key_generator.h"
#include "fvl/workload/view_generator.h"

namespace fvl::fvlbench {
namespace {

using Clock = std::chrono::steady_clock;
using net::MergeInfo;
using net::ProvenanceClient;
using net::ProvenanceServer;
using net::ServerStats;
using net::SnapshotInfo;

constexpr ViewLabelMode kMode = ViewLabelMode::kQueryEfficient;
constexpr int kWindow = 512;          // pipelined point queries per window
constexpr int kClients = 2;           // client connections in the main loop
constexpr int kServedItems = 1 << 16; // served heap snapshot (target items)
constexpr int kL0Runs = 8;            // archives each compaction folds
constexpr int kL0Items = 1 << 13;     // target items per L0 archive
constexpr int kIngestItems = 1 << 12; // target items per ingested run
constexpr int kIngestPool = 16;       // distinct ingested runs, cycled
constexpr int kDeltaEvery = 64;       // kApply steps per kSnapshotDelta
constexpr int kCompactEvery = 8;      // ingested runs per compaction
// Ingested runs per client per measured second. Ingest is fixed work rather
// than a deadline: the server keeps every session and snapshot, so its
// memory grows with the runs ingested, and a faster build must not read as
// a peak_rss_mb regression. 16 runs/s is a little under the seed's rate.
constexpr double kIngestRunsPerSecond = 16;
constexpr int kWarmupWindows = 6;     // per client, query_zipfian
// Ingest probe on the query workloads: runs per client, with the two
// clients of ingest_archive (a single client's kApply round trip swings
// between two latency modes from process to process).
constexpr int kProbeRuns = 6;
constexpr int kProbeCompactEvery = 2;
// The read-back probe on ingest_archive uses one client: with two, windows
// alternate between sharing a batch and queueing behind each other, which
// makes its p50 flip between two modes from run to run.
constexpr int kReadBackWindows = 16;

volatile uint64_t g_sink = 0;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// --- Tracing ----------------------------------------------------------------

// One span: a timed call at a layer boundary. `group` is shared by every
// span of one window or step; `parent` is the span id of the blocking-path
// span the call is attributed to (-1 for roots).
struct Span {
  const char* name;
  double start_us;
  double end_us;
  int64_t id;
  int64_t parent;
  uint64_t group;
};

Clock::time_point g_epoch = Clock::now();

class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}

  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, uint64_t group) {
    int64_t id = (static_cast<int64_t>(thread_) << 40) |
                 static_cast<int64_t>(spans_.size());
    spans_.push_back({name, MicrosBetween(g_epoch, start),
                      MicrosBetween(g_epoch, end), id, parent, group});
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  std::vector<Span> spans_;
};

// Per-layer sums over traced query windows. The replay's core children run
// on every distinct item and pair of the window; the service call only
// decodes label-cache misses and evaluates memo misses, so the blocking-path
// attribution scales them by the replica cache's miss counts.
struct QueryTrace {
  int64_t windows = 0;
  int64_t queries = 0;
  int64_t distinct = 0;
  double window_us = 0;     // client: flush -> last answer
  double batch_us = 0;      // service: DependsMany replay
  double cursor_us = 0;     // core: SpanCursor::DecodeAt, visiting order
  double random_us = 0;     // core: LabelStore::DecodeLabel, same items
  double predicate_us = 0;  // core: Decoder::Depends, every pair
  double cursor_attr_us = 0;
  double predicate_attr_us = 0;

  void Add(const QueryTrace& o) {
    windows += o.windows;
    queries += o.queries;
    distinct += o.distinct;
    window_us += o.window_us;
    batch_us += o.batch_us;
    cursor_us += o.cursor_us;
    random_us += o.random_us;
    predicate_us += o.predicate_us;
    cursor_attr_us += o.cursor_attr_us;
    predicate_attr_us += o.predicate_attr_us;
  }
};

struct IngestTrace {
  int64_t steps = 0;
  double apply_rtt_us = 0;      // client: kApply round trip
  double service_apply_us = 0;  // service: ProvenanceSession::Apply replay
  double core_apply_us = 0;     // core: RunLabeler::OnApply replay
  int64_t deltas = 0;
  double delta_us = 0;          // core: RunLabeler::FreezeDelta replay
  int64_t compactions = 0;
  double compact_service_ms = 0;  // service: CompactFiles replay
  double map_ms = 0;              // util: BlobSource::MapFile
  int64_t sweep_items = 0;
  double sweep_decode_us = 0;     // core: sequential cursor over the mapping
  int64_t label_bits = 0;         // core: arena bits of the compacted store
  int64_t label_items = 0;

  void Add(const IngestTrace& o) {
    steps += o.steps;
    apply_rtt_us += o.apply_rtt_us;
    service_apply_us += o.service_apply_us;
    core_apply_us += o.core_apply_us;
    deltas += o.deltas;
    delta_us += o.delta_us;
    compactions += o.compactions;
    compact_service_ms += o.compact_service_ms;
    map_ms += o.map_ms;
    sweep_items += o.sweep_items;
    sweep_decode_us += o.sweep_decode_us;
    label_bits += o.label_bits;
    label_items += o.label_items;
  }
};

// --- Shared state built by setup --------------------------------------------

struct IngestRun {
  std::shared_ptr<ProvenanceSession> reference;  // steps to replay
  ProvenanceIndex snapshot;                      // expected final index
};

// A served index plus its in-process replica (same labels, own cache).
struct QueryTarget {
  uint64_t index_id = 0;
  const ProvenanceIndex* replica = nullptr;
  std::vector<int> hot_order;  // rank -> item for zipfian keys
};

struct Env {
  std::string workdir;
  uint64_t seed = 0;
  std::shared_ptr<ProvenanceService> service;  // served by the server
  ViewHandle view;                             // its handle on `service`
  const Decoder* decoder = nullptr;            // expected-answer oracle
  std::unique_ptr<ProvenanceServer> server;
  uint64_t view_id = 0;                        // wire id of the view

  // Replica side, used only by traced replays.
  std::shared_ptr<ProvenanceService> replica_service;
  ViewHandle replica_view;
  const Decoder* replica_decoder = nullptr;
  std::mutex replay_mu;  // replays share the replica's cache counters

  std::optional<ProvenanceIndex> served_replica;
  QueryTarget served;

  std::vector<std::string> l0_paths;
  int l0_items = 0;
  std::vector<bool> l0_visible;

  std::vector<IngestRun> pool;
  std::vector<std::atomic<uint64_t>> pool_index_ids =
      std::vector<std::atomic<uint64_t>>(kIngestPool);
};

// --- Outcome accumulators ------------------------------------------------------

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few, for the log

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Add(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& e : o.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

struct WindowRecord {
  const QueryTarget* target;
  std::vector<std::pair<int, int>> pairs;
  std::vector<int8_t> answers;  // 0/1, -1 for an error frame
};

struct QueryOutcome {
  Outcome ops;
  int64_t queries = 0;
  double seconds = 0;
  std::vector<double> latency_us;
  std::vector<WindowRecord> windows;
  QueryTrace trace;
  std::vector<Span> spans;
  ServerStats stats_delta;
};

struct IngestOutcome {
  Outcome ops;
  int64_t items = 0;
  double seconds = 0;
  std::vector<double> apply_us;
  std::vector<double> compact_ms;
  int64_t sweep_items = 0;
  double sweep_us = 0;
  int64_t archive_bytes = 0;
  int64_t archive_items = 0;
  IngestTrace trace;
  std::vector<Span> spans;
};

ServerStats Delta(const ServerStats& after, const ServerStats& before) {
  auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : a; };
  ServerStats d;
  d.point_queries = sub(after.point_queries, before.point_queries);
  d.point_batches = sub(after.point_batches, before.point_batches);
  d.frames = sub(after.frames, before.frames);
  d.connections = sub(after.connections, before.connections);
  d.label_hits = sub(after.label_hits, before.label_hits);
  d.label_misses = sub(after.label_misses, before.label_misses);
  d.reach_hits = sub(after.reach_hits, before.reach_hits);
  d.reach_misses = sub(after.reach_misses, before.reach_misses);
  return d;
}

// --- Query windows --------------------------------------------------------------

struct QueryPlan {
  int clients = kClients;
  std::vector<const QueryTarget*> targets;  // window w uses targets[w % n]
  KeyDistribution dist = KeyDistribution::kUniform;
  uint64_t stream = 0;         // key stream salt
  Clock::time_point deadline;  // time-bound when windows_per_client == 0
  int windows_per_client = 0;
  bool trace = false;
};

// Replays one window in-process against the target's replica and adds its
// per-layer times, with spans parented to the window's span.
void ReplayWindow(Env& env, const WindowRecord& record, int64_t window_span,
                  uint64_t group, SpanLog* log, QueryTrace* trace) {
  const ProvenanceIndex& replica = *record.target->replica;
  const LabelStore& store = replica.store();

  // Distinct items in the order BatchDepends' sparse branch visits them.
  std::unordered_map<int, int> slot;
  std::vector<int> order;
  std::vector<std::pair<int, int>> slots;
  slots.reserve(record.pairs.size());
  for (const auto& [d1, d2] : record.pairs) {
    auto a = slot.try_emplace(d1, static_cast<int>(order.size()));
    if (a.second) order.push_back(d1);
    auto b = slot.try_emplace(d2, static_cast<int>(order.size()));
    if (b.second) order.push_back(d2);
    slots.push_back({a.first->second, b.first->second});
  }

  std::lock_guard<std::mutex> lock(env.replay_mu);
  ServingCacheStats before = replica.serving_cache()->stats();
  Clock::time_point t0 = Clock::now();
  Result<std::vector<bool>> batch = env.replica_service->DependsMany(
      env.replica_view, replica, record.pairs, kMode);
  Clock::time_point t1 = Clock::now();
  ServingCacheStats after = replica.serving_cache()->stats();
  FVL_CHECK(batch.ok());

  std::vector<DataLabel> labels(order.size());
  Clock::time_point t2 = Clock::now();
  {
    LabelStore::SpanCursor cursor(store);
    for (size_t i = 0; i < order.size(); ++i) {
      labels[i] = cursor.DecodeAt(order[i]);
    }
  }
  Clock::time_point t3 = Clock::now();
  uint64_t sink = 0;
  for (int item : order) sink += store.DecodeLabel(item).producer.has_value();
  Clock::time_point t4 = Clock::now();
  std::vector<char> answers(slots.size());
  for (size_t q = 0; q < slots.size(); ++q) {
    answers[q] = env.replica_decoder->Depends(labels[slots[q].first],
                                              labels[slots[q].second]);
  }
  Clock::time_point t5 = Clock::now();
  for (size_t q = 0; q < slots.size(); ++q) {
    FVL_CHECK(static_cast<bool>(answers[q]) == (*batch)[q]);
  }
  g_sink = g_sink + sink;

  const double n_items = static_cast<double>(order.size());
  const double n_pairs = static_cast<double>(slots.size());
  const uint64_t decodes = after.label_misses - before.label_misses;
  const uint64_t evals = after.reach_misses - before.reach_misses;
  const double cursor = MicrosBetween(t2, t3);
  const double predicate = MicrosBetween(t4, t5);
  trace->queries += static_cast<int64_t>(slots.size());
  trace->distinct += static_cast<int64_t>(order.size());
  trace->batch_us += MicrosBetween(t0, t1);
  trace->cursor_us += cursor;
  trace->random_us += MicrosBetween(t3, t4);
  trace->predicate_us += predicate;
  trace->cursor_attr_us += cursor * std::min(1.0, decodes / n_items);
  trace->predicate_attr_us += predicate * std::min(1.0, evals / n_pairs);

  int64_t batch_span =
      log->Add("service.DependsMany", t0, t1, window_span, group);
  log->Add("core.SpanCursor.DecodeAt", t2, t3, batch_span, group);
  log->Add("core.LabelStore.DecodeLabel", t3, t4, -1, group);
  log->Add("core.Decoder.Depends", t4, t5, batch_span, group);
}

void QueryClient(Env& env, const QueryPlan& plan, int client_index,
                 QueryOutcome* out) {
  Result<ProvenanceClient> client = ProvenanceClient::Connect(
      env.server->port());
  if (!client.ok()) {
    out->ops.Fail("connect: " + client.status().ToString());
    return;
  }
  Rng rng(env.seed * 1000003 + plan.stream * 101 + client_index);
  std::vector<KeyGenerator> keys;
  for (const QueryTarget* target : plan.targets) {
    keys.emplace_back(plan.dist, target->replica->num_items());
  }
  SpanLog log(client_index + 1);
  for (int w = 0;; ++w) {
    if (plan.windows_per_client > 0 ? w >= plan.windows_per_client
                                    : Clock::now() >= plan.deadline) {
      break;
    }
    const size_t t = static_cast<size_t>(w) % plan.targets.size();
    const QueryTarget& target = *plan.targets[t];
    WindowRecord record{&target, {}, {}};
    record.pairs.reserve(kWindow);
    record.answers.reserve(kWindow);
    for (int i = 0; i < kWindow; ++i) {
      int a = static_cast<int>(keys[t].Next(rng));
      int b = static_cast<int>(keys[t].Next(rng));
      if (!target.hot_order.empty()) {
        a = target.hot_order[a];
        b = target.hot_order[b];
      }
      record.pairs.push_back({a, b});
      client->QueueDepends(env.view_id, target.index_id, kMode,
                           static_cast<uint64_t>(a), static_cast<uint64_t>(b));
    }
    Clock::time_point flushed_at = Clock::now();
    out->ops.attempted += kWindow;
    if (Status flushed = client->Flush(); !flushed.ok()) {
      out->ops.Fail("flush: " + flushed.ToString());
      return;
    }
    Clock::time_point last = flushed_at;
    for (int i = 0; i < kWindow; ++i) {
      Result<bool> answer = client->NextDependsAnswer();
      last = Clock::now();
      if (!answer.ok()) {
        out->ops.Fail("depends: " + answer.status().ToString());
        if (answer.code() == ErrorCode::kUnavailable) return;
        record.answers.push_back(-1);
      } else {
        record.answers.push_back(*answer ? 1 : 0);
      }
      out->latency_us.push_back(MicrosBetween(flushed_at, last));
    }
    out->queries += kWindow;
    if (plan.trace) {
      const uint64_t group =
          (static_cast<uint64_t>(client_index + 1) << 32) | static_cast<uint64_t>(w);
      int64_t window_span = log.Add("net.window", flushed_at, last, -1, group);
      out->trace.windows += 1;
      out->trace.window_us += MicrosBetween(flushed_at, last);
      ReplayWindow(env, record, window_span, group, &log, &out->trace);
    }
    out->windows.push_back(std::move(record));
  }
  out->spans = log.spans();
}

QueryOutcome RunQueries(Env& env, const QueryPlan& plan) {
  ServerStats before = env.server->stats();
  std::vector<QueryOutcome> per_client(plan.clients);
  Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < plan.clients; ++c) {
      threads.emplace_back(
          [&env, &plan, &per_client, c] { QueryClient(env, plan, c, &per_client[c]); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  QueryOutcome total;
  total.seconds = MicrosBetween(start, Clock::now()) / 1e6;
  total.stats_delta = Delta(env.server->stats(), before);
  for (QueryOutcome& o : per_client) {
    total.ops.Add(o.ops);
    total.queries += o.queries;
    total.latency_us.insert(total.latency_us.end(), o.latency_us.begin(),
                            o.latency_us.end());
    for (WindowRecord& w : o.windows) total.windows.push_back(std::move(w));
    total.trace.Add(o.trace);
    total.spans.insert(total.spans.end(), o.spans.begin(), o.spans.end());
  }
  return total;
}

// Brings a replica's serving cache to the state the served index reached
// on the same windows, so traced replays see comparable hit rates.
void WarmReplicas(Env& env, const QueryOutcome& outcome) {
  for (const WindowRecord& record : outcome.windows) {
    FVL_CHECK(env.replica_service
                  ->DependsMany(env.replica_view, *record.target->replica,
                                record.pairs, kMode)
                  .ok());
  }
}

// Expected answers through the one-at-a-time path, outside timed regions.
void CheckWindows(const Env& env, QueryOutcome* outcome) {
  for (const WindowRecord& record : outcome->windows) {
    const ProvenanceIndex& replica = *record.target->replica;
    for (size_t q = 0; q < record.pairs.size(); ++q) {
      if (record.answers[q] < 0) continue;  // already counted as failed
      const auto [d1, d2] = record.pairs[q];
      bool expected =
          env.decoder->Depends(replica.Label(d1), replica.Label(d2));
      if (expected != (record.answers[q] == 1)) {
        outcome->ops.Fail("wrong answer for (" + std::to_string(d1) + ", " +
                          std::to_string(d2) + ")");
      }
    }
  }
  outcome->windows.clear();
}

// --- Ingest ----------------------------------------------------------------------

struct IngestPlan {
  int clients = kClients;
  int runs_per_client = 1;
  int compact_every = kCompactEvery;
  bool trace = false;
};

// One compaction cycle over the wire plus an in-process sweep of the mapped
// result; checks item counts and visibility against the heap indexes.
void CompactCycle(Env& env, ProvenanceClient* client, bool trace,
                  const std::string& output, SpanLog* log, IngestOutcome* out) {
  out->ops.attempted += 3;
  Clock::time_point t0 = Clock::now();
  Result<MergeInfo> compacted = client->CompactFiles(env.l0_paths, output);
  Clock::time_point t1 = Clock::now();
  if (!compacted.ok()) {
    out->ops.Fail("compact: " + compacted.status().ToString());
    return;
  }
  if (compacted->num_runs != kL0Runs || compacted->total_items != env.l0_items) {
    out->ops.Fail("compaction shape mismatch");
  }
  out->compact_ms.push_back(MicrosBetween(t0, t1) / 1000.0);
  Result<MergeInfo> opened = client->OpenMergedIndexFile(output);
  if (!opened.ok() || opened->total_items != env.l0_items) {
    out->ops.Fail("open merged: " +
                  (opened.ok() ? std::string("item count") : opened.status().ToString()));
  }
  // The wire sweep resolves single-run ids only, so the archive is swept
  // through the served service directly, off its mapped pages.
  Result<MergedProvenanceIndex> mapped = env.service->OpenMergedIndexFile(output);
  if (!mapped.ok()) {
    out->ops.Fail("map merged: " + mapped.status().ToString());
    return;
  }
  Clock::time_point t2 = Clock::now();
  Result<std::vector<bool>> visible =
      env.service->VisibilitySweep(env.view, *mapped, kMode);
  Clock::time_point t3 = Clock::now();
  if (!visible.ok() || *visible != env.l0_visible) {
    out->ops.Fail("sweep mismatch");
  }
  out->sweep_items += mapped->total_items();
  out->sweep_us += MicrosBetween(t2, t3);
  out->archive_bytes += static_cast<int64_t>(std::filesystem::file_size(output));
  out->archive_items += mapped->total_items();

  if (trace) {
    const uint64_t group = 1ull << 62 | static_cast<uint64_t>(out->trace.compactions);
    int64_t root = log->Add("net.CompactFiles", t0, t1, -1, group);
    std::string replay = output + ".replay";
    Clock::time_point r0 = Clock::now();
    Result<MergedProvenanceIndex> again =
        env.replica_service->CompactFiles(env.l0_paths, replay);
    Clock::time_point r1 = Clock::now();
    FVL_CHECK(again.ok() && again->total_items() == env.l0_items);
    log->Add("service.CompactFiles", r0, r1, root, group);
    std::filesystem::remove(replay);

    Clock::time_point m0 = Clock::now();
    Result<BlobSource> source = BlobSource::MapFile(output);
    Clock::time_point m1 = Clock::now();
    FVL_CHECK(source.ok());
    log->Add("util.BlobSource.MapFile", m0, m1, -1, group);

    Result<MergedProvenanceIndex> archive = MergedProvenanceIndex::Map(output);
    FVL_CHECK(archive.ok());
    const LabelStore& store = archive->store();
    Clock::time_point s0 = Clock::now();
    uint64_t sink = 0;
    {
      LabelStore::SpanCursor cursor(store);
      for (int item = 0; item < store.total_items(); ++item) {
        sink += cursor.DecodeAt(item).consumer.has_value();
      }
    }
    Clock::time_point s1 = Clock::now();
    g_sink = g_sink + sink;
    log->Add("core.SpanCursor.sweep", s0, s1, -1, group);

    IngestTrace& t = out->trace;
    t.compactions += 1;
    t.compact_service_ms += MicrosBetween(r0, r1) / 1000.0;
    t.map_ms += MicrosBetween(m0, m1) / 1000.0;
    t.sweep_items += store.total_items();
    t.sweep_decode_us += MicrosBetween(s0, s1);
    t.label_bits += store.arena_bits();
    t.label_items += store.total_items();
  }
  std::filesystem::remove(output);
}

void IngestClient(Env& env, const IngestPlan& plan, int client_index,
                  IngestOutcome* out) {
  Result<ProvenanceClient> client = ProvenanceClient::Connect(
      env.server->port());
  if (!client.ok()) {
    out->ops.Fail("connect: " + client.status().ToString());
    return;
  }
  SpanLog log(client_index + 1);
  int next = client_index;
  int runs = 0;
  while (runs < plan.runs_per_client) {
    const int pool_index = next % kIngestPool;
    next += plan.clients;
    const IngestRun& ingest = env.pool[pool_index];
    const Run& run = ingest.reference->run();

    out->ops.attempted += 1;
    Result<uint64_t> session = client->BeginRun();
    if (!session.ok()) {
      out->ops.Fail("begin run: " + session.status().ToString());
      return;
    }
    // Traced replays: a replica session (service layer) and a bare labeler
    // over its own run (core layer), fed the same steps.
    std::shared_ptr<ProvenanceSession> replica_session;
    std::unique_ptr<Run> core_run;
    std::unique_ptr<RunLabeler> labeler;
    if (plan.trace) {
      replica_session = env.replica_service->BeginRun();
      core_run = std::make_unique<Run>(&env.replica_service->grammar());
      labeler = std::make_unique<RunLabeler>(env.replica_service->MakeRunLabeler());
      labeler->OnStart(*core_run);
    }
    bool broken = false;
    for (int s = 0; s < run.num_steps() && !broken; ++s) {
      const DerivationStep& step = run.step(s);
      out->ops.attempted += 1;
      Clock::time_point t0 = Clock::now();
      Result<DerivationStep> applied =
          client->Apply(*session, static_cast<uint64_t>(step.instance),
                        static_cast<uint64_t>(step.production));
      Clock::time_point t1 = Clock::now();
      if (!applied.ok()) {
        out->ops.Fail("apply: " + applied.status().ToString());
        broken = true;
        break;
      }
      if (applied->index != step.index || applied->first_item != step.first_item ||
          applied->num_items != step.num_items ||
          applied->first_child != step.first_child) {
        out->ops.Fail("apply step mismatch");
      }
      out->apply_us.push_back(MicrosBetween(t0, t1));
      const uint64_t group = (static_cast<uint64_t>(client_index + 1) << 48) |
                             (static_cast<uint64_t>(runs) << 20) |
                             static_cast<uint64_t>(s);
      if (plan.trace) {
        int64_t root = log.Add("net.apply", t0, t1, -1, group);
        Clock::time_point r0 = Clock::now();
        FVL_CHECK(replica_session->Apply(step.instance, step.production).ok());
        Clock::time_point r1 = Clock::now();
        const DerivationStep& core_step =
            core_run->Apply(step.instance, step.production);
        Clock::time_point r2 = Clock::now();
        labeler->OnApply(*core_run, core_step);
        Clock::time_point r3 = Clock::now();
        int64_t service_span =
            log.Add("service.ProvenanceSession.Apply", r0, r1, root, group);
        log.Add("core.RunLabeler.OnApply", r2, r3, service_span, group);
        out->trace.steps += 1;
        out->trace.apply_rtt_us += MicrosBetween(t0, t1);
        out->trace.service_apply_us += MicrosBetween(r0, r1);
        out->trace.core_apply_us += MicrosBetween(r2, r3);
      }
      if ((s + 1) % kDeltaEvery == 0) {
        out->ops.attempted += 1;
        Result<SnapshotInfo> delta = client->SnapshotDelta(*session);
        if (!delta.ok() ||
            delta->frozen_items != step.first_item + step.num_items) {
          out->ops.Fail("snapshot delta");
        }
        if (plan.trace) {
          Clock::time_point d0 = Clock::now();
          LabelStore frozen = labeler->FreezeDelta();
          Clock::time_point d1 = Clock::now();
          g_sink = g_sink + static_cast<uint64_t>(frozen.total_items());
          log.Add("core.RunLabeler.FreezeDelta", d0, d1, -1, group);
          out->trace.deltas += 1;
          out->trace.delta_us += MicrosBetween(d0, d1);
        }
      }
    }
    if (broken) return;
    out->ops.attempted += 1;
    Result<SnapshotInfo> final_snapshot = client->Snapshot(*session);
    if (!final_snapshot.ok() ||
        final_snapshot->num_items != ingest.snapshot.num_items()) {
      out->ops.Fail("final snapshot");
    } else {
      env.pool_index_ids[pool_index].store(final_snapshot->index_id);
    }
    out->items += run.num_items();
    ++runs;
    if (runs % plan.compact_every == 0) {
      std::string output = env.workdir + "/l1_c" + std::to_string(client_index) +
                           "_" + std::to_string(runs) + ".fvlmrg";
      CompactCycle(env, &*client, plan.trace, output, &log, out);
    }
  }
  out->spans = log.spans();
}

IngestOutcome RunIngest(Env& env, const IngestPlan& plan) {
  std::vector<IngestOutcome> per_client(plan.clients);
  Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < plan.clients; ++c) {
      threads.emplace_back([&env, &plan, &per_client, c] {
        IngestClient(env, plan, c, &per_client[c]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  IngestOutcome total;
  total.seconds = MicrosBetween(start, Clock::now()) / 1e6;
  for (IngestOutcome& o : per_client) {
    total.ops.Add(o.ops);
    total.items += o.items;
    total.apply_us.insert(total.apply_us.end(), o.apply_us.begin(), o.apply_us.end());
    total.compact_ms.insert(total.compact_ms.end(), o.compact_ms.begin(),
                            o.compact_ms.end());
    total.sweep_items += o.sweep_items;
    total.sweep_us += o.sweep_us;
    total.archive_bytes += o.archive_bytes;
    total.archive_items += o.archive_items;
    total.trace.Add(o.trace);
    total.spans.insert(total.spans.end(), o.spans.begin(), o.spans.end());
  }
  return total;
}

// --- Setup -------------------------------------------------------------------------

void WriteFile(const std::string& path, std::string_view bytes) {
  Result<FileHandle> file = FileHandle::CreateTruncate(path);
  FVL_CHECK(file.ok());
  FVL_CHECK(file->WriteAll(bytes).ok());
  FVL_CHECK(file->Close().ok());
}

// Everything setup_s covers; returns false (with a message) on a wire error.
bool Setup(Env& env, KeyDistribution dist, std::string* error) {
  Workload bioaid = MakeBioAid(2012);
  // The paper's medium grey-box view over BioAID (§6.3), as in the YCSB bench.
  ViewGeneratorOptions view_options;
  view_options.num_expandable = 8;
  view_options.deps = PerceivedDeps::kGreyBox;
  view_options.seed = 8;
  View view = GenerateSafeView(bioaid, view_options).view();

  env.service = ProvenanceService::Create(bioaid.spec).value();
  env.view = env.service->RegisterView(view).value();
  env.decoder = env.service->DecoderOf(env.view, kMode).value();
  env.replica_service = ProvenanceService::Create(bioaid.spec).value();
  env.replica_view = env.replica_service->RegisterView(view).value();
  env.replica_decoder = env.replica_service->DecoderOf(env.replica_view, kMode).value();

  Result<std::unique_ptr<ProvenanceServer>> server =
      ProvenanceServer::Start(env.service);
  if (!server.ok()) {
    *error = "server start: " + server.status().ToString();
    return false;
  }
  env.server = std::move(server).value();
  Result<ProvenanceClient> setup = ProvenanceClient::Connect(env.server->port());
  if (!setup.ok()) {
    *error = "connect: " + setup.status().ToString();
    return false;
  }
  Result<uint64_t> view_id = setup->RegisterView(view);
  if (!view_id.ok()) {
    *error = "register view: " + view_id.status().ToString();
    return false;
  }
  env.view_id = *view_id;

  // The served run: generated in-process, replayed step by step over the
  // wire, snapshotted server-side. The in-process snapshot is the replica.
  std::shared_ptr<ProvenanceSession> reference = env.service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = kServedItems, .seed = env.seed});
  Result<uint64_t> session = setup->BeginRun();
  if (!session.ok()) {
    *error = "begin run: " + session.status().ToString();
    return false;
  }
  for (int s = 0; s < reference->run().num_steps(); ++s) {
    const DerivationStep& step = reference->run().step(s);
    Result<DerivationStep> applied =
        setup->Apply(*session, static_cast<uint64_t>(step.instance),
                     static_cast<uint64_t>(step.production));
    if (!applied.ok() || applied->first_item != step.first_item) {
      *error = "setup apply failed";
      return false;
    }
  }
  Result<SnapshotInfo> served = setup->Snapshot(*session);
  if (!served.ok() || served->num_items != reference->num_items()) {
    *error = "setup snapshot failed";
    return false;
  }
  env.served_replica = reference->Snapshot();
  env.served.index_id = served->index_id;
  env.served.replica = &*env.served_replica;
  if (dist == KeyDistribution::kZipfian) {
    // Hot ranks scattered over the item space, as a real skewed key set
    // would be, rather than packed at the start of the run.
    env.served.hot_order.resize(env.served_replica->num_items());
    for (int i = 0; i < env.served_replica->num_items(); ++i) {
      env.served.hot_order[i] = i;
    }
    Rng shuffle(env.seed ^ 0x5eedull);
    shuffle.Shuffle(env.served.hot_order);
  }

  // L0 archives (no fsync, as CompactFiles writes its output) and the
  // visibility every compacted sweep must reproduce.
  for (int i = 0; i < kL0Runs; ++i) {
    std::shared_ptr<ProvenanceSession> run = env.service->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = kL0Items,
                            .seed = env.seed * 131 + 1000 + i});
    ProvenanceIndex snapshot = run->Snapshot();
    std::string path = env.workdir + "/l0_" + std::to_string(i) + ".fvlidx";
    WriteFile(path, snapshot.Serialize());
    env.l0_paths.push_back(path);
    env.l0_items += snapshot.num_items();
    std::vector<bool> visible =
        env.service->VisibilitySweep(env.view, snapshot, kMode).value();
    env.l0_visible.insert(env.l0_visible.end(), visible.begin(), visible.end());
  }

  for (int i = 0; i < kIngestPool; ++i) {
    std::shared_ptr<ProvenanceSession> run = env.service->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = kIngestItems,
                            .seed = env.seed * 131 + 2000 + i});
    ProvenanceIndex snapshot = run->Snapshot();
    env.pool.push_back(IngestRun{std::move(run), std::move(snapshot)});
  }
  return true;
}

// --- Output --------------------------------------------------------------------------

class JsonLine {
 public:
  JsonLine& Num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return Raw(key, buf);
  }
  JsonLine& Int(const char* key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Str(const char* key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    return Raw(key, quoted + "\"");
  }
  JsonLine& Samples(const char* key, const std::vector<double>& values) {
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i == 0 ? "%.2f" : ",%.2f", values[i]);
      out += buf;
    }
    return Raw(key, out + "]");
  }
  JsonLine& Raw(const char* key, const std::string& value) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }
  std::string Finish() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

void AddQuery(JsonLine* json, const char* prefix, const QueryOutcome& q) {
  std::string p = prefix;
  json->Int((p + "queries").c_str(), q.queries)
      .Num((p + "seconds").c_str(), q.seconds)
      .Samples((p + "latency_us").c_str(), q.latency_us);
}

void AddQueryTrace(JsonLine* json, const QueryOutcome& q) {
  const QueryTrace& t = q.trace;
  const ServerStats& s = q.stats_delta;
  JsonLine inner;
  inner.Int("windows", t.windows)
      .Int("queries", t.queries)
      .Int("distinct", t.distinct)
      .Num("window_us", t.window_us)
      .Num("batch_us", t.batch_us)
      .Num("cursor_us", t.cursor_us)
      .Num("random_us", t.random_us)
      .Num("predicate_us", t.predicate_us)
      .Num("cursor_attr_us", t.cursor_attr_us)
      .Num("predicate_attr_us", t.predicate_attr_us)
      .Int("point_queries", static_cast<int64_t>(s.point_queries))
      .Int("point_batches", static_cast<int64_t>(s.point_batches))
      .Int("label_hits", static_cast<int64_t>(s.label_hits))
      .Int("label_misses", static_cast<int64_t>(s.label_misses))
      .Int("reach_hits", static_cast<int64_t>(s.reach_hits))
      .Int("reach_misses", static_cast<int64_t>(s.reach_misses));
  json->Raw("query_trace", inner.Finish());
}

void AddIngestTrace(JsonLine* json, const IngestOutcome& o) {
  const IngestTrace& t = o.trace;
  JsonLine inner;
  inner.Int("steps", t.steps)
      .Num("apply_rtt_us", t.apply_rtt_us)
      .Num("service_apply_us", t.service_apply_us)
      .Num("core_apply_us", t.core_apply_us)
      .Int("deltas", t.deltas)
      .Num("delta_us", t.delta_us)
      .Int("compactions", t.compactions)
      .Num("compact_service_ms", t.compact_service_ms)
      .Num("map_ms", t.map_ms)
      .Int("sweep_items", t.sweep_items)
      .Num("sweep_decode_us", t.sweep_decode_us)
      .Int("label_bits", t.label_bits)
      .Int("label_items", t.label_items)
      .Int("traced_items", o.items)
      .Num("traced_seconds", o.seconds);
  json->Raw("ingest_trace", inner.Finish());
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::string out;
  char buf[256];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"id\":%" PRId64 ",\"parent\":%" PRId64 ",\"group\":%" PRIu64 "}\n",
                  s.name, s.start_us, s.end_us, s.id, s.parent, s.group);
    out += buf;
  }
  WriteFile(path, out);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 2;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return (args->workload == "query_uniform" || args->workload == "query_zipfian" ||
          args->workload == "ingest_archive") &&
         !args->workdir.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fvlbench --workload query_uniform|query_zipfian|"
                 "ingest_archive --seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const bool ingest = args.workload == "ingest_archive";
  const KeyDistribution dist = args.workload == "query_zipfian"
                                   ? KeyDistribution::kZipfian
                                   : KeyDistribution::kUniform;

  Env env;
  env.workdir = args.workdir;
  env.seed = args.seed;
  Clock::time_point setup_start = Clock::now();
  std::string error;
  if (!Setup(env, dist, &error)) {
    std::fprintf(stderr, "setup failed: %s\n", error.c_str());
    return 1;
  }

  Outcome ops;
  // Warm-up: the workload's own traffic until the serving caches settle.
  if (ingest) {
    IngestPlan warm;
    warm.compact_every = 1;
    IngestOutcome w = RunIngest(env, warm);
    ops.Add(w.ops);
  } else {
    QueryPlan warm;
    warm.targets = {&env.served};
    warm.dist = dist;
    warm.stream = 1;
    // Uniform keys leave nothing for the caches to learn; one window per
    // client settles connections and page faults.
    warm.windows_per_client =
        dist == KeyDistribution::kZipfian ? kWarmupWindows : 1;
    QueryOutcome w = RunQueries(env, warm);
    if (args.trace) WarmReplicas(env, w);
    CheckWindows(env, &w);
    ops.Add(w.ops);
  }
  const double setup_s = MicrosBetween(setup_start, Clock::now()) / 1e6;

  JsonLine json;
  json.Str("workload", args.workload).Num("setup_s", setup_s);
  std::vector<Span> spans;
  // Main phase. With tracing, the first half runs untraced and the second
  // traced, so the overhead is a same-layout difference.
  const double main_seconds = args.trace ? args.seconds / 2 : args.seconds;
  auto deadline = [](double seconds) {
    return Clock::now() + std::chrono::microseconds(
                              static_cast<int64_t>(seconds * 1e6));
  };
  const int phases = args.trace ? 2 : 1;
  for (int phase = 0; phase < phases; ++phase) {
    const bool traced = args.trace && phase == 1;
    const char* prefix = args.trace ? (traced ? "traced_" : "untraced_") : "";
    if (ingest) {
      IngestPlan plan;
      // At least one compaction per client, however short the run.
      plan.runs_per_client = std::max(
          kCompactEvery,
          static_cast<int>(std::lround(main_seconds * kIngestRunsPerSecond)));
      plan.trace = traced;
      IngestOutcome o = RunIngest(env, plan);
      ops.Add(o.ops);
      std::string p = prefix;
      json.Int((p + "ingest_items").c_str(), o.items)
          .Num((p + "ingest_seconds").c_str(), o.seconds);
      if (!args.trace) {
        json.Samples("apply_us", o.apply_us)
            .Samples("compact_ms", o.compact_ms)
            .Int("sweep_items", o.sweep_items)
            .Num("sweep_us", o.sweep_us)
            .Int("archive_bytes", o.archive_bytes)
            .Int("archive_items", o.archive_items);
      }
      if (traced) {
        AddIngestTrace(&json, o);
        spans.insert(spans.end(), o.spans.begin(), o.spans.end());
      }
    } else {
      QueryPlan plan;
      plan.targets = {&env.served};
      plan.dist = dist;
      plan.stream = 2 + phase;
      plan.deadline = deadline(main_seconds);
      plan.trace = traced;
      QueryOutcome o = RunQueries(env, plan);
      CheckWindows(env, &o);
      ops.Add(o.ops);
      AddQuery(&json, prefix, o);
      if (traced) {
        AddQueryTrace(&json, o);
        spans.insert(spans.end(), o.spans.begin(), o.spans.end());
      }
    }
  }

  // Probe: the other traffic kind, fixed size, traced when tracing.
  if (ingest) {
    std::vector<QueryTarget> targets(kIngestPool);
    std::vector<const QueryTarget*> target_ptrs;
    for (int i = 0; i < kIngestPool; ++i) {
      targets[i].index_id = env.pool_index_ids[i].load();
      targets[i].replica = &env.pool[i].snapshot;
      if (targets[i].index_id != 0) target_ptrs.push_back(&targets[i]);
    }
    FVL_CHECK(!target_ptrs.empty());
    QueryPlan plan;
    plan.clients = 1;
    plan.targets = target_ptrs;
    plan.stream = 7;
    plan.windows_per_client = kReadBackWindows;
    plan.trace = args.trace;
    QueryOutcome o = RunQueries(env, plan);
    CheckWindows(env, &o);
    ops.Add(o.ops);
    if (args.trace) {
      AddQueryTrace(&json, o);
      spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    } else {
      AddQuery(&json, "", o);
    }
  } else {
    IngestPlan plan;
    plan.runs_per_client = kProbeRuns;
    plan.compact_every = kProbeCompactEvery;
    plan.trace = args.trace;
    IngestOutcome o = RunIngest(env, plan);
    ops.Add(o.ops);
    if (args.trace) {
      AddIngestTrace(&json, o);
      spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    } else {
      json.Int("ingest_items", o.items)
          .Num("ingest_seconds", o.seconds)
          .Samples("apply_us", o.apply_us)
          .Samples("compact_ms", o.compact_ms)
          .Int("sweep_items", o.sweep_items)
          .Num("sweep_us", o.sweep_us)
          .Int("archive_bytes", o.archive_bytes)
          .Int("archive_items", o.archive_items);
    }
  }

  env.server->Stop();
  WriteSpans(args.trace_out, spans);
  for (const std::string& e : ops.errors) {
    std::fprintf(stderr, "fvlbench: %s\n", e.c_str());
  }
  json.Num("peak_rss_mb", PeakRssMb())
      .Int("attempted", ops.attempted)
      .Int("failed", ops.failed);
  std::printf("%s\n", json.Finish().c_str());
  return 0;
}

}  // namespace
}  // namespace fvl::fvlbench

int main(int argc, char** argv) { return fvl::fvlbench::Main(argc, argv); }
