// fvl::net::ProvenanceServer: wire answers are bit-equal to direct
// in-process ProvenanceService calls. N threaded clients replay one
// recorded derivation over loopback and every response — apply echoes,
// snapshot shapes, point/batch/sweep/cross-run answers in all three
// ViewLabelModes — must match the reference computed without the network.
// Deterministic replay (same (instance, production) sequence → identical
// item ids) is what makes the comparison exact. Also under test: the
// cross-connection coalescing batcher (mean batch size > 1 under
// concurrent pipelined load) and its per-query error isolation, abrupt
// disconnects mid-frame,
// drain-on-shutdown (no torn frames, only clean answers or kUnavailable),
// an accept loop that outlives descriptor exhaustion, the single artifact
// id space, and compaction over a served archive.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "fvl/net/client.h"
#include "fvl/net/server.h"
#include "fvl/net/socket.h"
#include "fvl/net/wire.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/file.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/view_generator.h"

namespace fvl::net {
namespace {

constexpr ViewLabelMode kAllModes[] = {ViewLabelMode::kDefault,
                                       ViewLabelMode::kSpaceEfficient,
                                       ViewLabelMode::kQueryEfficient};

struct TestRig {
  std::shared_ptr<ProvenanceService> service;
  std::unique_ptr<ProvenanceServer> server;
  View view;

  static TestRig Make() {
    TestRig rig;
    Workload bio = MakeBioAid(2012);
    rig.view = GenerateSafeView(bio, ViewGeneratorOptions{
                                           .num_expandable = 8, .seed = 8})
                   .view();
    rig.service = ProvenanceService::Create(std::move(bio.spec)).value();
    rig.server = ProvenanceServer::Start(rig.service).value();
    return rig;
  }
};

// The recorded op sequence: (instance, production) per step, taken from a
// deterministic generated run.
std::vector<std::pair<int, int>> RecordOpSequence(ProvenanceService& service,
                                                  int target_items, int seed) {
  auto session = service.GenerateLabeledRun(
      RunGeneratorOptions{.target_items = target_items,
                          .seed = static_cast<uint64_t>(seed)});
  std::vector<std::pair<int, int>> ops;
  ops.reserve(session->run().num_steps());
  for (int i = 0; i < session->run().num_steps(); ++i) {
    const DerivationStep& step = session->run().step(i);
    ops.push_back({step.instance, step.production});
  }
  return ops;
}

std::vector<std::pair<int, int>> RandomQueries(int num_items, int count,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<int, int>> queries;
  queries.reserve(count);
  for (int q = 0; q < count; ++q) {
    queries.push_back(
        {rng.NextInt(0, num_items - 1), rng.NextInt(0, num_items - 1)});
  }
  return queries;
}

// ----- Single-client differential: every op, every mode. -----

TEST(ServerDifferential, WireAnswersBitEqualToDirectCalls) {
  TestRig rig = TestRig::Make();
  std::vector<std::pair<int, int>> ops =
      RecordOpSequence(*rig.service, /*target_items=*/400, /*seed=*/17);

  // Reference: direct in-process replay on the same service.
  ViewHandle direct_view = rig.service->RegisterView(rig.view).value();
  auto direct_session = rig.service->BeginRun();
  std::vector<DerivationStep> direct_steps;
  for (const auto& [instance, production] : ops) {
    direct_steps.push_back(
        direct_session->Apply(instance, production).value());
  }
  ProvenanceIndex direct_index = direct_session->Snapshot();

  // Wire: same replay through the server.
  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  uint64_t view_id = client.RegisterView(rig.view).value();
  uint64_t session_id = client.BeginRun().value();
  for (size_t i = 0; i < ops.size(); ++i) {
    DerivationStep wire_step =
        client.Apply(session_id, ops[i].first, ops[i].second).value();
    const DerivationStep& want = direct_steps[i];
    ASSERT_EQ(wire_step.index, want.index) << "step " << i;
    ASSERT_EQ(wire_step.instance, want.instance) << "step " << i;
    ASSERT_EQ(wire_step.production, want.production) << "step " << i;
    ASSERT_EQ(wire_step.first_child, want.first_child) << "step " << i;
    ASSERT_EQ(wire_step.first_item, want.first_item) << "step " << i;
    ASSERT_EQ(wire_step.num_items, want.num_items) << "step " << i;
  }
  SnapshotInfo snapshot = client.Snapshot(session_id).value();
  ASSERT_EQ(snapshot.num_items, direct_index.num_items());

  std::vector<std::pair<int, int>> queries =
      RandomQueries(direct_index.num_items(), 600, 99);
  for (ViewLabelMode mode : kAllModes) {
    std::vector<bool> direct_batch =
        rig.service->DependsMany(direct_view, direct_index, queries, mode)
            .value();
    std::vector<bool> wire_batch =
        client.DependsMany(view_id, snapshot.index_id, mode, queries).value();
    ASSERT_EQ(wire_batch, direct_batch) << "mode " << static_cast<int>(mode);

    std::vector<bool> direct_sweep =
        rig.service->VisibilitySweep(direct_view, direct_index, mode).value();
    std::vector<bool> wire_sweep =
        client.VisibilitySweep(view_id, snapshot.index_id, mode).value();
    ASSERT_EQ(wire_sweep, direct_sweep) << "mode " << static_cast<int>(mode);

    // Point queries through the coalescing path answer identically too.
    for (int q = 0; q < 40; ++q) {
      EXPECT_EQ(client
                    .Depends(view_id, snapshot.index_id, mode,
                             queries[q].first, queries[q].second)
                    .value(),
                direct_batch[q])
          << "q " << q;
    }
  }
}

TEST(ServerDifferential, SyncCallRefusedWhilePipelinedAnswersUnread) {
  // A synchronous call reads the next response frame as its own, so with
  // flushed pipelined answers still unread it would consume the oldest one
  // and misalign every later NextDependsAnswer. The client refuses the call
  // instead and sends nothing.
  TestRig rig = TestRig::Make();
  std::vector<std::pair<int, int>> ops =
      RecordOpSequence(*rig.service, /*target_items=*/200, /*seed=*/5);
  ViewHandle direct_view = rig.service->RegisterView(rig.view).value();
  auto direct_session = rig.service->BeginRun();
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(direct_session->Apply(instance, production).ok());
  }
  ProvenanceIndex direct_index = direct_session->Snapshot();

  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  uint64_t view_id = client.RegisterView(rig.view).value();
  uint64_t session_id = client.BeginRun().value();
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(client.Apply(session_id, instance, production).ok());
  }
  SnapshotInfo snapshot = client.Snapshot(session_id).value();

  std::vector<std::pair<int, int>> queries =
      RandomQueries(direct_index.num_items(), 3, 7);
  std::vector<bool> want =
      rig.service->DependsMany(direct_view, direct_index, queries).value();
  for (const auto& [d1, d2] : queries) {
    client.QueueDepends(view_id, snapshot.index_id,
                        ViewLabelMode::kQueryEfficient, d1, d2);
  }
  ASSERT_TRUE(client.Flush().ok());
  ASSERT_EQ(client.pending(), queries.size());

  Result<uint64_t> ping = client.Ping();
  ASSERT_FALSE(ping.ok());
  EXPECT_EQ(ping.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(client.RoundTripRaw(EncodePingRequest()).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_EQ(client.pending(), queries.size());

  for (size_t q = 0; q < queries.size(); ++q) {
    Result<bool> answer = client.NextDependsAnswer();
    ASSERT_TRUE(answer.ok()) << "query " << q << ": "
                             << answer.status().message();
    EXPECT_EQ(*answer, want[q]) << "query " << q;
  }
  EXPECT_EQ(client.Ping().value(), kProtocolVersion);
  // Had a refused call sent its frame, its stale reply would be read here.
  const ServerStats wire = client.Stats().value();
  EXPECT_EQ(wire.point_queries, queries.size());
  // kStats carries every named counter as the server holds it (no frame
  // arrives between the two reads).
  const ServerStats local = rig.server->stats();
  for (const auto& [name, field] : kStatsFields) {
    EXPECT_EQ(wire.*field, local.*field) << name;
  }
  EXPECT_EQ(wire.reach_misses, queries.size());  // predicate_evaluations
}

// Every blocking read of a connection thread is counted once, as spun or
// parked: N synchronous kApply round trips raise the sum by at least N,
// and kStats carries both counters by name.
TEST(ServerStatsWire, EveryApplyReadIsSpunOrParked) {
  TestRig rig = TestRig::Make();
  std::vector<std::pair<int, int>> ops =
      RecordOpSequence(*rig.service, /*target_items=*/200, /*seed=*/5);
  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  uint64_t session_id = client.BeginRun().value();
  const ServerStats before = client.Stats().value();
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(client.Apply(session_id, instance, production).ok());
  }
  const ServerStats after = client.Stats().value();
  EXPECT_GE(after.reads_spun + after.reads_parked,
            before.reads_spun + before.reads_parked + ops.size());

  Result<std::string> frame = client.RoundTripRaw(EncodeStatsRequest());
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  std::vector<NamedCounter> counters;
  ASSERT_TRUE(DecodeStatsBody(ParseResponse(*frame).value(), &counters));
  int named = 0;
  for (const auto& [name, value] : counters) {
    named += name == "reads_spun" || name == "reads_parked";
  }
  EXPECT_EQ(named, 2);
}

// The batcher answers every (view, index, mode) group with one
// DependsMany, yet an out-of-range query must fail alone: it gets an
// error frame carrying the service's own message, and the queries that
// shared its pass get their answers.
TEST(ServerBatcher, OutOfRangePointQueryFailsAlone) {
  TestRig rig = TestRig::Make();
  std::vector<std::pair<int, int>> ops =
      RecordOpSequence(*rig.service, /*target_items=*/60, /*seed=*/3);
  ViewHandle direct_view = rig.service->RegisterView(rig.view).value();
  auto direct_session = rig.service->BeginRun();
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(direct_session->Apply(instance, production).ok());
  }
  ProvenanceIndex direct_index = direct_session->Snapshot();
  const int n = direct_index.num_items();

  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  uint64_t view_id = client.RegisterView(rig.view).value();
  uint64_t session_id = client.BeginRun().value();
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(client.Apply(session_id, instance, production).ok());
  }
  SnapshotInfo snapshot = client.Snapshot(session_id).value();
  ASSERT_EQ(snapshot.num_items, n);

  const std::vector<std::pair<int, int>> queries = {
      {0, 1}, {0, n}, {1, 2}, {n + 5, 0}, {2, 3}};
  // One flush: the server drains the whole burst into one batcher pass.
  for (const auto& [d1, d2] : queries) {
    client.QueueDepends(view_id, snapshot.index_id,
                        ViewLabelMode::kQueryEfficient, d1, d2);
  }
  ASSERT_TRUE(client.Flush().ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<std::pair<int, int>> one = {queries[q]};
    Result<std::vector<bool>> direct =
        rig.service->DependsMany(direct_view, direct_index, one);
    Result<bool> answer = client.NextDependsAnswer();
    if (direct.ok()) {
      ASSERT_TRUE(answer.ok()) << "query " << q << ": "
                               << answer.status().message();
      EXPECT_EQ(*answer, direct->front()) << "query " << q;
    } else {
      ASSERT_FALSE(answer.ok()) << "query " << q;
      EXPECT_EQ(answer.code(), direct.code()) << "query " << q;
      EXPECT_EQ(answer.status().message(), direct.status().message())
          << "query " << q;
    }
  }
}

// A merged index answers flat ids (GlobalId) over the wire exactly as in
// process: same-run pairs as that run's own snapshot, cross-run pairs
// false.
TEST(ServerDifferential, MergeAndCrossRunQueriesMatchDirect) {
  TestRig rig = TestRig::Make();
  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  uint64_t view_id = client.RegisterView(rig.view).value();
  ViewHandle direct_view = rig.service->RegisterView(rig.view).value();

  // Two runs, both replayed over the wire and directly.
  std::vector<uint64_t> wire_index_ids;
  std::vector<std::string> blobs;
  std::vector<ProvenanceIndex> direct_runs;
  for (int seed : {21, 22}) {
    std::vector<std::pair<int, int>> ops =
        RecordOpSequence(*rig.service, /*target_items=*/200, seed);
    uint64_t session_id = client.BeginRun().value();
    auto direct_session = rig.service->BeginRun();
    for (const auto& [instance, production] : ops) {
      ASSERT_TRUE(client.Apply(session_id, instance, production).ok());
      ASSERT_TRUE(direct_session->Apply(instance, production).ok());
    }
    SnapshotInfo snapshot = client.Snapshot(session_id).value();
    wire_index_ids.push_back(snapshot.index_id);
    ProvenanceIndex direct_index = direct_session->Snapshot();
    ASSERT_EQ(snapshot.num_items, direct_index.num_items());
    blobs.push_back(direct_index.Serialize());
    direct_runs.push_back(std::move(direct_index));
  }

  MergeInfo merged = client.MergeRuns(wire_index_ids).value();
  EXPECT_EQ(merged.num_runs, 2);
  std::vector<std::string_view> views(blobs.begin(), blobs.end());
  ProvenanceIndex direct_merged = rig.service->MergeRunsStreamed(views).value();
  ASSERT_EQ(merged.total_items, direct_merged.total_items());

  struct Address {
    int run, item;
  };
  Rng rng(7);
  std::vector<std::pair<Address, Address>> addresses;
  std::vector<std::pair<int, int>> queries;
  int cross = 0;
  for (int q = 0; q < 300; ++q) {
    Address a{rng.NextInt(0, 1), 0};
    Address b{rng.NextInt(0, 1), 0};
    a.item = rng.NextInt(0, direct_runs[a.run].num_items() - 1);
    b.item = rng.NextInt(0, direct_runs[b.run].num_items() - 1);
    addresses.push_back({a, b});
    queries.push_back({direct_merged.GlobalId(a.run, a.item),
                       direct_merged.GlobalId(b.run, b.item)});
    cross += a.run != b.run;
  }
  EXPECT_GT(cross, 50);
  for (ViewLabelMode mode : kAllModes) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(mode)));
    std::vector<bool> direct_answers =
        rig.service->DependsMany(direct_view, direct_merged, queries, mode)
            .value();
    std::vector<bool> wire_answers =
        client.DependsMany(view_id, merged.merged_id, mode, queries).value();
    ASSERT_EQ(wire_answers, direct_answers);
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto& [a, b] = addresses[q];
      if (a.run != b.run) {
        EXPECT_FALSE(wire_answers[q]) << "cross-run query " << q;
        continue;
      }
      const std::vector<std::pair<int, int>> local = {{a.item, b.item}};
      EXPECT_EQ(wire_answers[q],
                rig.service
                    ->DependsMany(direct_view, direct_runs[a.run], local, mode)
                    .value()
                    .front())
          << "query " << q;
    }
  }
}

// ----- N threaded clients, one recorded sequence each. -----

TEST(ServerConcurrency, ThreadedClientsReplayBitEqual) {
  TestRig rig = TestRig::Make();
  std::vector<std::pair<int, int>> ops =
      RecordOpSequence(*rig.service, /*target_items=*/250, /*seed=*/5);

  // Reference answers, computed once without the network.
  ViewHandle direct_view = rig.service->RegisterView(rig.view).value();
  auto direct_session = rig.service->BeginRun();
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(direct_session->Apply(instance, production).ok());
  }
  ProvenanceIndex direct_index = direct_session->Snapshot();
  std::vector<std::pair<int, int>> queries =
      RandomQueries(direct_index.num_items(), 256, 321);
  std::vector<bool> want =
      rig.service
          ->DependsMany(direct_view, direct_index,
                        queries, ViewLabelMode::kQueryEfficient)
          .value();

  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto fail = [&](const char* what) {
        ADD_FAILURE() << "client " << c << ": " << what;
        failures.fetch_add(1);
      };
      Result<ProvenanceClient> client =
          ProvenanceClient::Connect(rig.server->port());
      if (!client.ok()) return fail("connect");
      Result<uint64_t> view_id = client->RegisterView(rig.view);
      if (!view_id.ok()) return fail("register view");
      Result<uint64_t> session_id = client->BeginRun();
      if (!session_id.ok()) return fail("begin run");
      for (const auto& [instance, production] : ops) {
        if (!client->Apply(*session_id, instance, production).ok()) {
          return fail("apply");
        }
      }
      Result<SnapshotInfo> snapshot = client->Snapshot(*session_id);
      if (!snapshot.ok()) return fail("snapshot");
      if (snapshot->num_items != direct_index.num_items()) {
        return fail("snapshot size");
      }
      // Pipelined point queries: the burst is what the batcher coalesces.
      for (const auto& [d1, d2] : queries) {
        client->QueueDepends(*view_id, snapshot->index_id,
                             ViewLabelMode::kQueryEfficient, d1, d2);
      }
      if (!client->Flush().ok()) return fail("flush");
      for (size_t q = 0; q < queries.size(); ++q) {
        Result<bool> answer = client->NextDependsAnswer();
        if (!answer.ok()) return fail("answer transport");
        if (*answer != want[q]) return fail("answer mismatch");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // All clients registered the structurally same view and replayed the
  // same derivation; the coalescing lever must have engaged.
  ServerStats stats = rig.server->stats();
  EXPECT_EQ(stats.point_queries, uint64_t{kClients} * queries.size());
  EXPECT_GT(stats.MeanBatchSize(), 1.0)
      << "batcher never coalesced: " << stats.point_queries << " queries in "
      << stats.point_batches << " batches";
  EXPECT_EQ(stats.connections, kClients);
}

// ----- Lifecycle hostility. -----

TEST(ServerLifecycle, AbruptDisconnectMidFrameIsHarmless) {
  TestRig rig = TestRig::Make();
  for (int round = 0; round < 8; ++round) {
    Socket raw = TcpConnect(rig.server->port()).value();
    // A declared 64-byte frame, delivered only halfway, then gone.
    std::string partial;
    AppendU64(&partial, 64);
    partial.append(17, '\x2a');
    ASSERT_TRUE(WriteAll(raw, partial).ok());
    raw.Close();
  }
  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  EXPECT_EQ(client.Ping().value(), kProtocolVersion);
}

TEST(ServerLifecycle, StopDrainsInFlightRequests) {
  TestRig rig = TestRig::Make();
  // Hammer the server from several threads while Stop races in: every
  // response is either a clean answer or a clean transport error — a torn
  // frame or a wrong answer fails, a refused/cut connection does not.
  constexpr int kThreads = 4;
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Result<ProvenanceClient> client =
          ProvenanceClient::Connect(rig.server->port());
      if (!client.ok()) return;
      for (int i = 0; i < 100000; ++i) {
        Result<uint64_t> version = client->Ping();
        if (!version.ok()) {
          if (version.code() != ErrorCode::kUnavailable) torn = true;
          return;  // drain reached this connection
        }
        if (*version != kProtocolVersion) torn = true;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rig.server->Stop();  // must not hang: drain completes with clients active
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(torn.load());

  // Stop is idempotent, and a stopped server refuses new conversations.
  rig.server->Stop();
  Result<ProvenanceClient> late = ProvenanceClient::Connect(rig.server->port());
  if (late.ok()) {
    EXPECT_EQ(late->Ping().code(), ErrorCode::kUnavailable);
  }
}

TEST(ServerLifecycle, UnknownIdsAreNotFoundNotFatal) {
  TestRig rig = TestRig::Make();
  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  EXPECT_EQ(client.Apply(999, 0, 0).code(), ErrorCode::kNotFound);
  EXPECT_EQ(client.Snapshot(999).code(), ErrorCode::kNotFound);
  EXPECT_EQ(client
                .Depends(999, 999, ViewLabelMode::kDefault, 0, 0)
                .code(),
            ErrorCode::kNotFound);
  std::vector<uint64_t> ids = {12345};
  EXPECT_EQ(client.MergeRuns(ids).code(), ErrorCode::kNotFound);
  // The connection survived every rejection.
  EXPECT_EQ(client.Ping().value(), kProtocolVersion);
}

// One artifact registry: snapshot ids and merged ids name indexes of one
// type, so every id answers on every query op exactly as the service
// answers the same index directly. Two snapshots and their merge make the
// ids 1, 2 and 3, replayed alongside in-process.
struct MergedRig {
  TestRig rig = TestRig::Make();
  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  uint64_t view_id = 0;
  ViewHandle direct_view;
  std::vector<uint64_t> index_ids;
  std::vector<ProvenanceIndex> direct_snapshots;
  MergeInfo merged;
  ProvenanceIndex direct_merged;

  MergedRig() {
    view_id = client.RegisterView(rig.view).value();
    direct_view = rig.service->RegisterView(rig.view).value();
    for (int seed : {31, 32}) {
      std::vector<std::pair<int, int>> ops =
          RecordOpSequence(*rig.service, /*target_items=*/60, seed);
      uint64_t session_id = client.BeginRun().value();
      auto direct_session = rig.service->BeginRun();
      for (const auto& [instance, production] : ops) {
        EXPECT_TRUE(client.Apply(session_id, instance, production).ok());
        EXPECT_TRUE(direct_session->Apply(instance, production).ok());
      }
      index_ids.push_back(client.Snapshot(session_id).value().index_id);
      direct_snapshots.push_back(direct_session->Snapshot());
    }
    merged = client.MergeRuns(index_ids).value();
    direct_merged = ProvenanceIndex::Merge(direct_snapshots).value();
  }
};

TEST(ServerIds, EveryArtifactIdAnswersEveryQueryOp) {
  MergedRig m;
  const std::vector<std::pair<uint64_t, const ProvenanceIndex*>> artifacts = {
      {m.index_ids[0], &m.direct_snapshots[0]},
      {m.index_ids[1], &m.direct_snapshots[1]},
      {m.merged.merged_id, &m.direct_merged}};
  for (const auto& [id, direct] : artifacts) {
    SCOPED_TRACE("artifact id " + std::to_string(id));
    const ViewLabelMode mode = ViewLabelMode::kDefault;
    // Flat-id pairs span every run of the artifact (cross-run pairs of the
    // merge included).
    std::vector<std::pair<int, int>> pairs =
        RandomQueries(direct->total_items(), 200, 40 + id);
    std::vector<bool> want =
        m.rig.service->DependsMany(m.direct_view, *direct, pairs, mode).value();

    EXPECT_EQ(m.client.DependsMany(m.view_id, id, mode, pairs).value(), want);
    for (int q = 0; q < 20; ++q) {
      EXPECT_EQ(m.client
                    .Depends(m.view_id, id, mode, pairs[q].first,
                             pairs[q].second)
                    .value(),
                want[q])
          << "q " << q;
    }
    EXPECT_EQ(m.client.VisibilitySweep(m.view_id, id, mode).value(),
              m.rig.service->VisibilitySweep(m.direct_view, *direct, mode)
                  .value());
    const std::vector<uint64_t> merge_input = {id};
    MergeInfo remerged = m.client.MergeRuns(merge_input).value();
    EXPECT_EQ(remerged.num_runs, direct->num_runs());
    EXPECT_EQ(remerged.total_items, direct->total_items());
  }

  // Merged and single-run ids mix in one merge: runs append in order.
  const std::vector<uint64_t> mixed = {m.merged.merged_id, m.index_ids[0]};
  MergeInfo three = m.client.MergeRuns(mixed).value();
  EXPECT_EQ(three.num_runs, 3);
  EXPECT_EQ(three.total_items, m.direct_merged.total_items() +
                                   m.direct_snapshots[0].total_items());

  // An id no artifact holds is still kNotFound on every op.
  const uint64_t unknown = 999;
  const std::vector<std::pair<int, int>> pairs = {{0, 0}};
  EXPECT_EQ(m.client.Depends(m.view_id, unknown, ViewLabelMode::kDefault, 0, 0)
                .code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(m.client
                .DependsMany(m.view_id, unknown, ViewLabelMode::kDefault,
                             pairs)
                .code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(m.client
                .VisibilitySweep(m.view_id, unknown, ViewLabelMode::kDefault)
                .code(),
            ErrorCode::kNotFound);
  const std::vector<uint64_t> unknown_input = {unknown};
  EXPECT_EQ(m.client.MergeRuns(unknown_input).code(), ErrorCode::kNotFound);
}

// One flush of point queries over several (view, index, mode) keys: the
// batcher splits it into one group per key and fails bad queries alone,
// yet every answer comes back per query and in request order. A known key
// must answer exactly as its one-pair in-process DependsMany (out-of-range
// errors included); an unknown view or index id exactly as a single call.
TEST(ServerBatcher, PipelinedRunMixingKeysAnswersEachQueryInOrder) {
  MergedRig m;
  struct Query {
    uint64_t view_id;
    uint64_t index_id;
    ViewLabelMode mode;
    uint64_t d1, d2;
  };
  const uint64_t snapshot_id = m.index_ids[0];
  const uint64_t merged_id = m.merged.merged_id;
  const int snapshot_items = m.direct_snapshots[0].total_items();
  const int merged_items = m.direct_merged.total_items();
  const uint64_t unknown = 999;
  Rng rng(61);
  auto item_below = [&rng](int n) {
    return static_cast<uint64_t>(rng.NextInt(0, n - 1));
  };
  std::vector<Query> queries;
  for (int round = 0; round < 8; ++round) {
    const ViewLabelMode mode = round % 2 == 0 ? ViewLabelMode::kDefault
                                              : ViewLabelMode::kQueryEfficient;
    const uint64_t s1 = item_below(snapshot_items);
    const uint64_t s2 = item_below(snapshot_items);
    const uint64_t m1 = item_below(merged_items);
    const uint64_t m2 = item_below(merged_items);
    queries.push_back({m.view_id, snapshot_id, mode, s1, s2});
    queries.push_back({m.view_id, merged_id, mode, m1, m2});
    queries.push_back(
        {m.view_id, snapshot_id, ViewLabelMode::kDefault, s2, s1});
    if (round == 2) queries.push_back({m.view_id, unknown, mode, 0, 1});
    if (round == 4) queries.push_back({unknown, merged_id, mode, 0, 1});
    if (round == 6) {
      queries.push_back({m.view_id, merged_id, mode,
                         static_cast<uint64_t>(merged_items), 0});
    }
    queries.push_back(
        {m.view_id, merged_id, ViewLabelMode::kQueryEfficient, m2, m1});
  }

  for (const Query& q : queries) {
    m.client.QueueDepends(q.view_id, q.index_id, q.mode, q.d1, q.d2);
  }
  ASSERT_TRUE(m.client.Flush().ok());
  std::vector<Result<bool>> answers;
  for (size_t i = 0; i < queries.size(); ++i) {
    answers.push_back(m.client.NextDependsAnswer());
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    SCOPED_TRACE("query " + std::to_string(i));
    const Result<bool>& answer = answers[i];
    const ProvenanceIndex* direct =
        q.index_id == snapshot_id ? &m.direct_snapshots[0]
        : q.index_id == merged_id ? &m.direct_merged
                                  : nullptr;
    if (q.view_id != m.view_id || direct == nullptr) {
      const Result<bool> single =
          m.client.Depends(q.view_id, q.index_id, q.mode, q.d1, q.d2);
      ASSERT_FALSE(single.ok());
      ASSERT_FALSE(answer.ok());
      EXPECT_EQ(answer.code(), single.code());
      EXPECT_EQ(answer.status().message(), single.status().message());
      continue;
    }
    const std::vector<std::pair<int, int>> one = {
        {static_cast<int>(q.d1), static_cast<int>(q.d2)}};
    const Result<std::vector<bool>> want =
        m.rig.service->DependsMany(m.direct_view, *direct, one, q.mode);
    if (want.ok()) {
      ASSERT_TRUE(answer.ok()) << answer.status().message();
      EXPECT_EQ(*answer, want->front());
    } else {
      ASSERT_FALSE(answer.ok());
      EXPECT_EQ(answer.code(), want.code());
      EXPECT_EQ(answer.status().message(), want.status().message());
    }
  }
}

// kOpenIndexFile, then kCompactFiles writing over the served archive's
// path, then a query on the served id: the compaction replaces the file by
// rename, so the served mapping keeps answering from the old inode instead
// of faulting on truncated pages.
TEST(ServerDiskTier, CompactOverServedArchiveKeepsServing) {
  TestRig rig = TestRig::Make();
  ProvenanceClient client =
      ProvenanceClient::Connect(rig.server->port()).value();
  uint64_t view_id = client.RegisterView(rig.view).value();
  ViewHandle direct_view = rig.service->RegisterView(rig.view).value();
  auto write_file = [](const std::string& path, std::string_view bytes) {
    FileHandle out = FileHandle::CreateTruncate(path).value();
    ASSERT_TRUE(out.WriteAll(bytes).ok());
    ASSERT_TRUE(out.Close().ok());
  };

  const std::string served_path = "/tmp/fvl_server_test_served.fvlidx";
  ProvenanceIndex served_heap = rig.service
          ->GenerateLabeledRun(
              RunGeneratorOptions{.target_items = 16000, .seed = 3})
          ->Snapshot();
  write_file(served_path, served_heap.Serialize());
  std::vector<std::string> inputs;
  for (int r = 0; r < 2; ++r) {
    inputs.push_back("/tmp/fvl_server_test_in" + std::to_string(r) +
                     ".fvlidx");
    write_file(inputs.back(),
               rig.service
                   ->GenerateLabeledRun(RunGeneratorOptions{
                       .target_items = 300,
                       .seed = 10 + static_cast<uint64_t>(r)})
                   ->Snapshot()
                   .Serialize());
  }

  MergeInfo served = client.OpenIndexFile(served_path).value();
  EXPECT_EQ(served.num_runs, 1);
  EXPECT_EQ(served.total_items, served_heap.num_items());
  MergeInfo compacted = client.CompactFiles(inputs, served_path).value();
  EXPECT_EQ(compacted.num_runs, 2);
  for (ViewLabelMode mode : kAllModes) {
    EXPECT_EQ(client.VisibilitySweep(view_id, served.merged_id, mode).value(),
              rig.service->VisibilitySweep(direct_view, served_heap, mode)
                  .value())
        << "mode " << static_cast<int>(mode);
  }
  // The server is still whole: the path now serves the compaction.
  MergeInfo reopened = client.OpenMergedIndexFile(served_path).value();
  EXPECT_EQ(reopened.total_items, compacted.total_items);
}

TEST(ServerLifecycle, ClosedConnectionSlotsAreReaped) {
  // Without reaping, every closed connection would keep its slot, thread
  // and fd until Stop: 200 after this loop. The accept loop frees finished
  // slots before adding a new one, so only connections whose threads have
  // not yet seen EOF may remain.
  TestRig rig = TestRig::Make();
  constexpr int kCycles = 200;
  for (int i = 0; i < kCycles; ++i) {
    ProvenanceClient client =
        ProvenanceClient::Connect(rig.server->port()).value();
    ASSERT_EQ(client.Ping().value(), kProtocolVersion);
  }  // each client closes its socket as it goes out of scope
  EXPECT_LE(rig.server->connection_slots(), 16);
  EXPECT_EQ(rig.server->stats().connections, static_cast<uint64_t>(kCycles));
  // A fresh connection still gets served, and Stop still drains cleanly
  // over the reaped slot table.
  ProvenanceClient last =
      ProvenanceClient::Connect(rig.server->port()).value();
  EXPECT_EQ(last.Ping().value(), kProtocolVersion);
  rig.server->Stop();
}

// An unconnected loopback TCP socket whose receives give up after 2 s, so
// a server that never answers fails a check instead of hanging the test.
Socket RawClientSocket() {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  timeval timeout{.tv_sec = 2, .tv_usec = 0};
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
  return socket;
}

bool ConnectLoopback(const Socket& socket, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(socket.fd(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

// Sends one kPing and reads until its whole answer frame has arrived;
// false if the receive timeout or EOF comes first.
bool PingAnswered(Socket& socket) {
  std::string ping;
  AppendFrame(&ping, EncodePingRequest());
  if (!WriteAll(socket, ping).ok()) return false;
  std::string buffer;
  char chunk[256];
  for (;;) {
    size_t frame_size = 0;
    std::string_view payload;
    if (TryExtractFrame(buffer, &frame_size, &payload) == FrameStatus::kFrame) {
      return true;
    }
    Result<ReadOutcome> outcome = ReadSome(socket, chunk, sizeof(chunk));
    if (!outcome.ok() || outcome->eof) return false;
    buffer.append(chunk, outcome->n);
  }
}

TEST(ServerLifecycle, AcceptLoopSurvivesDescriptorExhaustion) {
  // Linux reserves accept()'s new descriptor before it blocks, so a process
  // at its fd limit fails accept() with EMFILE even with no connection
  // pending. Once descriptors are free again, the server must accept.
  TestRig rig = TestRig::Make();
  const int port = rig.server->port();
  Socket first = RawClientSocket();
  ASSERT_TRUE(ConnectLoopback(first, port));
  ASSERT_TRUE(PingAnswered(first));

  Socket during = RawClientSocket();  // its fd exists before the limit drops
  ASSERT_TRUE(during.valid());
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit exhausted = saved;
  {
    // The lowest free descriptor: with the limit there, every new fd fails.
    Socket probe(::socket(AF_INET, SOCK_STREAM, 0));
    ASSERT_TRUE(probe.valid());
    exhausted.rlim_cur = static_cast<rlim_t>(probe.fd());
  }
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &exhausted), 0);
  // No assertion may return while the limit is down.
  const bool during_connected = ConnectLoopback(during, port);
  // Time for the acceptor to take `during` on the descriptor it reserved
  // before the limit dropped, and to fail its next accept().
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const bool restored = setrlimit(RLIMIT_NOFILE, &saved) == 0;
  ASSERT_TRUE(restored);
  ASSERT_TRUE(during_connected);

  EXPECT_TRUE(PingAnswered(during));
  Socket after = RawClientSocket();
  ASSERT_TRUE(ConnectLoopback(after, port));
  EXPECT_TRUE(PingAnswered(after)) << "the accept loop died on EMFILE";
  EXPECT_EQ(rig.server->stats().connections, 3u);
  rig.server->Stop();
}

}  // namespace
}  // namespace fvl::net
