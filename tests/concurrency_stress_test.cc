// Concurrency stress suites, written to run under ThreadSanitizer (the CI
// sanitizer matrix includes a thread lane that runs this binary and the net
// suites). Each test stresses one documented locking contract:
//   * the server's coalescing batcher under multi-client pipelined load
//     racing Stop() — answers are clean or kUnavailable, never torn;
//   * ProvenanceService view registration racing queries — the registry
//     mutex, dedup path, and lazy label builds;
//   * externally synchronized ProvenanceSession writers (the correct usage
//     the SingleWriterGuard must stay quiet for) with StoreCountProbe
//     readers polling concurrently.
// Assertions here are deliberately coarse (counts, no lost updates,
// answers match a reference) — the interesting failures are the data races
// TSan reports, not wrong values.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "fvl/core/label_store.h"
#include "fvl/core/serving_cache.h"
#include "fvl/net/client.h"
#include "fvl/net/server.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl {
namespace {

using net::ProvenanceClient;
using net::ProvenanceServer;
using net::SnapshotInfo;

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

// --- Batcher under fire -----------------------------------------------------

TEST(ConcurrencyStress, BatcherHammeredWhileServerStops) {
  Workload bio = MakeBioAid(2012);
  View view = GenerateSafeView(bio, ViewGeneratorOptions{.num_expandable = 8,
                                                         .seed = 8})
                  .view();
  auto service = ProvenanceService::Create(std::move(bio.spec)).value();
  auto server = ProvenanceServer::Start(service).value();

  // Build one frozen index over the wire for everyone to query.
  ProvenanceClient setup = ProvenanceClient::Connect(server->port()).value();
  uint64_t view_id = setup.RegisterView(view).value();
  uint64_t session_id = setup.BeginRun().value();
  std::vector<std::pair<int, int>> ops = RecordOpSequence(*service, 300, 17);
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(setup.Apply(session_id, instance, production).ok());
  }
  SnapshotInfo snapshot = setup.Snapshot(session_id).value();
  const int num_items = snapshot.num_items;
  ASSERT_GT(num_items, 0);

  // Reference answers computed in-process: the replay is deterministic, so
  // a direct session fed the same ops freezes a bit-equal index.
  ViewHandle direct_view = service->RegisterView(view).value();
  auto direct_session = service->BeginRun();
  for (const auto& [instance, production] : ops) {
    ASSERT_TRUE(direct_session->Apply(instance, production).ok());
  }
  ProvenanceIndex direct_index = direct_session->Snapshot();
  ASSERT_EQ(direct_index.num_items(), num_items);
  Rng rng(99);
  std::vector<std::pair<int, int>> queries;
  for (int q = 0; q < 64; ++q) {
    queries.push_back(
        {rng.NextInt(0, num_items - 1), rng.NextInt(0, num_items - 1)});
  }

  constexpr int kClients = 4;
  std::atomic<int64_t> answers_checked{0};
  std::atomic<int64_t> unavailable_seen{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<ProvenanceClient> conn = ProvenanceClient::Connect(
          server->port());
      if (!conn.ok()) return;  // raced the stop before connecting
      ProvenanceClient client = std::move(conn).value();
      std::vector<bool> reference;
      {
        Result<std::vector<bool>> direct = service->DependsMany(
            direct_view, direct_index, queries, ViewLabelMode::kDefault);
        ASSERT_TRUE(direct.ok());
        reference = std::move(direct).value();
      }
      for (int round = 0; round < 400; ++round) {
        for (const auto& [d1, d2] : queries) {
          client.QueueDepends(view_id, snapshot.index_id,
                              ViewLabelMode::kDefault, d1, d2);
        }
        if (!client.Flush().ok()) {
          unavailable_seen.fetch_add(1);
          return;
        }
        while (client.pending() > 0) {
          size_t i = queries.size() - client.pending();
          Result<bool> answer = client.NextDependsAnswer();
          if (!answer.ok()) {
            // Stop() mid-conversation: the stream ends, it never lies.
            unavailable_seen.fetch_add(1);
            return;
          }
          EXPECT_EQ(*answer, reference[i]) << "client " << c << " query " << i;
          answers_checked.fetch_add(1);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->Stop();
  for (std::thread& t : clients) t.join();
  // Every client made progress before (or despite) the stop.
  EXPECT_GT(answers_checked.load(), 0);
}

// --- Registry races ---------------------------------------------------------

TEST(ConcurrencyStress, RegisterViewRacesQueries) {
  Workload bio = MakeBioAid(2012);
  // Pre-generate distinct views outside the racing section (and before the
  // spec is moved into the service).
  std::vector<View> views;
  for (int seed = 1; seed <= 4; ++seed) {
    views.push_back(
        GenerateSafeView(bio,
                         ViewGeneratorOptions{.num_expandable = 6,
                                              .seed = static_cast<uint64_t>(
                                                  seed)})
            .view());
  }
  auto service = ProvenanceService::Create(std::move(bio.spec)).value();

  // A frozen run to query against while registrations happen.
  auto session = service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 400, .seed = 5});
  ProvenanceIndex index = session->Snapshot();
  const int num_items = index.num_items();

  constexpr int kRounds = 50;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Registrars: re-register the same views over and over; the dedup path
  // must hand back one stable handle per distinct view.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      std::vector<int> first_ids(views.size(), -1);
      for (int round = 0; round < kRounds; ++round) {
        for (size_t v = 0; v < views.size(); ++v) {
          Result<ViewHandle> handle = service->RegisterView(views[v]);
          if (!handle.ok()) {
            failed.store(true);
            return;
          }
          if (first_ids[v] < 0) {
            first_ids[v] = handle->id();
          } else if (first_ids[v] != handle->id()) {
            failed.store(true);  // dedup broke under the race
            return;
          }
        }
      }
    });
  }
  // Queriers: hammer the default view (lazy label build + decode) against
  // the frozen index while the registry churns.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::pair<int, int>> queries;
        for (int q = 0; q < 32; ++q) {
          queries.push_back(
              {rng.NextInt(0, num_items - 1), rng.NextInt(0, num_items - 1)});
        }
        Result<std::vector<bool>> answers = service->DependsMany(
            service->default_view(), index, queries, ViewLabelMode::kDefault);
        if (!answers.ok() || answers->size() != queries.size()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  // Both registrars saw stable ids; the registry holds each view once.
  EXPECT_LE(service->num_views(),
            static_cast<int>(views.size()) + 1);  // + default view
}

// --- Serving cache under query contention ----------------------------------

TEST(ConcurrencyStress, ServingCacheShardsStayCoherentUnderQueryStorm) {
  // Many threads batch-query one frozen snapshot: label-cache shards are
  // hit and filled concurrently. Every batch must equal the one-at-a-time
  // reference — a torn cache entry surfaces as a wrong answer, and TSan
  // checks the locking itself.
  Workload bio = MakeBioAid(2012);
  auto service = ProvenanceService::Create(std::move(bio.spec)).value();
  auto session = service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 400, .seed = 6});
  ProvenanceIndex index = session->Snapshot();
  ASSERT_NE(index.serving_cache(), nullptr);
  const int num_items = index.num_items();

  // Ground truth from the reference path, which never touches the cache.
  std::vector<std::vector<std::pair<int, int>>> batches;
  std::vector<std::vector<bool>> expected;
  Rng rng(200);
  for (int b = 0; b < 8; ++b) {
    std::vector<std::pair<int, int>> queries;
    for (int q = 0; q < 64; ++q) {
      // Hot head + uniform tail, so threads collide on cache slots.
      const int hot = std::max(2, num_items / 20);
      queries.push_back({rng.NextInt(0, hot - 1),
                         rng.NextInt(0, num_items - 1)});
    }
    expected.push_back(testing::ReferenceDepends(
        *service, service->default_view(), index, queries,
        ViewLabelMode::kDefault));
    batches.push_back(std::move(queries));
  }

  constexpr int kRounds = 40;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t b = (t + round) % batches.size();
        Result<std::vector<bool>> answers = service->DependsMany(
            service->default_view(), index, batches[b],
            ViewLabelMode::kDefault);
        if (!answers.ok() || *answers != expected[b]) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  // The storm replayed identical batches; the label cache must have
  // served some of their items.
  EXPECT_GT(index.serving_cache()->stats().label_hits, 0u);
}

TEST(ConcurrencyStress, SweepsAdmitWhileBatchesVetOneIndex) {
  // Threads of two services share one index neither has admitted. Each
  // thread alternates a sweep, which vets every label and records its
  // service's admission, with a batch, which vets what it reads until its
  // own service's admission is recorded. The two services keep overwriting
  // the record while the other's batches read it and the shared label
  // cache; batches are dense (one ascending walk) or sparse (the first 64
  // queries). Every answer must equal the reference, and TSan checks the
  // record and the cache.
  Workload bio = MakeBioAid(2012);
  auto service_a = ProvenanceService::Create(bio.spec).value();
  auto service_b = ProvenanceService::Create(std::move(bio.spec)).value();
  const ProvenanceIndex snapshot =
      service_a
          ->GenerateLabeledRun(
              RunGeneratorOptions{.target_items = 400, .seed = 8})
          ->Snapshot();
  const ProvenanceIndex index(snapshot.store());  // not admitted by anyone
  const int num_items = index.num_items();
  Rng rng(300);
  std::vector<std::pair<int, int>> queries;  // dense; its first 64: sparse
  for (int q = 0; q < num_items / 2; ++q) {
    queries.push_back(
        {rng.NextInt(0, num_items - 1), rng.NextInt(0, num_items - 1)});
  }
  ASSERT_LT(64 * 4, num_items);
  const std::vector<bool> expected = testing::ReferenceDepends(
      *service_a, service_a->default_view(), snapshot, queries,
      ViewLabelMode::kDefault);
  const std::vector<bool> visible =
      service_a->VisibilitySweep(service_a->default_view(), snapshot)
          .value();

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ProvenanceService& service = t % 2 == 0 ? *service_a : *service_b;
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < 20; ++round) {
        if ((round + t / 2) % 3 == 0) {
          Result<std::vector<bool>> swept =
              service.VisibilitySweep(service.default_view(), index);
          if (!swept.ok() || *swept != visible) failed.store(true);
          continue;
        }
        const size_t size = (round + t) % 2 == 0 ? queries.size() : 64;
        Result<std::vector<bool>> answers = service.DependsMany(
            service.default_view(), index, std::span(queries).first(size),
            ViewLabelMode::kDefault);
        if (!answers.ok() ||
            *answers != std::vector<bool>(expected.begin(),
                                          expected.begin() + size)) {
          failed.store(true);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_NE(index.serving_cache()->admitted_by(), 0u);
  EXPECT_GT(index.serving_cache()->stats().label_hits, 0u);
}

TEST(ConcurrencyStress, FreshCacheFirstInsertsRaceLookups) {
  // Every shard of a fresh cache is allocated by whichever thread's insert
  // reaches it first, while other threads look up into the same shard. A
  // hit must return the value inserted for that exact key (a pure function
  // of it), every lookup is counted exactly once, and allocation never
  // exceeds capacity. Fresh caches each round, so the race is re-run.
  constexpr int kRounds = 20;
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  for (int round = 0; round < kRounds; ++round) {
    ServingCache cache(4096);  // 16 shards
    std::atomic<int> ready{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(round * kThreads + t));
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        for (int i = 0; i < kOps; ++i) {
          const int item = rng.NextInt(0, 9999);
          DataLabel label;
          if (cache.LookupLabel(item, &label)) {
            if (label != testing::CacheLabelFor(item)) failed.store(true);
          } else {
            cache.InsertLabel(item, testing::CacheLabelFor(item));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_FALSE(failed.load()) << "round " << round;
    const ServingCacheStats stats = cache.stats();
    EXPECT_EQ(stats.label_hits + stats.label_misses,
              static_cast<uint64_t>(kThreads) * kOps);
    EXPECT_EQ(cache.allocated_slots(), cache.capacity());
  }
}

// --- Externally synchronized session writers --------------------------------

// The correct concurrent use of a ProvenanceSession: callers serialize
// Apply/SnapshotDelta with their own lock (exactly what net/server.cc's
// SessionEntry does). The SingleWriterGuard must stay silent, TSan must see
// no races, and the probe readers must be able to poll throughout.
TEST(ConcurrencyStress, ExternallyLockedSessionWritersStayClean) {
  Workload bio = MakeBioAid(2012);
  auto service = ProvenanceService::Create(std::move(bio.spec)).value();
  std::vector<std::pair<int, int>> ops = RecordOpSequence(*service, 600, 23);

  auto session = service->BeginRun();
  std::mutex session_mu;
  std::atomic<bool> done{false};
  std::atomic<int64_t> applied{0};
  // The writers start only after the probe has observed once, so the probe
  // polls while they run however the threads are scheduled.
  std::latch probe_started(1);

  std::thread probe_reader([&done, &probe_started] {
    int64_t observations = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Lock-free probe: must be readable at any time from any thread.
      int live = internal::StoreCountProbe::live();
      int peak = internal::StoreCountProbe::peak();
      EXPECT_GE(peak, 0);
      EXPECT_GE(live, 0);
      if (++observations == 1) probe_started.count_down();
      std::this_thread::yield();
    }
    EXPECT_GT(observations, 0);
  });

  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      probe_started.wait();
      // Each writer replays a strided slice; out-of-order ops may be
      // rejected with a Status (fine) but must never race or abort.
      for (size_t i = w; i < ops.size(); i += kWriters) {
        std::lock_guard<std::mutex> lock(session_mu);
        Result<DerivationStep> step =
            session->Apply(ops[i].first, ops[i].second);
        if (step.ok()) applied.fetch_add(1);
        if ((i / kWriters) % 64 == 63) {
          ProvenanceIndex delta = session->SnapshotDelta();
          EXPECT_GE(delta.num_items(), 0);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  probe_reader.join();

  EXPECT_GT(applied.load(), 0);
  std::lock_guard<std::mutex> lock(session_mu);
  ProvenanceIndex final_index = session->Snapshot();
  EXPECT_GT(final_index.num_items(), 0);
}

}  // namespace
}  // namespace fvl
