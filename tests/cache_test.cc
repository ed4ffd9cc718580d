// Skew-aware serving caches (util/sharded_cache.h, core/serving_cache.h):
// the cache primitive's admission/eviction behavior and counters, and the
// differential guarantee the service layer builds on it — the cached batch
// paths are bit-identical to the uncached paths across randomized
// specifications, all three ViewLabelModes, merged and single-run indexes,
// with the same error behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/core/serving_cache.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/util/sharded_cache.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/synthetic.h"
#include "fvl/workload/view_generator.h"

namespace fvl {
namespace {

constexpr ViewLabelMode kAllModes[] = {ViewLabelMode::kSpaceEfficient,
                                       ViewLabelMode::kDefault,
                                       ViewLabelMode::kQueryEfficient};

// ----- ShardedCache primitive. -----

TEST(ShardedCache, InsertLookupAndCounters) {
  ShardedCache<int, int> cache(128);
  int out = 0;
  EXPECT_FALSE(cache.Lookup(7, &out));
  cache.Insert(7, 70);
  ASSERT_TRUE(cache.Lookup(7, &out));
  EXPECT_EQ(out, 70);
  cache.Insert(7, 71);  // same key refreshes in place
  ASSERT_TRUE(cache.Lookup(7, &out));
  EXPECT_EQ(out, 71);

  const ShardedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 2.0 / 3.0);
}

TEST(ShardedCache, ZeroCapacityNeverHitsAndNeverCrashes) {
  ShardedCache<int, int> cache(0);
  EXPECT_EQ(cache.capacity(), 0);
  cache.Insert(1, 10);
  int out = 0;
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(ShardedCache, FreshCacheHoldsNoSlotStorage) {
  // 8192 slots over 16 shards, none of them backed until an insert.
  ShardedCache<int, int> cache(8192);
  EXPECT_EQ(cache.capacity(), 8192);
  EXPECT_EQ(cache.allocated_slots(), 0);
}

TEST(ShardedCache, LookupBeforeAnyInsertIsACountedMiss) {
  ShardedCache<int, int> cache(8192);
  int out = -1;
  for (int key = 0; key < 100; ++key) EXPECT_FALSE(cache.Lookup(key, &out));
  EXPECT_EQ(out, -1);
  EXPECT_EQ(cache.allocated_slots(), 0);  // lookups never allocate
  const ShardedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 100u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST(ShardedCache, FirstInsertAllocatesOnlyItsOwnShard) {
  ShardedCache<int, int> cache(8192);  // 16 shards of 512 slots
  const int shard_slots = cache.capacity() / 16;
  cache.Insert(42, 420);
  EXPECT_EQ(cache.allocated_slots(), shard_slots);
  int out = 0;
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_EQ(out, 420);
  // Re-inserting into the same shard allocates nothing more.
  cache.Insert(42, 421);
  EXPECT_EQ(cache.allocated_slots(), shard_slots);
  // Enough distinct keys reach every shard, and the total stops at capacity.
  for (int key = 0; key < 1000; ++key) cache.Insert(key, key);
  EXPECT_EQ(cache.allocated_slots(), cache.capacity());
}

TEST(ShardedCache, AdmissionProtectsHotResidents) {
  // Capacity 1: every key maps to the same slot, making the second-chance
  // policy directly observable.
  ShardedCache<int, int> cache(1);
  ASSERT_EQ(cache.capacity(), 1);
  cache.Insert(1, 100);
  int out = 0;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cache.Lookup(1, &out));

  // A one-shot cold key cannot displace the hot resident.
  cache.Insert(2, 200);
  ASSERT_TRUE(cache.Lookup(1, &out));
  EXPECT_EQ(out, 100);
  EXPECT_FALSE(cache.Lookup(2, &out));
  EXPECT_GE(cache.stats().rejections, 1u);

  // A key that keeps colliding (i.e. is actually warm) eventually wins:
  // frequency is capped, so boundedly many repeats drain the resident.
  for (int i = 0; i < 8; ++i) cache.Insert(2, 200);
  ASSERT_TRUE(cache.Lookup(2, &out));
  EXPECT_EQ(out, 200);
  EXPECT_FALSE(cache.Lookup(1, &out));
}

TEST(ShardedCache, ConcurrentHammerKeepsKeyValueInvariant) {
  // Hits must always return the value inserted for that exact key, under
  // contention (the TSan lane runs this too). Value is a pure function of
  // key, so any torn/mismatched entry is detected.
  ShardedCache<int, int> cache(64);
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::atomic<int64_t> total_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &total_hits, t] {
      Rng rng(1000 + t);
      int64_t hits = 0;
      for (int i = 0; i < kOps; ++i) {
        const int key = rng.NextInt(0, 255);
        int value = 0;
        if (cache.Lookup(key, &value)) {
          ASSERT_EQ(value, 2 * key + 1);
          ++hits;
        } else {
          cache.Insert(key, 2 * key + 1);
        }
      }
      total_hits.fetch_add(hits);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(total_hits.load(), 0);
  const ShardedCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(total_hits.load()));
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOps);
}

// ----- ServingCache. -----

TEST(ServingCache, LabelAndReachRoundTripWithExactKeys) {
  ServingCache cache(256);
  DataLabel label;
  EXPECT_FALSE(cache.LookupLabel(7u, 3, &label));

  DataLabel stored;
  stored.producer.emplace();
  stored.producer->port = 2;
  cache.InsertLabel(7u, 3, stored);
  ASSERT_TRUE(cache.LookupLabel(7u, 3, &label));
  EXPECT_EQ(label, stored);
  // The vetting service's tag is part of the label key: another service
  // looking up the same item misses — LabelInBounds vetting is grammar-
  // specific and must never leak across services sharing an index.
  EXPECT_FALSE(cache.LookupLabel(8u, 3, &label));

  // Memo keys are compared exactly: tuples differing in any one field are
  // distinct entries, never aliases.
  const ReachMemoKey base{42u, 1, 0, 5, 9};
  cache.InsertReach(base, true);
  bool answer = false;
  ASSERT_TRUE(cache.LookupReach(base, &answer));
  EXPECT_TRUE(answer);
  ReachMemoKey flipped = base;
  flipped.d1 = 9;
  flipped.d2 = 5;
  EXPECT_FALSE(cache.LookupReach(flipped, &answer));
  ReachMemoKey other_mode = base;
  other_mode.mode = 2;
  EXPECT_FALSE(cache.LookupReach(other_mode, &answer));

  const ServingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.label_hits, 1u);
  EXPECT_EQ(stats.label_misses, 2u);
  EXPECT_EQ(stats.reach_hits, 1u);
  EXPECT_EQ(stats.reach_misses, 2u);
}

TEST(ServingCache, EmptySnapshotsCarryNoCache) {
  EXPECT_EQ(internal::MakeServingCache(0), nullptr);
  ProvenanceIndex empty;
  EXPECT_EQ(empty.serving_cache(), nullptr);
}

// ----- Differential: cached ≡ uncached through the service. -----

std::vector<std::pair<int, int>> RandomQueries(int num_items, int count,
                                               uint64_t seed) {
  // Skewed like real traffic: a quarter of the pairs repeat a small hot
  // set, so the memo actually engages within and across batches.
  Rng rng(seed);
  std::vector<std::pair<int, int>> queries;
  queries.reserve(count);
  const int hot = std::max(1, num_items / 16);
  for (int q = 0; q < count; ++q) {
    if (q % 4 == 0) {
      queries.push_back({rng.NextInt(0, hot - 1), rng.NextInt(0, hot - 1)});
    } else {
      queries.push_back(
          {rng.NextInt(0, num_items - 1), rng.NextInt(0, num_items - 1)});
    }
  }
  return queries;
}

// Answers every query/sweep twice with caches on (cold, then memo-warm) and
// compares both against the uncached answers, per mode.
void CheckCachedMatchesUncached(ProvenanceService& service, ViewHandle view,
                                const ProvenanceIndex& index,
                                uint64_t seed) {
  const auto queries = RandomQueries(index.num_items(), 160, seed);
  for (ViewLabelMode mode : kAllModes) {
    service.set_serving_cache_enabled(false);
    const std::vector<bool> expected =
        service.DependsMany(view, index, queries, mode).value();
    const std::vector<bool> expected_sweep =
        service.VisibilitySweep(view, index, mode).value();

    service.set_serving_cache_enabled(true);
    EXPECT_EQ(service.DependsMany(view, index, queries, mode).value(),
              expected);
    EXPECT_EQ(service.DependsMany(view, index, queries, mode).value(),
              expected);
    EXPECT_EQ(service.VisibilitySweep(view, index, mode).value(),
              expected_sweep);
  }
  service.set_serving_cache_enabled(true);
}

TEST(CacheDifferential, SingleRunPaperExampleAllModes) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();

  RunGeneratorOptions options;
  options.target_items = 160;
  options.seed = 11;
  auto session = service->GenerateLabeledRun(options);
  ProvenanceIndex index = session->Snapshot();
  ASSERT_NE(index.serving_cache(), nullptr);

  for (ViewHandle view : {service->default_view(), grey}) {
    CheckCachedMatchesUncached(*service, view, index, 23);
  }

  // The warm passes above must actually have come from the caches.
  const ServingCacheStats stats = index.serving_cache()->stats();
  EXPECT_GT(stats.reach_hits, 0u);
  EXPECT_GT(stats.label_hits, 0u);
}

TEST(CacheDifferential, RandomizedSyntheticSpecsSingleAndMerged) {
  Rng meta(77);
  for (int s = 0; s < 4; ++s) {
    SyntheticOptions options;
    options.workflow_size = meta.NextInt(4, 8);
    options.module_degree = meta.NextInt(2, 3);
    options.nesting_depth = meta.NextInt(1, 2);
    options.recursion_length = meta.NextInt(2, 3);
    options.seed = 500 + s;
    Workload workload = MakeSynthetic(options);
    auto service = ProvenanceService::Create(workload.spec).value();

    ViewGeneratorOptions view_options;
    view_options.num_expandable = 2;
    view_options.deps =
        (s % 2 != 0) ? PerceivedDeps::kGreyBox : PerceivedDeps::kWhiteBox;
    view_options.seed = 600 + s;
    CompiledView generated = GenerateSafeView(workload, view_options);
    ViewHandle view = service->RegisterView(generated.view()).value();

    // Single-run differential.
    std::vector<ProvenanceIndex> snapshots;
    for (int r = 0; r < 3; ++r) {
      RunGeneratorOptions run_options;
      run_options.target_items = 90 + 13 * r;
      run_options.seed = 700 + 10 * s + r;
      auto session = service->GenerateLabeledRun(run_options);
      snapshots.push_back(session->Snapshot());
      CheckCachedMatchesUncached(*service, view, snapshots.back(),
                                 800 + 10 * s + r);
    }

    // Merged differential: flat-id pairs, including cross-run pairs (false
    // by definition — must stay false with the memo engaged).
    ProvenanceIndex merged = ProvenanceIndex::Merge(snapshots).value();
    ASSERT_NE(merged.serving_cache(), nullptr);
    const auto flat = RandomQueries(merged.total_items(), 200, 900 + s);
    for (ViewLabelMode mode : kAllModes) {
      service->set_serving_cache_enabled(false);
      const std::vector<bool> expected =
          service->DependsMany(view, merged, flat, mode).value();
      const std::vector<bool> expected_sweep =
          service->VisibilitySweep(view, merged, mode).value();
      service->set_serving_cache_enabled(true);
      EXPECT_EQ(service->DependsMany(view, merged, flat, mode).value(),
                expected);
      EXPECT_EQ(service->DependsMany(view, merged, flat, mode).value(),
                expected);
      EXPECT_EQ(service->VisibilitySweep(view, merged, mode).value(),
                expected_sweep);
    }
    EXPECT_GT(merged.serving_cache()->stats().reach_hits, 0u);
  }
}

// A pair across two runs is answered false before any decode: it touches
// neither the label cache nor the memo, so a batch of only such pairs
// leaves every cache counter where it was.
TEST(CacheDifferential, CrossRunPairsNeverReachTheCache) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  std::vector<ProvenanceIndex> snapshots;
  for (uint64_t seed : {1, 2}) {
    snapshots.push_back(
        service
            ->GenerateLabeledRun(
                RunGeneratorOptions{.target_items = 80, .seed = seed})
            ->Snapshot());
  }
  ProvenanceIndex merged = ProvenanceIndex::Merge(snapshots).value();
  const int first = merged.num_items(0);
  std::vector<std::pair<int, int>> cross;
  for (int i = 0; i < 50; ++i) {
    cross.push_back({i % first, first + i % merged.num_items(1)});
  }
  const std::vector<bool> answers =
      service->DependsMany(service->default_view(), merged, cross).value();
  EXPECT_EQ(answers, std::vector<bool>(cross.size(), false));
  const ServingCacheStats stats = merged.serving_cache()->stats();
  EXPECT_EQ(stats.label_hits + stats.label_misses, 0u);
  EXPECT_EQ(stats.reach_hits + stats.reach_misses, 0u);
}

TEST(CacheDifferential, LabelEntriesDoNotLeakAcrossServices) {
  // Two services over one snapshot: CheckIndexCompatible compares only the
  // codec widths, so a second service — whose grammar may differ
  // structurally while the widths coincide — must never consume labels
  // vetted by the first (LabelInBounds walks the vetting service's
  // grammar). The label cache keys on the vetting service's tag, so B's
  // first pass misses every entry A warmed, decodes, and re-vets itself.
  PaperExample ex = MakePaperExample();
  auto service_a = ProvenanceService::Create(ex.spec).value();
  auto service_b = ProvenanceService::Create(ex.spec).value();

  RunGeneratorOptions options;
  options.target_items = 120;
  options.seed = 17;
  auto session = service_a->GenerateLabeledRun(options);
  ProvenanceIndex index = session->Snapshot();
  ASSERT_NE(index.serving_cache(), nullptr);
  const auto queries = RandomQueries(index.num_items(), 200, 29);

  // Warm A's label entries with one mode, then prove they are resident by
  // querying a second mode (the memo misses on mode, the labels hit).
  const std::vector<bool> expected =
      service_a
          ->DependsMany(service_a->default_view(), index, queries,
                        ViewLabelMode::kDefault)
          .value();
  service_a
      ->DependsMany(service_a->default_view(), index, queries,
                    ViewLabelMode::kQueryEfficient)
      .value();
  const ServingCacheStats warmed = index.serving_cache()->stats();
  EXPECT_GT(warmed.label_hits, 0u);

  // B answers identically (same grammar here) but from its own decode and
  // vetting pass: not one label hit against A's entries.
  EXPECT_EQ(service_b
                ->DependsMany(service_b->default_view(), index, queries,
                              ViewLabelMode::kDefault)
                .value(),
            expected);
  const ServingCacheStats after_b = index.serving_cache()->stats();
  EXPECT_EQ(after_b.label_hits, warmed.label_hits);
  EXPECT_GT(after_b.label_misses, warmed.label_misses);

  // B's own entries are ordinary cache citizens: its second mode hits them.
  service_b
      ->DependsMany(service_b->default_view(), index, queries,
                    ViewLabelMode::kQueryEfficient)
      .value();
  EXPECT_GT(index.serving_cache()->stats().label_hits, after_b.label_hits);
}

TEST(CacheDifferential, AnswersIdenticalAcrossThreadCounts) {
  // The sharded predicate/answer loop must not depend on the shard count.
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  RunGeneratorOptions options;
  options.target_items = 200;
  options.seed = 5;
  auto session = service->GenerateLabeledRun(options);
  ProvenanceIndex index = session->Snapshot();
  const auto queries = RandomQueries(index.num_items(), 400, 99);

  service->set_query_threads(1);
  const std::vector<bool> expected =
      service->DependsMany(service->default_view(), index, queries).value();
  for (int threads : {2, 4, 8}) {
    service->set_query_threads(threads);
    EXPECT_EQ(
        service->DependsMany(service->default_view(), index, queries).value(),
        expected)
        << "threads=" << threads;
  }
  service->set_query_threads(1);
}

TEST(CacheDifferential, ErrorBehaviorMatchesUncached) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  RunGeneratorOptions options;
  options.target_items = 40;
  options.seed = 3;
  auto session = service->GenerateLabeledRun(options);
  ProvenanceIndex index = session->Snapshot();

  const std::vector<std::pair<int, int>> bad = {{0, index.num_items()}};
  for (bool enabled : {false, true}) {
    service->set_serving_cache_enabled(enabled);
    Result<std::vector<bool>> result =
        service->DependsMany(service->default_view(), index, bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  }
  service->set_serving_cache_enabled(true);
}

}  // namespace
}  // namespace fvl
