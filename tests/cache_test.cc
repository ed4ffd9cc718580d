// The serving cache (core/serving_cache.h): its slot allocation,
// admission/eviction behavior and counters; the differential
// guarantee the service layer builds on it — batch answers, with the label
// cache cold and warm, and sweeps equal the one-at-a-time reference path
// across randomized specifications, all three ViewLabelModes, merged and
// single-run indexes, with the same error behavior; and the cost contract
// its counters pin.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/core/serving_cache.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/workflow/grammar_builder.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/synthetic.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl {
namespace {

constexpr ViewLabelMode kAllModes[] = {ViewLabelMode::kSpaceEfficient,
                                       ViewLabelMode::kDefault,
                                       ViewLabelMode::kQueryEfficient};

// ----- ServingCache slots, admission and counters. -----

using testing::CacheLabelFor;

TEST(ServingCache, InsertLookupAndCounters) {
  ServingCache cache(128);
  DataLabel out;
  EXPECT_FALSE(cache.LookupLabel(7, &out));
  cache.InsertLabel(7, CacheLabelFor(7));
  ASSERT_TRUE(cache.LookupLabel(7, &out));
  EXPECT_EQ(out, CacheLabelFor(7));
  cache.InsertLabel(7, CacheLabelFor(8));  // same key refreshes in place
  ASSERT_TRUE(cache.LookupLabel(7, &out));
  EXPECT_EQ(out, CacheLabelFor(8));

  cache.CountEvaluations(5);
  const ServingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.label_hits, 2u);
  EXPECT_EQ(stats.label_misses, 1u);
  EXPECT_DOUBLE_EQ(stats.LabelHitRate(), 2.0 / 3.0);
  EXPECT_EQ(stats.reach_misses, 5u);
}

TEST(ServingCache, ZeroCapacityNeverHitsAndNeverCrashes) {
  ServingCache cache(0);
  EXPECT_EQ(cache.capacity(), 0);
  cache.InsertLabel(1, CacheLabelFor(1));
  DataLabel out;
  EXPECT_FALSE(cache.LookupLabel(1, &out));
  EXPECT_EQ(cache.allocated_slots(), 0);
}

TEST(ServingCache, FreshCacheHoldsNoSlotStorage) {
  // 8192 slots over 16 shards, none of them backed until an insert.
  ServingCache cache(8192);
  EXPECT_EQ(cache.capacity(), 8192);
  EXPECT_EQ(cache.allocated_slots(), 0);
  // Capacity stops at 8192 slots however large the snapshot.
  EXPECT_EQ(ServingCache(1 << 20).capacity(), 8192);
}

TEST(ServingCache, LookupBeforeAnyInsertIsACountedMiss) {
  ServingCache cache(8192);
  DataLabel out = CacheLabelFor(-1);
  for (int item = 0; item < 100; ++item) {
    EXPECT_FALSE(cache.LookupLabel(item, &out));
  }
  EXPECT_EQ(out, CacheLabelFor(-1));
  EXPECT_EQ(cache.allocated_slots(), 0);  // lookups never allocate
  const ServingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.label_hits, 0u);
  EXPECT_EQ(stats.label_misses, 100u);
}

TEST(ServingCache, FirstInsertAllocatesOnlyItsOwnShard) {
  ServingCache cache(8192);  // 16 shards of 512 slots
  const int shard_slots = cache.capacity() / 16;
  cache.InsertLabel(42, CacheLabelFor(42));
  EXPECT_EQ(cache.allocated_slots(), shard_slots);
  DataLabel out;
  ASSERT_TRUE(cache.LookupLabel(42, &out));
  EXPECT_EQ(out, CacheLabelFor(42));
  // Re-inserting into the same shard allocates nothing more.
  cache.InsertLabel(42, CacheLabelFor(42));
  EXPECT_EQ(cache.allocated_slots(), shard_slots);
  // Enough distinct keys reach every shard, and the total stops at capacity.
  for (int item = 0; item < 1000; ++item) {
    cache.InsertLabel(item, CacheLabelFor(item));
  }
  EXPECT_EQ(cache.allocated_slots(), cache.capacity());
}

TEST(ServingCache, AdmissionProtectsHotResidents) {
  // Capacity 1: every key maps to the same slot, making the second-chance
  // policy directly observable.
  ServingCache cache(1);
  ASSERT_EQ(cache.capacity(), 1);
  cache.InsertLabel(1, CacheLabelFor(1));
  DataLabel out;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cache.LookupLabel(1, &out));

  // A one-shot cold key cannot displace the hot resident.
  cache.InsertLabel(2, CacheLabelFor(2));
  ASSERT_TRUE(cache.LookupLabel(1, &out));
  EXPECT_EQ(out, CacheLabelFor(1));
  EXPECT_FALSE(cache.LookupLabel(2, &out));

  // A key that keeps colliding (i.e. is actually warm) eventually wins:
  // frequency is capped, so boundedly many repeats drain the resident.
  for (int i = 0; i < 8; ++i) cache.InsertLabel(2, CacheLabelFor(2));
  ASSERT_TRUE(cache.LookupLabel(2, &out));
  EXPECT_EQ(out, CacheLabelFor(2));
  EXPECT_FALSE(cache.LookupLabel(1, &out));
}

TEST(ServingCache, ConcurrentHammerKeepsKeyValueInvariant) {
  // Hits must always return the label inserted for that exact key, under
  // contention (the TSan lane runs this too). The label is a pure function
  // of the item, so any torn/mismatched entry is detected.
  ServingCache cache(64);
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::atomic<int64_t> total_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &total_hits, t] {
      Rng rng(1000 + t);
      int64_t hits = 0;
      for (int i = 0; i < kOps; ++i) {
        const int item = rng.NextInt(0, 255);
        DataLabel label;
        if (cache.LookupLabel(item, &label)) {
          ASSERT_EQ(label, CacheLabelFor(item));
          ++hits;
        } else {
          cache.InsertLabel(item, CacheLabelFor(item));
        }
      }
      total_hits.fetch_add(hits);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(total_hits.load(), 0);
  const ServingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.label_hits, static_cast<uint64_t>(total_hits.load()));
  EXPECT_EQ(stats.label_hits + stats.label_misses,
            static_cast<uint64_t>(kThreads) * kOps);
}

TEST(ServingCache, EmptySnapshotsCarryNoCache) {
  ProvenanceIndex empty;
  EXPECT_EQ(empty.serving_cache(), nullptr);
  // A delta frozen with nothing appended since the last freeze wraps a
  // zero-item store, and gets no cache either.
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  auto session = service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 40, .seed = 1});
  const ProvenanceIndex delta = session->SnapshotDelta();
  ASSERT_GT(delta.num_items(), 0);
  // Its labeler wrote only in-grammar labels, so it comes back admitted.
  EXPECT_NE(delta.serving_cache()->admitted_by(), 0u);
  const ProvenanceIndex no_items = session->SnapshotDelta();
  EXPECT_EQ(no_items.num_items(), 0);
  EXPECT_EQ(no_items.serving_cache(), nullptr);
}

// ----- Differential: batch paths ≡ the one-at-a-time reference. -----

std::vector<std::pair<int, int>> RandomQueries(int num_items, int count,
                                               uint64_t seed) {
  // Skewed like real traffic: a quarter of the pairs repeat a small hot
  // set, so the label cache actually engages within and across batches.
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

// Per mode, answers one batch twice on a fresh index over `index`'s store
// (label cache cold, then warm) and sweeps it, comparing each result with
// the one-at-a-time reference.
void CheckBatchesMatchReference(ProvenanceService& service, ViewHandle view,
                                const ProvenanceIndex& index,
                                uint64_t seed) {
  const auto queries = RandomQueries(index.total_items(), 160, seed);
  for (ViewLabelMode mode : kAllModes) {
    const ProvenanceIndex fresh(index.store());
    const std::vector<bool> expected =
        testing::ReferenceDepends(service, view, index, queries, mode);
    EXPECT_EQ(service.DependsMany(view, fresh, queries, mode).value(),
              expected)
        << "cold, mode " << static_cast<int>(mode);
    EXPECT_EQ(service.DependsMany(view, fresh, queries, mode).value(),
              expected)
        << "warm, mode " << static_cast<int>(mode);
    // The warm pass must actually have come from the cache.
    EXPECT_GT(fresh.serving_cache()->stats().label_hits, 0u);
    EXPECT_EQ(service.VisibilitySweep(view, fresh, mode).value(),
              testing::ReferenceVisibility(service, view, index, mode))
        << "mode " << static_cast<int>(mode);
  }
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

  for (ViewHandle view : {service->default_view(), grey}) {
    CheckBatchesMatchReference(*service, view, index, 23);
  }
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

    std::vector<ProvenanceIndex> snapshots;
    for (int r = 0; r < 3; ++r) {
      RunGeneratorOptions run_options;
      run_options.target_items = 90 + 13 * r;
      run_options.seed = 700 + 10 * s + r;
      auto session = service->GenerateLabeledRun(run_options);
      snapshots.push_back(session->Snapshot());
      CheckBatchesMatchReference(*service, view, snapshots.back(),
                                 800 + 10 * s + r);
    }

    // Merged: flat-id pairs, including cross-run pairs (false by
    // definition).
    CheckBatchesMatchReference(*service, view,
                               ProvenanceIndex::Merge(snapshots).value(),
                               900 + s);
  }
}

// A pair across two runs is answered false before any decode: it touches
// neither the label cache nor the predicate, so a batch of only such pairs
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
  EXPECT_EQ(stats.reach_misses, 0u);
}

// S -> [m, n] with S: 1 -> 2. With `m_outputs` = 2, m's outputs are S's
// first output and n's input; with 1, m feeds n, whose two outputs are S's.
// Either way the grammar has one production of two members and at most two
// ports per module, so the two grammars' label codecs agree.
Specification TwoStageSpec(int m_outputs) {
  GrammarBuilder b;
  const ModuleId s = b.AddComposite("S", 1, 2);
  const ModuleId m = b.AddAtomic("m", 1, m_outputs);
  const ModuleId n = b.AddAtomic("n", 1, 3 - m_outputs);
  b.SetStart(s);
  auto p = b.NewProduction(s);
  const int pm = p.AddMember(m), pn = p.AddMember(n);
  p.MapInput(0, pm, 0).Edge(pm, m_outputs - 1, pn, 0);
  if (m_outputs == 2) {
    p.MapOutput(0, pm, 0).MapOutput(1, pn, 0);
  } else {
    p.MapOutput(0, pn, 0).MapOutput(1, pn, 1);
  }
  p.Build();
  b.SetCompleteDeps(m);
  b.SetCompleteDeps(n);
  return b.BuildSpecification();
}

TEST(CacheDifferential, VettingDoesNotLeakAcrossServices) {
  // Entries are keyed by item alone: an entry is the label the arena holds,
  // whichever service decoded it. Whether those labels fit a grammar is
  // what differs between services, and CheckIndexCompatible compares only
  // codec widths. B's module m has one output where A's has two, so B
  // accepts the codec of A's index, but one of its labels names m's second
  // output. A's snapshot comes admitted by A, and A warms the cache; B
  // still vets every label it reads, hits included, so a batch naming that
  // label is refused, and B's sweep refuses the whole index. C, with A's
  // own grammar, admits the index by sweeping it and then hits A's entries.
  auto service_a = ProvenanceService::Create(TwoStageSpec(2)).value();
  auto service_b = ProvenanceService::Create(TwoStageSpec(1)).value();
  auto service_c = ProvenanceService::Create(TwoStageSpec(2)).value();
  ASSERT_EQ(LabelCodec(service_b->production_graph()),
            LabelCodec(service_a->production_graph()));

  ProvenanceIndex index =
      service_a
          ->GenerateLabeledRun(RunGeneratorOptions{.target_items = 4,
                                                   .seed = 1})
          ->Snapshot();
  const int n = index.num_items();
  ASSERT_EQ(n, 4);
  int victim = -1;  // m's second output, the one label B's m lacks
  for (int item = 0; item < n; ++item) {
    const DataLabel label = index.Label(item);
    if (label.producer.has_value() && label.producer->port == 1) {
      victim = item;
    }
  }
  ASSERT_GE(victim, 0);
  std::vector<std::pair<int, int>> all, clean;
  for (int d1 = 0; d1 < n; ++d1) {
    for (int d2 = 0; d2 < n; ++d2) {
      all.push_back({d1, d2});
      if (d1 != victim && d2 != victim) clean.push_back({d1, d2});
    }
  }

  const uint64_t admitted_by_a = index.serving_cache()->admitted_by();
  ASSERT_NE(admitted_by_a, 0u);
  const std::vector<bool> expected =
      service_a->DependsMany(service_a->default_view(), index, all).value();
  EXPECT_EQ(index.serving_cache()->stats().label_misses,
            static_cast<uint64_t>(n));

  const ServingCacheStats before_b = index.serving_cache()->stats();
  Result<std::vector<bool>> refused =
      service_b->DependsMany(service_b->default_view(), index, all);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(refused.status().message(),
            "index label fields are out of range for this service's grammar");
  EXPECT_GT(index.serving_cache()->stats().label_hits, before_b.label_hits);
  EXPECT_TRUE(
      service_b->DependsMany(service_b->default_view(), index, clean).ok());
  EXPECT_EQ(service_b->VisibilitySweep(service_b->default_view(), index)
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(index.serving_cache()->admitted_by(), admitted_by_a);

  ASSERT_TRUE(service_c->VisibilitySweep(service_c->default_view(), index)
                  .ok());
  EXPECT_NE(index.serving_cache()->admitted_by(), admitted_by_a);
  const ServingCacheStats before_c = index.serving_cache()->stats();
  EXPECT_EQ(
      service_c->DependsMany(service_c->default_view(), index, all).value(),
      expected);
  EXPECT_GT(index.serving_cache()->stats().label_hits, before_c.label_hits);
}

TEST(CacheDifferential, OutOfRangeFailsColdAndWarm) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  RunGeneratorOptions options;
  options.target_items = 40;
  options.seed = 3;
  auto session = service->GenerateLabeledRun(options);
  ProvenanceIndex index = session->Snapshot();

  const std::vector<std::pair<int, int>> bad = {{0, index.num_items()}};
  const std::vector<std::pair<int, int>> warmup = {{0, 1}, {1, 2}};
  for (const char* pass : {"cold", "warm"}) {
    Result<std::vector<bool>> result =
        service->DependsMany(service->default_view(), index, bad);
    ASSERT_FALSE(result.ok()) << pass;
    EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument) << pass;
    ASSERT_TRUE(
        service->DependsMany(service->default_view(), index, warmup).ok());
  }
}

// ----- Cost contract, checked by counters. -----

// One DependsMany batch evaluates the predicate once per same-run pair
// (reach_misses) and looks each distinct item of those pairs up in the
// label cache exactly once (label_hits + label_misses), cold or warm; a
// VisibilitySweep moves no counter at all.
void CheckCostContract(ProvenanceService& service, ViewHandle view,
                       const ProvenanceIndex& index,
                       std::span<const std::pair<int, int>> queries) {
  uint64_t same_run = 0;
  std::set<int> distinct;
  for (const auto& [a, b] : queries) {
    if (index.RunOf(a) != index.RunOf(b)) continue;
    ++same_run;
    distinct.insert(a);
    distinct.insert(b);
  }
  const ServingCache& cache = *index.serving_cache();
  for (const char* pass : {"cold", "warm"}) {
    const ServingCacheStats before = cache.stats();
    ASSERT_TRUE(service.DependsMany(view, index, queries).ok());
    const ServingCacheStats after = cache.stats();
    EXPECT_EQ(after.reach_misses - before.reach_misses, same_run) << pass;
    EXPECT_EQ(after.label_hits + after.label_misses -
                  (before.label_hits + before.label_misses),
              distinct.size())
        << pass;

    ASSERT_TRUE(service.VisibilitySweep(view, index).ok());
    const ServingCacheStats swept = cache.stats();
    EXPECT_EQ(swept.label_hits, after.label_hits) << pass;
    EXPECT_EQ(swept.label_misses, after.label_misses) << pass;
    EXPECT_EQ(swept.reach_misses, after.reach_misses) << pass;
  }
}

TEST(CostContract, SingleRunBatchCountsPairsAndDistinctItems) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  ProvenanceIndex index =
      service
          ->GenerateLabeledRun(
              RunGeneratorOptions{.target_items = 400, .seed = 5})
          ->Snapshot();
  const int n = index.total_items();
  // A small batch takes the sparse branch, a large one the dense branch.
  for (int count : {n / 16, n}) {
    CheckCostContract(*service, service->default_view(), index,
                      RandomQueries(n, count, 41 + count));
  }
}

TEST(CostContract, MergedBatchCountsOnlySameRunPairs) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  std::vector<ProvenanceIndex> snapshots;
  for (uint64_t seed : {6, 7, 8}) {
    snapshots.push_back(
        service
            ->GenerateLabeledRun(
                RunGeneratorOptions{.target_items = 150, .seed = seed})
            ->Snapshot());
  }
  ProvenanceIndex merged = ProvenanceIndex::Merge(snapshots).value();
  const int n = merged.total_items();
  for (int count : {n / 16, n}) {
    CheckCostContract(*service, service->default_view(), merged,
                      RandomQueries(n, count, 43 + count));
  }
}

}  // namespace
}  // namespace fvl
