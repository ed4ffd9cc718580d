// Multi-run index merging (ProvenanceIndex::Merge + QueryAcrossRuns):
// a differential harness that checks, across randomized specifications,
// runs, views, and label modes, that answers from a merged index are
// bit-identical to per-run DependsMany answers and to the ground-truth
// oracle (whose reachability is built from the view's full assignment —
// λ* for the default view), plus the merge-specific error and edge cases.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/core/label_store.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/synthetic.h"
#include "fvl/workload/view_generator.h"

namespace fvl {
namespace {

constexpr ViewLabelMode kAllModes[] = {ViewLabelMode::kSpaceEfficient,
                                       ViewLabelMode::kDefault,
                                       ViewLabelMode::kQueryEfficient};

// A batch of labeled runs of one service, frozen individually and merged.
struct MergedRuns {
  std::vector<std::shared_ptr<ProvenanceSession>> sessions;
  std::vector<ProvenanceIndex> snapshots;
  ProvenanceIndex merged;
};

MergedRuns MakeRuns(const std::shared_ptr<ProvenanceService>& service,
                    int num_runs, int target_items, uint64_t seed) {
  MergedRuns out;
  for (int r = 0; r < num_runs; ++r) {
    RunGeneratorOptions options;
    options.target_items = target_items + 17 * r;
    options.seed = seed + r;
    out.sessions.push_back(service->GenerateLabeledRun(options));
    out.snapshots.push_back(out.sessions.back()->Snapshot());
  }
  out.merged = ProvenanceIndex::Merge(out.snapshots).value();
  return out;
}

// The differential core: per run, random same-run query pairs must get
// the same answers through QueryAcrossRuns on the merged index, through
// DependsMany on that run's own snapshot, and (whenever both items are
// visible) from the ProvenanceOracle over the run.
void CheckDifferential(ProvenanceService& service, const MergedRuns& runs,
                       ViewHandle view, ViewLabelMode mode,
                       int queries_per_run, uint64_t seed) {
  const CompiledView& compiled = *service.CompiledRegularView(view).value();
  for (size_t r = 0; r < runs.snapshots.size(); ++r) {
    const ProvenanceIndex& single = runs.snapshots[r];
    ASSERT_GT(single.num_items(), 0);
    Rng rng(seed + r);
    std::vector<std::pair<int, int>> local;
    std::vector<std::pair<RunItem, RunItem>> addressed;
    for (int q = 0; q < queries_per_run; ++q) {
      int d1 = rng.NextInt(0, single.num_items() - 1);
      int d2 = rng.NextInt(0, single.num_items() - 1);
      local.push_back({d1, d2});
      addressed.push_back({{static_cast<int>(r), d1},
                           {static_cast<int>(r), d2}});
    }

    Result<std::vector<bool>> merged_answers =
        service.QueryAcrossRuns(view, runs.merged, addressed, mode);
    ASSERT_TRUE(merged_answers.ok()) << merged_answers.status().ToString();
    Result<std::vector<bool>> single_answers =
        service.DependsMany(view, single, local, mode);
    ASSERT_TRUE(single_answers.ok()) << single_answers.status().ToString();
    ASSERT_EQ(*merged_answers, *single_answers)
        << "run " << r << " view " << view.id() << " mode "
        << static_cast<int>(mode);

    ProvenanceOracle oracle(runs.sessions[r]->run(), compiled);
    for (size_t q = 0; q < local.size(); ++q) {
      auto [d1, d2] = local[q];
      if (!oracle.ItemVisible(d1) || !oracle.ItemVisible(d2)) continue;
      ASSERT_EQ((*merged_answers)[q], oracle.Depends(d1, d2))
          << "run " << r << " d1=" << d1 << " d2=" << d2 << " view "
          << view.id() << " mode " << static_cast<int>(mode);
    }
  }
}

// ----- Differential harness. -----

TEST(MergeDifferential, PaperViewsAllModes) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();

  MergedRuns runs = MakeRuns(service, 4, 120, 31);
  ASSERT_EQ(runs.merged.num_runs(), 4);
  for (ViewHandle view : {service->default_view(), grey}) {
    for (ViewLabelMode mode : kAllModes) {
      CheckDifferential(*service, runs, view, mode, 120, 7);
    }
  }
}

TEST(MergeDifferential, RandomizedSyntheticSpecs) {
  // 12 randomized specifications × 4 runs each (plus the paper fixture's 4
  // above) ≈ 50 specification/run combinations through the harness; label
  // modes rotate per specification so all three stay covered.
  Rng meta(2026);
  int combos = 0;
  for (int s = 0; s < 12; ++s) {
    SyntheticOptions options;
    options.workflow_size = meta.NextInt(4, 8);
    options.module_degree = meta.NextInt(2, 3);
    options.nesting_depth = meta.NextInt(1, 2);
    options.recursion_length = meta.NextInt(2, 3);
    options.seed = 100 + s;
    Workload workload = MakeSynthetic(options);
    auto service = ProvenanceService::Create(workload.spec).value();

    ViewGeneratorOptions view_options;
    view_options.num_expandable = meta.NextInt(1, 3);
    view_options.deps =
        (s % 2 != 0) ? PerceivedDeps::kGreyBox : PerceivedDeps::kWhiteBox;
    view_options.seed = 500 + s;
    CompiledView generated = GenerateSafeView(workload, view_options);
    ViewHandle view = service->RegisterView(generated.view()).value();

    MergedRuns runs = MakeRuns(service, 4, 40 + 10 * (s % 4), 1000 + s);
    combos += static_cast<int>(runs.snapshots.size());
    ViewLabelMode mode = kAllModes[s % 3];
    CheckDifferential(*service, runs, service->default_view(), mode, 80,
                      40 + s);
    CheckDifferential(*service, runs, view, mode, 80, 90 + s);
  }
  EXPECT_GE(combos + 4, 50);  // + the paper fixture's runs
}

TEST(MergeDifferential, MergedLabelsAreBitIdenticalToPerRunSnapshots) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  MergedRuns runs = MakeRuns(service, 3, 100, 5);
  ASSERT_EQ(runs.merged.total_items(),
            runs.snapshots[0].num_items() + runs.snapshots[1].num_items() +
                runs.snapshots[2].num_items());
  for (size_t r = 0; r < runs.snapshots.size(); ++r) {
    ASSERT_EQ(runs.merged.num_items(static_cast<int>(r)),
              runs.snapshots[r].num_items());
    for (int item = 0; item < runs.snapshots[r].num_items(); ++item) {
      ASSERT_EQ(runs.merged.Label(static_cast<int>(r), item),
                runs.snapshots[r].Label(item))
          << "run " << r << " item " << item;
      ASSERT_EQ(runs.merged.LabelBits(static_cast<int>(r), item),
                runs.snapshots[r].LabelBits(item));
    }
  }
}

TEST(MergeDifferential, CrossRunPairsAreIndependent) {
  // Pairs within one run answer exactly as the decoding predicate over the
  // two (relocated) labels; pairs spanning two runs are false by definition
  // — separate executions share no data flow, and the predicate's
  // path-prefix comparisons are only meaningful inside one parse tree.
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();
  MergedRuns runs = MakeRuns(service, 3, 90, 77);

  Rng rng(123);
  std::vector<std::pair<RunItem, RunItem>> queries;
  for (int q = 0; q < 300; ++q) {
    RunItem a{rng.NextInt(0, runs.merged.num_runs() - 1), 0};
    RunItem b{rng.NextInt(0, runs.merged.num_runs() - 1), 0};
    a.item = rng.NextInt(0, runs.merged.num_items(a.run) - 1);
    b.item = rng.NextInt(0, runs.merged.num_items(b.run) - 1);
    queries.push_back({a, b});
  }
  std::vector<bool> answers =
      service->QueryAcrossRuns(grey, runs.merged, queries).value();
  int cross = 0, positives = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto [a, b] = queries[q];
    if (a.run != b.run) {
      EXPECT_FALSE(answers[q]) << "cross-run query " << q;
      ++cross;
    } else {
      EXPECT_EQ(answers[q],
                service
                    ->Depends(grey, runs.merged.Label(a.run, a.item),
                              runs.merged.Label(b.run, b.item))
                    .value())
          << "query " << q;
      positives += answers[q];
    }
  }
  EXPECT_GT(cross, 50);      // the sample genuinely exercised both kinds
  EXPECT_GT(positives, 0);   // and some same-run pairs do depend

  // The flat-id overload agrees with the (run, item) addressing.
  std::vector<std::pair<int, int>> flat;
  for (const auto& [a, b] : queries) {
    flat.push_back({runs.merged.GlobalId(a.run, a.item),
                    runs.merged.GlobalId(b.run, b.item)});
  }
  EXPECT_EQ(service->DependsMany(grey, runs.merged, flat).value(), answers);
}

TEST(MergeDifferential, VisibilitySweepMatchesPerRunSweeps) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();
  MergedRuns runs = MakeRuns(service, 3, 80, 11);

  std::vector<bool> merged_sweep =
      service->VisibilitySweep(grey, runs.merged).value();
  std::vector<bool> concatenated;
  for (const ProvenanceIndex& single : runs.snapshots) {
    std::vector<bool> sweep = service->VisibilitySweep(grey, single).value();
    concatenated.insert(concatenated.end(), sweep.begin(), sweep.end());
  }
  EXPECT_EQ(merged_sweep, concatenated);
}

// ----- Serialization. -----

TEST(MergeSerialization, SelfDescribingRoundTrip) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  MergedRuns runs = MakeRuns(service, 3, 100, 19);

  std::string blob = runs.merged.Serialize();
  Result<ProvenanceIndex> restored =
      ProvenanceIndex::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->num_runs(), runs.merged.num_runs());
  ASSERT_EQ(restored->total_items(), runs.merged.total_items());
  for (int r = 0; r < restored->num_runs(); ++r) {
    ASSERT_EQ(restored->num_items(r), runs.merged.num_items(r));
    for (int item = 0; item < restored->num_items(r); ++item) {
      ASSERT_EQ(restored->Label(r, item), runs.merged.Label(r, item));
    }
  }
  EXPECT_EQ(restored->Serialize(), blob);

  // Queries run identically against the restored artifact.
  Rng rng(3);
  std::vector<std::pair<RunItem, RunItem>> queries;
  for (int q = 0; q < 100; ++q) {
    RunItem a{rng.NextInt(0, 2), 0}, b{rng.NextInt(0, 2), 0};
    a.item = rng.NextInt(0, restored->num_items(a.run) - 1);
    b.item = rng.NextInt(0, restored->num_items(b.run) - 1);
    queries.push_back({a, b});
  }
  ViewHandle view = service->default_view();
  EXPECT_EQ(service->QueryAcrossRuns(view, *restored, queries).value(),
            service->QueryAcrossRuns(view, runs.merged, queries).value());
}

// ----- Errors and edge cases. -----

TEST(MergeErrors, MismatchedSpecificationsRejected) {
  auto paper = ProvenanceService::Create(MakePaperExample().spec).value();
  auto bioaid = ProvenanceService::Create(MakeBioAid(2012).spec).value();
  std::vector<ProvenanceIndex> mixed;
  mixed.push_back(paper
                      ->GenerateLabeledRun(
                          RunGeneratorOptions{.target_items = 50, .seed = 1})
                      ->Snapshot());
  mixed.push_back(bioaid
                      ->GenerateLabeledRun(
                          RunGeneratorOptions{.target_items = 50, .seed = 2})
                      ->Snapshot());
  Result<ProvenanceIndex> merged = ProvenanceIndex::Merge(mixed);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.code(), ErrorCode::kInvalidArgument);

  // A merged index of another specification is turned away by the service.
  std::vector<ProvenanceIndex> foreign(1, std::move(mixed[1]));
  ProvenanceIndex foreign_merged = ProvenanceIndex::Merge(foreign).value();
  std::vector<std::pair<RunItem, RunItem>> queries = {{{0, 0}, {0, 1}}};
  EXPECT_EQ(paper
                ->QueryAcrossRuns(paper->default_view(), foreign_merged,
                                  queries)
                .code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(
      paper->VisibilitySweep(paper->default_view(), foreign_merged).code(),
      ErrorCode::kInvalidArgument);
}

TEST(MergeErrors, ForeignViewHandleReturnsNotFound) {
  // Two services over the *same* specification: indexes are codec-compatible
  // across them, but a handle issued by one must not resolve on the other.
  auto a = ProvenanceService::Create(MakePaperExample().spec).value();
  auto b = ProvenanceService::Create(MakePaperExample().spec).value();
  MergedRuns runs = MakeRuns(a, 2, 60, 9);

  ViewHandle foreign = b->default_view();
  std::vector<std::pair<RunItem, RunItem>> queries = {{{0, 0}, {1, 0}}};
  EXPECT_EQ(a->QueryAcrossRuns(foreign, runs.merged, queries).code(),
            ErrorCode::kNotFound);
  std::vector<std::pair<int, int>> flat = {{0, 1}};
  EXPECT_EQ(a->DependsMany(foreign, runs.merged, flat).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(a->DependsMany(foreign, runs.snapshots[0], flat).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(a->VisibilitySweep(foreign, runs.merged).code(),
            ErrorCode::kNotFound);
}

TEST(MergeErrors, OutOfRangeAddressesRejected) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  MergedRuns runs = MakeRuns(service, 2, 60, 13);
  ViewHandle view = service->default_view();

  for (auto bad : std::vector<std::pair<RunItem, RunItem>>{
           {{-1, 0}, {0, 0}},
           {{2, 0}, {0, 0}},
           {{0, -1}, {0, 0}},
           {{0, 0}, {1, runs.merged.num_items(1)}}}) {
    std::vector<std::pair<RunItem, RunItem>> queries = {bad};
    EXPECT_EQ(service->QueryAcrossRuns(view, runs.merged, queries).code(),
              ErrorCode::kInvalidArgument);
  }
  std::vector<std::pair<int, int>> bad_flat = {
      {0, runs.merged.total_items()}};
  EXPECT_EQ(service->DependsMany(view, runs.merged, bad_flat).code(),
            ErrorCode::kInvalidArgument);
}

TEST(MergeEdgeCases, EmptyInputsGiveEmptyResultsNotErrors) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  ViewHandle view = service->default_view();

  // Merging nothing yields an empty artifact, not an error.
  std::vector<ProvenanceIndex> none;
  Result<ProvenanceIndex> empty = ProvenanceIndex::Merge(none);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->num_runs(), 0);
  EXPECT_EQ(empty->total_items(), 0);

  // Empty query spans return empty answers on both empty and non-empty
  // merged indexes.
  std::vector<std::pair<RunItem, RunItem>> no_queries;
  std::vector<std::pair<int, int>> no_flat;
  EXPECT_TRUE(
      service->QueryAcrossRuns(view, *empty, no_queries).value().empty());
  EXPECT_TRUE(service->DependsMany(view, *empty, no_flat).value().empty());
  EXPECT_TRUE(service->VisibilitySweep(view, *empty).value().empty());

  MergedRuns runs = MakeRuns(service, 2, 60, 21);
  EXPECT_TRUE(
      service->QueryAcrossRuns(view, runs.merged, no_queries).value().empty());
  EXPECT_TRUE(
      service->DependsMany(view, runs.merged, no_flat).value().empty());

  // The empty artifact round-trips through serialization.
  Result<ProvenanceIndex> restored =
      ProvenanceIndex::Deserialize(empty->Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_runs(), 0);
}

// ----- Incremental snapshots (SnapshotDelta / FromDeltas). -----

// Applies up to `steps` random derivation steps to a live session (random
// frontier instance, random applicable production — the policy of
// examples/streaming_provenance.cc).
void ApplyRandomSteps(ProvenanceSession& session, Rng& rng, int steps) {
  const Grammar& grammar = session.service()->grammar();
  for (int s = 0; s < steps && !session.complete(); ++s) {
    const std::vector<int>& frontier = session.run().Frontier();
    int instance = frontier[rng.NextBounded(frontier.size())];
    ModuleId type = session.run().instance(instance).type;
    const auto& productions = grammar.ProductionsOf(type);
    ProductionId production = productions[rng.NextBounded(productions.size())];
    ASSERT_TRUE(session.Apply(instance, production).ok());
  }
}

TEST(SnapshotDelta, RandomizedFreezePointsReassembleBitIdentically) {
  // Randomized sessions frozen at arbitrary points: the FromDeltas
  // reassembly must equal a full Snapshot() *bit for bit* (serialized
  // golden comparison), and its answers must match the full snapshot's and
  // the ground-truth oracle's across all three label modes.
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  ViewHandle grey = service->RegisterView(ex.grey_view).value();

  Rng rng(909);
  for (int trial = 0; trial < 6; ++trial) {
    auto session = service->BeginRun();
    std::vector<ProvenanceIndex> deltas;
    // A fresh session already has the start module's boundary items; the
    // first delta may therefore be non-empty before any Apply.
    if (trial % 2 == 0) deltas.push_back(session->SnapshotDelta());
    while (!session->complete()) {
      ApplyRandomSteps(*session, rng, 1 + static_cast<int>(rng.NextBounded(9)));
      if (rng.NextBounded(2) == 0) {
        int watermark = session->frozen_items();
        deltas.push_back(session->SnapshotDelta());
        EXPECT_EQ(session->frozen_items(),
                  watermark + deltas.back().num_items());
      }
    }
    deltas.push_back(session->SnapshotDelta());  // tail of the run
    ASSERT_GE(deltas.size(), 2u);

    ProvenanceIndex full = session->Snapshot();
    Result<ProvenanceIndex> reassembled = ProvenanceIndex::FromDeltas(deltas);
    ASSERT_TRUE(reassembled.ok()) << reassembled.status().ToString();
    ASSERT_EQ(reassembled->num_items(), full.num_items());
    EXPECT_EQ(reassembled->Serialize(), full.Serialize()) << "trial " << trial;

    // Differential: reassembled ≡ full ≡ oracle, every mode, both views.
    for (ViewHandle view : {service->default_view(), grey}) {
      const CompiledView& compiled =
          *service->CompiledRegularView(view).value();
      ProvenanceOracle oracle(session->run(), compiled);
      std::vector<std::pair<int, int>> queries;
      for (int q = 0; q < 120; ++q) {
        queries.push_back({rng.NextInt(0, full.num_items() - 1),
                           rng.NextInt(0, full.num_items() - 1)});
      }
      for (ViewLabelMode mode : kAllModes) {
        std::vector<bool> from_deltas =
            service->DependsMany(view, *reassembled, queries, mode).value();
        std::vector<bool> from_full =
            service->DependsMany(view, full, queries, mode).value();
        ASSERT_EQ(from_deltas, from_full)
            << "trial " << trial << " mode " << static_cast<int>(mode);
        for (size_t q = 0; q < queries.size(); ++q) {
          auto [d1, d2] = queries[q];
          if (!oracle.ItemVisible(d1) || !oracle.ItemVisible(d2)) continue;
          ASSERT_EQ(from_deltas[q], oracle.Depends(d1, d2))
              << "trial " << trial << " d1=" << d1 << " d2=" << d2;
        }
      }
    }
  }
}

TEST(SnapshotDelta, DeltaErrorsAndEdgeCases) {
  auto paper = ProvenanceService::Create(MakePaperExample().spec).value();
  auto bioaid = ProvenanceService::Create(MakeBioAid(2012).spec).value();

  // Empty span: no codec to infer.
  std::vector<ProvenanceIndex> none;
  EXPECT_EQ(ProvenanceIndex::FromDeltas(none).code(),
            ErrorCode::kInvalidArgument);

  // Mixed specifications are rejected, same taxonomy as Merge.
  std::vector<ProvenanceIndex> mixed;
  mixed.push_back(paper
                      ->GenerateLabeledRun(
                          RunGeneratorOptions{.target_items = 40, .seed = 1})
                      ->Snapshot());
  mixed.push_back(bioaid
                      ->GenerateLabeledRun(
                          RunGeneratorOptions{.target_items = 40, .seed = 2})
                      ->Snapshot());
  EXPECT_EQ(ProvenanceIndex::FromDeltas(mixed).code(),
            ErrorCode::kInvalidArgument);

  // A delta is one run: an index of any other run count is not.
  std::vector<ProvenanceIndex> two_runs = {mixed[0], mixed[0]};
  std::vector<ProvenanceIndex> many_run_delta = {
      ProvenanceIndex::Merge(two_runs).value()};
  EXPECT_EQ(ProvenanceIndex::FromDeltas(many_run_delta).code(),
            ErrorCode::kInvalidArgument);
  std::vector<ProvenanceIndex> zero_run_delta = {mixed[0], ProvenanceIndex()};
  EXPECT_EQ(ProvenanceIndex::FromDeltas(zero_run_delta).code(),
            ErrorCode::kInvalidArgument);

  // SnapshotDelta with nothing new yields an empty delta; reassembly
  // tolerates it (the empty arena range appends as a no-op).
  auto session = paper->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 50, .seed = 3});
  std::vector<ProvenanceIndex> deltas;
  deltas.push_back(session->SnapshotDelta());
  deltas.push_back(session->SnapshotDelta());  // empty: watermark at end
  EXPECT_EQ(deltas[1].num_items(), 0);
  Result<ProvenanceIndex> reassembled = ProvenanceIndex::FromDeltas(deltas);
  ASSERT_TRUE(reassembled.ok()) << reassembled.status().ToString();
  EXPECT_EQ(reassembled->Serialize(), session->Snapshot().Serialize());

  // A delta round-trips through serialization like any single-run index.
  Result<ProvenanceIndex> restored =
      ProvenanceIndex::Deserialize(deltas[0].Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_items(), deltas[0].num_items());
}

TEST(SnapshotDelta, EmptyDeltaMidSequenceReassemblesBitIdentically) {
  // Regression: an empty delta in the MIDDLE of a delta sequence (a
  // freeze immediately followed by another freeze with zero labels
  // appended in between, then more derivation). The empty delta's arena
  // range is zero-width but its codec and frame metadata must still
  // splice cleanly between its non-empty neighbours — both when the
  // deltas are reassembled in memory and after every delta round-trips
  // through Serialize/Deserialize.
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();

  Rng rng(4242);
  auto session = service->BeginRun();
  std::vector<ProvenanceIndex> deltas;
  deltas.push_back(session->SnapshotDelta());  // boundary items of the start
  deltas.push_back(session->SnapshotDelta());  // immediately again: empty
  EXPECT_EQ(deltas.back().num_items(), 0);
  while (!session->complete()) {
    ApplyRandomSteps(*session, rng, 1 + static_cast<int>(rng.NextBounded(6)));
    deltas.push_back(session->SnapshotDelta());
    deltas.push_back(session->SnapshotDelta());  // empty twin after each freeze
    EXPECT_EQ(deltas.back().num_items(), 0);
  }
  ASSERT_GE(deltas.size(), 4u);

  const std::string golden = session->Snapshot().Serialize();
  Result<ProvenanceIndex> in_memory = ProvenanceIndex::FromDeltas(deltas);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_EQ(in_memory->Serialize(), golden);

  // The same sequence with every delta (including the empty ones) pushed
  // through the blob format first.
  std::vector<ProvenanceIndex> round_tripped;
  for (const ProvenanceIndex& delta : deltas) {
    Result<ProvenanceIndex> restored =
        ProvenanceIndex::Deserialize(delta.Serialize());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->num_items(), delta.num_items());
    round_tripped.push_back(std::move(restored).value());
  }
  Result<ProvenanceIndex> from_blobs = ProvenanceIndex::FromDeltas(round_tripped);
  ASSERT_TRUE(from_blobs.ok()) << from_blobs.status().ToString();
  EXPECT_EQ(from_blobs->Serialize(), golden);
}

// ----- Streamed k-way merge (CompactStream / MergeRunsStreamed). -----

TEST(CompactStreamTest, BitIdenticalToMerge) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  MergedRuns runs = MakeRuns(service, 4, 110, 23);

  std::vector<std::string> blobs;
  for (const ProvenanceIndex& snapshot : runs.snapshots) {
    blobs.push_back(snapshot.Serialize());
  }

  CompactStream from_blobs;
  CompactStream from_indexes;
  for (size_t r = 0; r < blobs.size(); ++r) {
    ASSERT_TRUE(from_blobs.Append(std::string_view(blobs[r])).ok());
    ASSERT_TRUE(from_indexes.Append(runs.snapshots[r]).ok());
  }
  EXPECT_EQ(from_blobs.num_runs(), 4);
  ProvenanceIndex streamed = std::move(from_blobs).Finish().value();

  // Every streaming path and the materialized path are one artifact: byte
  // for byte equal blobs, equal addressing, equal answers.
  EXPECT_EQ(streamed.Serialize(), runs.merged.Serialize());
  EXPECT_EQ(std::move(from_indexes).Finish().value().Serialize(),
            runs.merged.Serialize());

  std::vector<std::string_view> views(blobs.begin(), blobs.end());
  ProvenanceIndex via_service = service->MergeRunsStreamed(views).value();
  EXPECT_EQ(via_service.Serialize(), runs.merged.Serialize());

  // Folding an already-merged input in appends its runs in stored order:
  // {merge(0, 1), 2, 3} is the same artifact again.
  std::vector<ProvenanceIndex> head(runs.snapshots.begin(),
                                    runs.snapshots.begin() + 2);
  CompactStream folded;
  ASSERT_TRUE(folded.Append(ProvenanceIndex::Merge(head).value()).ok());
  ASSERT_TRUE(folded.Append(std::string_view(blobs[2])).ok());
  ASSERT_TRUE(folded.Append(runs.snapshots[3]).ok());
  EXPECT_EQ(std::move(folded).Finish().value().Serialize(),
            runs.merged.Serialize());

  Rng rng(77);
  std::vector<std::pair<RunItem, RunItem>> queries;
  for (int q = 0; q < 200; ++q) {
    RunItem a{rng.NextInt(0, 3), 0}, b{rng.NextInt(0, 3), 0};
    a.item = rng.NextInt(0, streamed.num_items(a.run) - 1);
    b.item = rng.NextInt(0, streamed.num_items(b.run) - 1);
    queries.push_back({a, b});
  }
  ViewHandle view = service->default_view();
  EXPECT_EQ(service->QueryAcrossRuns(view, streamed, queries).value(),
            service->QueryAcrossRuns(view, runs.merged, queries).value());
}

TEST(CompactStreamTest, HoldsAtMostOneInputStoreAtATime) {
  // The memory-boundedness contract, asserted via the store-count probe:
  // the stream's peak live-store count is a small constant — the output
  // plus the one input being appended (plus bounded move transients) —
  // *independent of the number of runs*, while the materialized path holds
  // every deserialized input simultaneously.
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();

  auto make_blobs = [&](int num_runs) {
    std::vector<std::string> blobs;
    for (int r = 0; r < num_runs; ++r) {
      blobs.push_back(
          service
              ->GenerateLabeledRun(RunGeneratorOptions{
                  .target_items = 80, .seed = 400 + static_cast<uint64_t>(r)})
              ->Snapshot()
              .Serialize());
    }
    return blobs;
  };

  auto streamed_peak = [&](const std::vector<std::string>& blobs) {
    const int base = internal::StoreCountProbe::live();
    internal::StoreCountProbe::ResetPeak();
    CompactStream stream;
    for (const std::string& blob : blobs) {
      EXPECT_TRUE(stream.Append(std::string_view(blob)).ok());
      // Between appends, only the stream's own output store is alive.
      EXPECT_EQ(internal::StoreCountProbe::live(), base + 1);
    }
    ProvenanceIndex merged = std::move(stream).Finish().value();
    EXPECT_GT(merged.total_items(), 0);
    return internal::StoreCountProbe::peak() - base;
  };

  std::vector<std::string> blobs4 = make_blobs(4);
  std::vector<std::string> blobs16 = make_blobs(16);
  int peak4 = streamed_peak(blobs4);
  int peak16 = streamed_peak(blobs16);
  // One output + one deserialized input + the parse/move transients inside
  // Deserialize — and no growth whatsoever with the number of runs.
  EXPECT_LE(peak16, 8);
  EXPECT_EQ(peak16, peak4);

  // The materialized baseline necessarily holds all inputs at once.
  {
    const int base = internal::StoreCountProbe::live();
    internal::StoreCountProbe::ResetPeak();
    std::vector<ProvenanceIndex> materialized;
    for (const std::string& blob : blobs16) {
      materialized.push_back(ProvenanceIndex::Deserialize(blob).value());
    }
    ProvenanceIndex merged = ProvenanceIndex::Merge(materialized).value();
    EXPECT_GT(merged.total_items(), 0);
    EXPECT_GE(internal::StoreCountProbe::peak() - base, 16);
  }
}

TEST(CompactStreamTest, ErrorTaxonomyNeverAborts) {
  auto paper = ProvenanceService::Create(MakePaperExample().spec).value();
  auto bioaid = ProvenanceService::Create(MakeBioAid(2012).spec).value();
  ProvenanceIndex paper_run = paper
          ->GenerateLabeledRun(RunGeneratorOptions{.target_items = 60,
                                                   .seed = 5})
          ->Snapshot();
  ProvenanceIndex bioaid_run = bioaid
          ->GenerateLabeledRun(RunGeneratorOptions{.target_items = 60,
                                                   .seed = 6})
          ->Snapshot();
  std::string paper_blob = paper_run.Serialize();
  std::string bioaid_blob = bioaid_run.Serialize();

  // Corrupt blob: kMalformedBlob, and the stream survives to accept more.
  CompactStream stream;
  std::string corrupt = paper_blob;
  corrupt[3] = 'X';
  Status bad_magic = stream.Append(std::string_view(corrupt));
  EXPECT_EQ(bad_magic.code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(stream.num_runs(), 0);
  // An index without runs contributes nothing and pins no codec.
  ASSERT_TRUE(stream.Append(ProvenanceIndex()).ok());
  ASSERT_TRUE(stream.Append(std::string_view(paper_blob)).ok());
  EXPECT_EQ(stream
                .Append(std::string_view(paper_blob).substr(
                    0, paper_blob.size() / 2))
                .code(),
            ErrorCode::kMalformedBlob);
  // Codec mismatch against the runs already appended: kInvalidArgument,
  // serialized or in memory.
  EXPECT_EQ(stream.Append(std::string_view(bioaid_blob)).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(stream.Append(bioaid_run).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(stream.num_runs(), 1);
  ProvenanceIndex merged = std::move(stream).Finish().value();
  EXPECT_EQ(merged.num_runs(), 1);

  // Service entry point: same taxonomy, with the failing blob named; a
  // consistent batch of *foreign* blobs is rejected against the service.
  std::vector<std::string_view> mixed = {paper_blob, bioaid_blob};
  Result<ProvenanceIndex> rejected = paper->MergeRunsStreamed(mixed);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("blob 1"), std::string::npos);

  std::vector<std::string_view> with_corrupt = {paper_blob, corrupt};
  EXPECT_EQ(paper->MergeRunsStreamed(with_corrupt).code(),
            ErrorCode::kMalformedBlob);

  // The foreign batch fails on its first blob, before the corrupt second
  // one is even parsed.
  std::vector<std::string_view> foreign = {bioaid_blob, corrupt};
  EXPECT_EQ(paper->MergeRunsStreamed(foreign).code(),
            ErrorCode::kInvalidArgument);

  // Empty span: empty index, not an error (as Merge).
  std::vector<std::string_view> none;
  Result<ProvenanceIndex> empty = paper->MergeRunsStreamed(none);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty->num_runs(), 0);
}

// The FVLMRG2 tail is the same compressed span stream as FVLIDX3, shifted
// by the run table: targeted corruption of its version byte and block-0
// vbyte must reject recoverably.
TEST(MergeSerialization, V2MergedTailCorruptionRejected) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  MergedRuns runs = MakeRuns(service, 2, 50, 37);
  std::string blob = runs.merged.Serialize();
  ASSERT_EQ(blob.compare(0, 7, "FVLMRG2"), 0);
  // Header: 8 magic + 3 u64 scalars + one u64 per run, then 5 codec width
  // bytes, the tail-format version byte, u64 span_bits, span words.
  const size_t version_at = 8 + 3 * 8 + 2 * 8 + 5;
  const size_t first_span_byte = version_at + 1 + 8;

  std::string bad_version = blob;
  bad_version[version_at] = 7;
  Result<ProvenanceIndex> rejected =
      ProvenanceIndex::Deserialize(bad_version);
  EXPECT_EQ(rejected.code(), ErrorCode::kMalformedBlob);
  EXPECT_EQ(rejected.status().message(), "unsupported tail-format version");

  std::string bad_vbyte = blob;
  bad_vbyte[first_span_byte] =
      static_cast<char>(bad_vbyte[first_span_byte] | 0x80);
  EXPECT_EQ(ProvenanceIndex::Deserialize(bad_vbyte).code(),
            ErrorCode::kMalformedBlob);

  // Truncation inside the span stream (block headers cut mid-word).
  EXPECT_EQ(ProvenanceIndex::Deserialize(
                blob.substr(0, first_span_byte + 3))
                .code(),
            ErrorCode::kMalformedBlob);
}

TEST(MergeEdgeCases, ZeroItemRunsMergeCleanly) {
  // A run frozen before producing anything occupies a (run, ·) slot with
  // zero items; neighbors keep their labels and addressing.
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  auto session = service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 60, .seed = 2});
  std::vector<ProvenanceIndex> snapshots;
  snapshots.push_back(
      ProvenanceIndexBuilder(service->production_graph()).Build());
  snapshots.push_back(session->Snapshot());
  ProvenanceIndex merged = ProvenanceIndex::Merge(snapshots).value();
  ASSERT_EQ(merged.num_runs(), 2);
  EXPECT_EQ(merged.num_items(0), 0);
  ASSERT_EQ(merged.num_items(1), session->num_items());
  for (int item = 0; item < merged.num_items(1); ++item) {
    ASSERT_EQ(merged.Label(1, item), snapshots[1].Label(item));
  }
  Result<ProvenanceIndex> restored =
      ProvenanceIndex::Deserialize(merged.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_items(0), 0);
  EXPECT_EQ(restored->num_items(1), merged.num_items(1));
}

}  // namespace
}  // namespace fvl
