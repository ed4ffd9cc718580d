// The on-disk index tier (util/file.h, util/blob_source.h, Map/CompactFiles):
//
//   * differential — a file-served (mmap, borrowed-arena) index must answer
//     every query bit-identically to the heap Deserialize round trip and to
//     the ground-truth oracle, across all three ViewLabelModes, single-run
//     and merged;
//   * ownership — a store copied out of a file-served index keeps the
//     mapping alive and decodes after the index is gone, and mutating a
//     mapped store aborts;
//   * compaction — CompactFiles output is byte-identical to a from-scratch
//     Merge of the same snapshots, including when the inputs are themselves
//     merged archives (re-merge without flattening), its peak live-store
//     count is independent of the input count (one parsed input alive at a
//     time), and writing its output over a served archive neither disturbs
//     that archive's mapping nor, when the write fails, its file;
//   * crash recovery — a run checkpointed as delta files survives a torn
//     final write: the surviving prefix reassembles via FromDeltas into
//     exactly the snapshot at that watermark, and the torn tail is rejected
//     as kMalformedBlob, never an abort;
//   * golden archives — tests/testdata holds one committed FVLIDX3 and one
//     FVLMRG2 file; the suite Map()s them and checks they still match what
//     the same seed produces today, so a serialization format change that
//     forgets to bump the tail-format version fails here first. Regenerate
//     with FVL_REGEN_GOLDEN=1 ./disk_tier_test.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/core/label_store.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/file.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "test_util.h"

namespace fvl {
namespace {

constexpr ViewLabelMode kAllModes[] = {ViewLabelMode::kSpaceEfficient,
                                       ViewLabelMode::kDefault,
                                       ViewLabelMode::kQueryEfficient};

std::string TempPath(const std::string& name) {
  return "/tmp/fvl_disk_tier_" + name;
}

void WriteFileOrDie(const std::string& path, std::string_view blob) {
  FileHandle out = FileHandle::CreateTruncate(path).value();
  ASSERT_TRUE(out.WriteAll(blob).ok());
  ASSERT_TRUE(out.Close().ok());
}

std::string ReadFileOrDie(const std::string& path) {
  return FileHandle::OpenRead(path).value().ReadAll().value();
}

// Paper-example service with registered views; every suite below shares
// this shape. The mapped and heap indexes each carry their own label
// cache, so neither path can answer from labels the other decoded.
struct Fixture {
  PaperExample example;
  std::shared_ptr<ProvenanceService> service;
  ViewHandle grey;

  Fixture() : example(MakePaperExample()) {
    service = ProvenanceService::Create(example.spec).value();
    grey = service->RegisterView(example.grey_view).value();
  }

  std::vector<ViewHandle> views() { return {service->default_view(), grey}; }
};

// ----- Differential: mapped == heap == oracle. -----

TEST(DiskTierDifferential, SingleRunMappedMatchesHeapAndOracle) {
  Fixture fx;
  auto session = fx.service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 220, .seed = 41});
  ProvenanceIndex heap = session->Snapshot();
  const std::string blob = heap.Serialize();
  const std::string path = TempPath("single.fvlidx");
  WriteFileOrDie(path, blob);

  ProvenanceIndex mapped = ProvenanceIndex::Map(path).value();
  // The mapping, not a copy, backs the label arena (unless this run
  // happened to produce no labels).
  EXPECT_TRUE(mapped.store().arena_borrowed() ||
              mapped.store().arena_bits() == 0);
  // Serialization is the identity on the mapped form too.
  EXPECT_EQ(mapped.Serialize(), blob);

  Rng rng(7);
  std::vector<std::pair<int, int>> queries;
  for (int q = 0; q < 160; ++q) {
    queries.push_back({rng.NextInt(0, heap.num_items() - 1),
                       rng.NextInt(0, heap.num_items() - 1)});
  }
  for (ViewHandle view : fx.views()) {
    const CompiledView& compiled =
        *fx.service->CompiledRegularView(view).value();
    ProvenanceOracle oracle(session->run(), compiled);
    for (ViewLabelMode mode : kAllModes) {
      std::vector<bool> from_heap =
          fx.service->DependsMany(view, heap, queries, mode).value();
      std::vector<bool> from_map =
          fx.service->DependsMany(view, mapped, queries, mode).value();
      ASSERT_EQ(from_heap, from_map)
          << "view " << view.id() << " mode " << static_cast<int>(mode);
      ASSERT_EQ(from_map, testing::ReferenceDepends(*fx.service, view, heap,
                                                    queries, mode))
          << "view " << view.id() << " mode " << static_cast<int>(mode);
      for (size_t q = 0; q < queries.size(); ++q) {
        auto [d1, d2] = queries[q];
        if (!oracle.ItemVisible(d1) || !oracle.ItemVisible(d2)) continue;
        ASSERT_EQ(from_map[q], oracle.Depends(d1, d2))
            << "d1=" << d1 << " d2=" << d2 << " view " << view.id()
            << " mode " << static_cast<int>(mode);
      }
    }
  }
}

TEST(DiskTierDifferential, MergedMappedMatchesHeapAndOracle) {
  Fixture fx;
  std::vector<std::shared_ptr<ProvenanceSession>> sessions;
  std::vector<ProvenanceIndex> snapshots;
  for (int r = 0; r < 3; ++r) {
    sessions.push_back(fx.service->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = 150 + 23 * r,
                            .seed = 61 + static_cast<uint64_t>(r)}));
    snapshots.push_back(sessions.back()->Snapshot());
  }
  ProvenanceIndex heap = ProvenanceIndex::Merge(snapshots).value();
  const std::string blob = heap.Serialize();
  const std::string path = TempPath("merged.fvlmrg");
  WriteFileOrDie(path, blob);

  ProvenanceIndex mapped = ProvenanceIndex::Map(path).value();
  EXPECT_TRUE(mapped.store().arena_borrowed() ||
              mapped.store().arena_bits() == 0);
  EXPECT_EQ(mapped.Serialize(), blob);
  ASSERT_EQ(mapped.num_runs(), 3);

  for (ViewHandle view : fx.views()) {
    const CompiledView& compiled =
        *fx.service->CompiledRegularView(view).value();
    for (size_t r = 0; r < snapshots.size(); ++r) {
      const int run = static_cast<int>(r);
      const int other = (run + 1) % mapped.num_runs();
      Rng rng(100 + r);
      std::vector<std::pair<int, int>> flat;
      std::vector<std::pair<int, int>> local;
      for (int q = 0; q < 80; ++q) {
        int d1 = rng.NextInt(0, snapshots[r].num_items() - 1);
        int d2 = rng.NextInt(0, snapshots[r].num_items() - 1);
        local.push_back({d1, d2});
        flat.push_back({mapped.GlobalId(run, d1), mapped.GlobalId(run, d2)});
      }
      // Pairs into the next run, which no same-run answer may leak into.
      std::vector<std::pair<int, int>> cross;
      for (const auto& [d1, d2] : local) {
        cross.push_back({mapped.GlobalId(run, d1),
                         mapped.GlobalId(other, d2 % mapped.num_items(other))});
      }
      ProvenanceOracle oracle(sessions[r]->run(), compiled);
      for (ViewLabelMode mode : kAllModes) {
        std::vector<bool> from_heap =
            fx.service->DependsMany(view, heap, flat, mode).value();
        std::vector<bool> from_map =
            fx.service->DependsMany(view, mapped, flat, mode).value();
        ASSERT_EQ(from_heap, from_map)
            << "run " << r << " view " << view.id() << " mode "
            << static_cast<int>(mode);
        EXPECT_EQ(from_map,
                  fx.service->DependsMany(view, snapshots[r], local, mode)
                      .value())
            << "run " << r << " view " << view.id() << " mode "
            << static_cast<int>(mode);
        EXPECT_EQ(fx.service->DependsMany(view, mapped, cross, mode).value(),
                  std::vector<bool>(cross.size(), false))
            << "run " << r << " mode " << static_cast<int>(mode);
        for (size_t q = 0; q < local.size(); ++q) {
          auto [d1, d2] = local[q];
          if (!oracle.ItemVisible(d1) || !oracle.ItemVisible(d2)) continue;
          ASSERT_EQ(from_map[q], oracle.Depends(d1, d2))
              << "run " << r << " d1=" << d1 << " d2=" << d2;
        }
      }
    }
  }
}

// ----- Ownership: a borrowed arena keeps its own mapping. -----

// A store copied out of a file-served index outlives that index: the copy
// holds the mapping its arena reads from, so every label still decodes
// after the index (and the caller's handle on the file) is gone.
TEST(DiskTierOwnership, StoreCopiedOutOfAMappedTemporaryKeepsItsMapping) {
  Fixture fx;
  ProvenanceIndex heap =
      fx.service
          ->GenerateLabeledRun(
              RunGeneratorOptions{.target_items = 220, .seed = 41})
          ->Snapshot();
  const std::string path = TempPath("copied_store.fvlidx");
  WriteFileOrDie(path, heap.Serialize());

  LabelStore store = fx.service->OpenIndexFile(path).value().store();
  ASSERT_TRUE(store.arena_borrowed());
  ASSERT_EQ(store.total_items(), heap.num_items());
  for (int item = 0; item < heap.num_items(); ++item) {
    ASSERT_EQ(store.DecodeLabel(item), heap.Label(item)) << "item " << item;
    ASSERT_EQ(store.LabelBits(item), heap.LabelBits(item)) << "item " << item;
  }
}

// A mapped store is frozen: mutating a copy of one aborts instead of
// copying the arena out of the mapping behind the caller's back.
TEST(DiskTierOwnershipDeathTest, MutatingACopyOfAMappedStoreAborts) {
  Fixture fx;
  ProvenanceIndex heap =
      fx.service
          ->GenerateLabeledRun(
              RunGeneratorOptions{.target_items = 220, .seed = 41})
          ->Snapshot();
  const std::string path = TempPath("frozen_store.fvlidx");
  WriteFileOrDie(path, heap.Serialize());
  ProvenanceIndex mapped = ProvenanceIndex::Map(path).value();
  LabelStore store = mapped.store();
  ASSERT_TRUE(store.arena_borrowed());

  const DataLabel label = heap.Label(0);
  EXPECT_DEATH(store.Append(label), "arena_borrowed");
  EXPECT_DEATH((void)store.AppendGroups(heap.store()), "arena_borrowed");
}

// ----- Compaction: bit-identity and the memory bound. -----

TEST(DiskTierCompaction, OutputBitIdenticalToFromScratchMerge) {
  Fixture fx;
  std::vector<ProvenanceIndex> snapshots;
  std::vector<std::string> l0_paths;
  for (int r = 0; r < 4; ++r) {
    auto session = fx.service->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = 120 + 31 * r,
                            .seed = 200 + static_cast<uint64_t>(r)});
    snapshots.push_back(session->Snapshot());
    l0_paths.push_back(TempPath("l0_" + std::to_string(r) + ".fvlidx"));
    WriteFileOrDie(l0_paths[r], snapshots[r].Serialize());
  }
  const std::string expected =
      ProvenanceIndex::Merge(snapshots).value().Serialize();

  // L0 -> L1: compacting the run files equals merging the snapshots.
  const std::string l1_path = TempPath("l1.fvlmrg");
  ProvenanceIndex compacted =
      fx.service->CompactFiles(l0_paths, l1_path).value();
  EXPECT_EQ(compacted.num_runs(), 4);
  EXPECT_EQ(ReadFileOrDie(l1_path), expected);
  EXPECT_EQ(compacted.Serialize(), expected);

  // L1 -> L2: already-merged inputs re-merge without flattening, to the
  // same bytes again. Split the runs 1|3 to keep the order 0..3.
  const std::string half_a = TempPath("half_a.fvlmrg");
  const std::string half_b = TempPath("half_b.fvlmrg");
  WriteFileOrDie(half_a, ProvenanceIndex::Merge({&snapshots[0], 1})
                             .value()
                             .Serialize());
  WriteFileOrDie(half_b, ProvenanceIndex::Merge({&snapshots[1], 3})
                             .value()
                             .Serialize());
  const std::string l2_path = TempPath("l2.fvlmrg");
  std::vector<std::string> level1 = {half_a, half_b};
  ProvenanceIndex recompacted =
      fx.service->CompactFiles(level1, l2_path).value();
  EXPECT_EQ(recompacted.num_runs(), 4);
  EXPECT_EQ(ReadFileOrDie(l2_path), expected);

  // Mixed levels compact too: a merged archive followed by a single-run
  // one folds into the same grouped shape.
  std::vector<std::string> mixed = {half_b, l0_paths[0]};
  const std::string mixed_path = TempPath("mixed.fvlmrg");
  ProvenanceIndex from_mixed =
      fx.service->CompactFiles(mixed, mixed_path).value();
  EXPECT_EQ(from_mixed.num_runs(), 4);
}

TEST(DiskTierCompaction, PeakLiveStoresIndependentOfInputCount) {
  Fixture fx;
  auto peak_for = [&](int num_inputs) {
    std::vector<std::string> paths;
    for (int r = 0; r < num_inputs; ++r) {
      auto session = fx.service->GenerateLabeledRun(
          RunGeneratorOptions{.target_items = 90,
                              .seed = 300 + static_cast<uint64_t>(r)});
      paths.push_back(TempPath("peak_" + std::to_string(r) + ".fvlidx"));
      WriteFileOrDie(paths.back(), session->Snapshot().Serialize());
    }
    const int base = internal::StoreCountProbe::live();
    internal::StoreCountProbe::ResetPeak();
    ProvenanceIndex compacted =
        fx.service->CompactFiles(paths, TempPath("peak_out.fvlmrg")).value();
    EXPECT_EQ(compacted.num_runs(), num_inputs);
    return internal::StoreCountProbe::peak() - base;
  };

  // The streaming contract: however many archives fold in, only one parsed
  // input is alive at a time, so the concurrent-store count is a small
  // constant — O(largest input tail + output), not O(sum of inputs).
  const int peak_two = peak_for(2);
  const int peak_eight = peak_for(8);
  EXPECT_EQ(peak_two, peak_eight);
  EXPECT_LE(peak_eight, 6);
}

// A BioAid archive large enough that the compacted output written over it
// is pages shorter: the served index's borrowed arena reaches far past the
// new file's end.
struct OverwriteFixture {
  std::shared_ptr<ProvenanceService> service;
  ViewHandle view;
  std::string served_path = TempPath("overwrite_served.fvlidx");
  std::vector<std::string> inputs;
  ProvenanceIndex served_heap;  // what served_path held before

  OverwriteFixture() {
    service = ProvenanceService::Create(MakeBioAid(2012).spec).value();
    view = service->default_view();
    served_heap =
        service->GenerateLabeledRun(
                   RunGeneratorOptions{.target_items = 16000, .seed = 3})
            ->Snapshot();
    WriteFileOrDie(served_path, served_heap.Serialize());
    for (int r = 0; r < 2; ++r) {
      inputs.push_back(TempPath("overwrite_in" + std::to_string(r) +
                                ".fvlidx"));
      WriteFileOrDie(inputs.back(),
                     service
                         ->GenerateLabeledRun(RunGeneratorOptions{
                             .target_items = 300,
                             .seed = 10 + static_cast<uint64_t>(r)})
                         ->Snapshot()
                         .Serialize());
    }
  }
};

// Compacting onto the path of an archive that is being served must not
// pull its pages out from under it: the output replaces the file by
// rename, so the mapping keeps the old inode and keeps answering — an
// in-place truncate made the next sweep die with SIGBUS.
TEST(DiskTierCompaction, OverwritingAServedArchiveKeepsItServing) {
  OverwriteFixture fx;
  ProvenanceIndex served = fx.service->OpenIndexFile(fx.served_path).value();
  ASSERT_TRUE(served.store().arena_borrowed());
  const std::vector<bool> before =
      fx.service->VisibilitySweep(fx.view, fx.served_heap).value();

  ProvenanceIndex compacted =
      fx.service->CompactFiles(fx.inputs, fx.served_path).value();
  ASSERT_LT(ReadFileOrDie(fx.served_path).size() + 4096,
            fx.served_heap.Serialize().size());

  EXPECT_EQ(fx.service->VisibilitySweep(fx.view, served).value(), before);
  // The path itself now holds the compaction.
  EXPECT_EQ(ReadFileOrDie(fx.served_path), compacted.Serialize());
  EXPECT_EQ(fx.service->OpenIndexFile(fx.served_path).value().num_runs(), 2);
}

// A compaction whose write fails leaves the previous archive byte for byte
// in place and no temporary beside it. The write is made to fail with a
// file-size limit below the output's size.
TEST(DiskTierCompaction, FailedWriteLeavesPreviousArchiveIntact) {
  OverwriteFixture fx;
  const std::string previous = ReadFileOrDie(fx.served_path);

  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit limited = saved;
  limited.rlim_cur = 1024;
  void (*saved_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &limited), 0);
  Result<ProvenanceIndex> compacted =
      fx.service->CompactFiles(fx.inputs, fx.served_path);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  ASSERT_FALSE(compacted.ok());
  EXPECT_EQ(compacted.code(), ErrorCode::kIo) << compacted.status().ToString();
  EXPECT_EQ(ReadFileOrDie(fx.served_path), previous);
  const std::string temp_prefix =
      std::filesystem::path(fx.served_path).filename().string() + ".tmp.";
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(fx.served_path).parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(temp_prefix, 0), 0u)
        << "leftover " << entry.path();
  }
}

// ----- Crash recovery: a torn final delta write. -----

TEST(DiskTierRecovery, TruncatedFinalDeltaLeavesSurvivingPrefixServable) {
  Fixture fx;
  // Replay a reference run through a fresh session, checkpointing a delta
  // file every ~60 items; after each flush record the full snapshot a
  // recovery at that watermark must reproduce.
  auto reference = fx.service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 300, .seed = 77});
  auto session = fx.service->BeginRun();
  std::vector<std::string> delta_paths;
  std::vector<std::string> expected_at_watermark;
  auto flush = [&] {
    ProvenanceIndex delta = session->SnapshotDelta();
    delta_paths.push_back(
        TempPath("delta" + std::to_string(delta_paths.size()) + ".fvlidx"));
    WriteFileOrDie(delta_paths.back(), delta.Serialize());
    expected_at_watermark.push_back(session->Snapshot().Serialize());
  };
  for (int s = 0; s < reference->run().num_steps(); ++s) {
    const DerivationStep& step = reference->run().step(s);
    ASSERT_TRUE(session->Apply(step.instance, step.production).ok());
    if (session->num_items() - session->frozen_items() >= 60) flush();
  }
  flush();
  ASSERT_GE(delta_paths.size(), 3u) << "fixture too small to tear";

  const std::string intact_tail = ReadFileOrDie(delta_paths.back());
  for (size_t keep : {intact_tail.size() - 1, intact_tail.size() / 2,
                      size_t{7}, size_t{0}}) {
    // The crash: the final delta write stops after `keep` bytes.
    WriteFileOrDie(delta_paths.back(), intact_tail.substr(0, keep));

    // Recovery never aborts: each surviving file parses, the torn tail is
    // rejected as a malformed blob (an empty file additionally fails at
    // the mmap layer when served via Map).
    std::vector<ProvenanceIndex> survivors;
    for (const std::string& path : delta_paths) {
      Result<ProvenanceIndex> parsed =
          ProvenanceIndex::Deserialize(ReadFileOrDie(path));
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), ErrorCode::kMalformedBlob)
            << "keep=" << keep << ": " << parsed.status().ToString();
        break;
      }
      survivors.push_back(*std::move(parsed));
    }
    ASSERT_EQ(survivors.size(), delta_paths.size() - 1) << "keep=" << keep;
    if (keep > 0) {
      Result<ProvenanceIndex> mapped = ProvenanceIndex::Map(delta_paths.back());
      ASSERT_FALSE(mapped.ok());
      EXPECT_EQ(mapped.status().code(), ErrorCode::kMalformedBlob);
    }

    // The surviving prefix reassembles into exactly the snapshot at the
    // last intact watermark — nothing before the torn checkpoint is lost.
    ProvenanceIndex recovered = ProvenanceIndex::FromDeltas(survivors).value();
    EXPECT_EQ(recovered.Serialize(),
              expected_at_watermark[survivors.size() - 1]);
  }
}

// ----- Service-level error paths. -----

TEST(DiskTierErrors, FileAndContentFailuresAreTyped) {
  Fixture fx;
  // Missing file: the open fails, typed kIo.
  Result<ProvenanceIndex> missing =
      fx.service->OpenIndexFile(TempPath("does_not_exist.fvlidx"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kIo);

  // A file that opens and maps but is not an archive: kMalformedBlob.
  const std::string garbage_path = TempPath("garbage.fvlidx");
  WriteFileOrDie(garbage_path, "this is not an index archive");
  Result<ProvenanceIndex> garbage = fx.service->OpenIndexFile(garbage_path);
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), ErrorCode::kMalformedBlob);

  // Either archive format opens through either entry point, to the run
  // count its header records.
  auto session = fx.service->GenerateLabeledRun(
      RunGeneratorOptions{.target_items = 80, .seed = 5});
  ProvenanceIndex snapshot = session->Snapshot();
  const std::string single_path = TempPath("format_single.fvlidx");
  WriteFileOrDie(single_path, snapshot.Serialize());
  EXPECT_EQ(fx.service->OpenMergedIndexFile(single_path).value().num_runs(), 1);
  const std::string merged_path = TempPath("format_merged.fvlmrg");
  std::vector<ProvenanceIndex> twice = {snapshot, snapshot};
  WriteFileOrDie(merged_path,
                 ProvenanceIndex::Merge(twice).value().Serialize());
  EXPECT_EQ(fx.service->OpenIndexFile(merged_path).value().num_runs(), 2);

  // Compaction attributes a bad input by position.
  std::vector<std::string> inputs = {single_path, garbage_path};
  Result<ProvenanceIndex> compacted =
      fx.service->CompactFiles(inputs, TempPath("errors_out.fvlmrg"));
  ASSERT_FALSE(compacted.ok());
  EXPECT_NE(compacted.status().ToString().find("input 1"), std::string::npos)
      << compacted.status().ToString();
}

// ----- Golden archives: committed files must keep parsing and matching. --

#ifndef FVL_TESTDATA_DIR
#error "tests/CMakeLists.txt must define FVL_TESTDATA_DIR"
#endif

// The deterministic builders behind both committed fixtures (seeds fixed
// forever; regenerate the files with FVL_REGEN_GOLDEN=1 after an
// *intentional* format change, alongside the tail-format version bump).
std::string GoldenRunBlob(Fixture& fx) {
  return fx.service
      ->GenerateLabeledRun(RunGeneratorOptions{.target_items = 140, .seed = 9})
      ->Snapshot()
      .Serialize();
}

std::string GoldenMergedBlob(Fixture& fx) {
  std::vector<ProvenanceIndex> snapshots;
  for (int r = 0; r < 2; ++r) {
    snapshots.push_back(
        fx.service
            ->GenerateLabeledRun(RunGeneratorOptions{
                .target_items = 100 + 40 * r,
                .seed = 15 + static_cast<uint64_t>(r)})
            ->Snapshot());
  }
  return ProvenanceIndex::Merge(snapshots).value().Serialize();
}

TEST(DiskTierGolden, CommittedArchivesServeAndMatch) {
  Fixture fx;
  const std::string run_path =
      std::string(FVL_TESTDATA_DIR) + "/golden_archive.fvlidx";
  const std::string merged_path =
      std::string(FVL_TESTDATA_DIR) + "/golden_archive.fvlmrg";
  const std::string run_blob = GoldenRunBlob(fx);
  const std::string merged_blob = GoldenMergedBlob(fx);

  if (std::getenv("FVL_REGEN_GOLDEN") != nullptr) {
    WriteFileOrDie(run_path, run_blob);
    WriteFileOrDie(merged_path, merged_blob);
    GTEST_SKIP() << "regenerated golden archives in " << FVL_TESTDATA_DIR;
  }

  // Byte-identity against today's serializer: a format change that forgot
  // to bump the version (and regenerate these files) fails loudly here.
  EXPECT_EQ(ReadFileOrDie(run_path), run_blob)
      << "golden single-run archive drifted from the current serializer";
  EXPECT_EQ(ReadFileOrDie(merged_path), merged_blob)
      << "golden merged archive drifted from the current serializer";

  // And the committed files actually serve through the mmap path.
  ProvenanceIndex run = fx.service->OpenIndexFile(run_path).value();
  EXPECT_GT(run.num_items(), 0);
  ProvenanceIndex merged = fx.service->OpenMergedIndexFile(merged_path).value();
  EXPECT_EQ(merged.num_runs(), 2);
  Rng rng(3);
  std::vector<std::pair<int, int>> queries;
  for (int q = 0; q < 40; ++q) {
    queries.push_back({rng.NextInt(0, run.num_items() - 1),
                       rng.NextInt(0, run.num_items() - 1)});
  }
  ProvenanceIndex heap =
      ProvenanceIndex::Deserialize(ReadFileOrDie(run_path)).value();
  for (ViewLabelMode mode : kAllModes) {
    EXPECT_EQ(fx.service->DependsMany(fx.grey, run, queries, mode).value(),
              fx.service->DependsMany(fx.grey, heap, queries, mode).value());
  }
}

}  // namespace
}  // namespace fvl
