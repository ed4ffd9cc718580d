// The on-disk index tier, end to end: a long execution checkpoints label
// deltas to disk as it runs, the delta files are reassembled into L0 run
// archives when the run closes, L0 archives are compacted into a merged L1
// archive (and L1 archives into L2 — already-merged inputs re-merge
// without flattening back to single runs), and the final archive is served
// straight off its mmap — the long-label arena still lives in the file's
// pages, zero-copy (LabelStore::arena_borrowed()).
//
// This is the dLSM shape: deltas are the write-ahead pieces, run archives
// are L0, compaction folds levels together, and serving never needs the
// heap copy a Deserialize() round trip would make.
//
//   $ ./disk_archive

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fvl/core/index.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/file.h"
#include "fvl/util/random.h"
#include "fvl/util/stopwatch.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/view_generator.h"

using namespace fvl;

namespace {

std::string PathFor(const std::string& name) {
  return "/tmp/fvl_disk_archive_" + name;
}

void WriteArchive(const std::string& path, std::string_view blob) {
  FileHandle out = FileHandle::CreateTruncate(path).value();
  FVL_CHECK(out.WriteAll(blob).ok());
  FVL_CHECK(out.Close().ok());
}

}  // namespace

int main() {
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // --- Write path: one long execution, checkpointed incrementally. -------
  //
  // Every ~800 items the session freezes only the labels since the last
  // checkpoint (SnapshotDelta, O(delta)) and appends a delta file; a crash
  // loses at most one checkpoint interval.
  std::vector<std::string> delta_paths;
  {
    auto reference = service->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = 4000, .seed = 7});
    auto session = service->BeginRun();
    int checkpoint = 0;
    auto flush_delta = [&] {
      ProvenanceIndex delta = session->SnapshotDelta();
      delta_paths.push_back(
          PathFor("delta" + std::to_string(checkpoint++) + ".fvlidx"));
      WriteArchive(delta_paths.back(), delta.Serialize());
    };
    for (int s = 0; s < reference->run().num_steps(); ++s) {
      const DerivationStep& step = reference->run().step(s);
      FVL_CHECK(session->Apply(step.instance, step.production).ok());
      if (session->num_items() - session->frozen_items() >= 800) flush_delta();
    }
    flush_delta();  // the tail
    std::printf("write path: %d items checkpointed into %zu delta files\n",
                session->num_items(), delta_paths.size());
  }

  // --- Run close: reassemble deltas into the L0 run archive. -------------
  //
  // FromDeltas produces the index a full Snapshot() would have — bit for
  // bit — so the delta files can be deleted once the L0 archive exists.
  std::vector<std::string> l0_paths;
  {
    std::vector<ProvenanceIndex> deltas;
    for (const std::string& path : delta_paths) {
      FileHandle in = FileHandle::OpenRead(path).value();
      deltas.push_back(ProvenanceIndex::Deserialize(in.ReadAll().value()).value());
    }
    ProvenanceIndex run0 = ProvenanceIndex::FromDeltas(deltas).value();
    l0_paths.push_back(PathFor("run0.fvlidx"));
    WriteArchive(l0_paths.back(), run0.Serialize());
    std::printf("run close: %zu deltas -> L0 archive (%d items)\n",
                deltas.size(), run0.num_items());
  }
  // Three more executions close the simple way: snapshot, serialize, write.
  for (int r = 1; r < 4; ++r) {
    auto session = service->GenerateLabeledRun(RunGeneratorOptions{
        .target_items = 2000, .seed = static_cast<uint64_t>(100 + r)});
    l0_paths.push_back(PathFor("run" + std::to_string(r) + ".fvlidx"));
    WriteArchive(l0_paths.back(), session->Snapshot().Serialize());
  }

  // --- Compaction: L0 run archives fold into one merged L1 archive. ------
  //
  // CompactFiles maps each input and streams it through CompactStream:
  // peak heap is O(largest input + output) however many inputs there are,
  // and input label arenas are read from their mappings, never copied.
  Stopwatch watch;
  ProvenanceIndex l1a =
      service->CompactFiles(l0_paths, PathFor("l1a.fvlmrg")).value();
  std::printf("compaction: %zu L0 archives -> L1 (%d runs, %d items) in "
              "%.2f ms\n",
              l0_paths.size(), l1a.num_runs(), l1a.total_items(),
              watch.ElapsedMillis());

  // A second batch of runs becomes its own L1 archive...
  std::vector<std::string> batch2;
  for (int r = 4; r < 6; ++r) {
    auto session = service->GenerateLabeledRun(RunGeneratorOptions{
        .target_items = 2000, .seed = static_cast<uint64_t>(100 + r)});
    batch2.push_back(PathFor("run" + std::to_string(r) + ".fvlidx"));
    WriteArchive(batch2.back(), session->Snapshot().Serialize());
  }
  (void)service->CompactFiles(batch2, PathFor("l1b.fvlmrg")).value();

  // ...and the two *already-merged* L1 archives re-merge into L2 directly:
  // run groups are appended run by run, never flattened back to single-run
  // indexes first.
  std::vector<std::string> l1_paths = {PathFor("l1a.fvlmrg"),
                                       PathFor("l1b.fvlmrg")};
  ProvenanceIndex l2 =
      service->CompactFiles(l1_paths, PathFor("l2.fvlmrg")).value();
  std::printf("re-merge: 2 L1 archives -> L2 (%d runs, %d items)\n",
              l2.num_runs(), l2.total_items());

  // --- Serving: the L2 archive queried straight off its mapping. ---------
  ProvenanceIndex served = service->OpenIndexFile(PathFor("l2.fvlmrg")).value();
  std::printf("serving: arena_borrowed=%s (long labels point into the "
              "file's pages)\n",
              served.store().arena_borrowed() ? "true" : "false");

  ViewGeneratorOptions view_options;
  view_options.num_expandable = 8;
  view_options.seed = 4;
  ViewHandle view =
      service->RegisterView(GenerateSafeView(workload, view_options).view())
          .value();
  Rng rng(11);
  std::vector<std::pair<RunItem, RunItem>> queries;
  for (int q = 0; q < 20000; ++q) {
    RunItem a{rng.NextInt(0, served.num_runs() - 1), 0};
    RunItem b{rng.NextInt(0, served.num_runs() - 1), 0};
    a.item = rng.NextInt(0, served.num_items(a.run) - 1);
    b.item = rng.NextInt(0, served.num_items(b.run) - 1);
    queries.push_back({a, b});
  }
  watch.Reset();
  std::vector<bool> answers =
      service->QueryAcrossRuns(view, served, queries).value();
  double query_ms = watch.ElapsedMillis();
  int positive = 0;
  for (bool answer : answers) positive += answer;
  std::printf("audit: %zu cross-run queries against the mapped archive in "
              "%.1f ms (%.0f qps), %d positive\n",
              queries.size(), query_ms,
              queries.size() / (query_ms / 1000.0), positive);
  return 0;
}
