// Streaming provenance (§1, §2.3): scientific workflows run for a long
// time, so data items must be labeled the moment they are produced and
// queries must be answerable over partial executions. This example drives a
// BioAID execution step by step, answers dependency queries at checkpoints
// mid-run, and verifies at the end that no label was ever revised. It then
// replays the same scenario through the service API's durable-checkpoint
// path: SnapshotDelta freezes only the labels since the previous freeze
// (O(delta), not O(run)), FromDeltas reassembles the checkpoint files into
// the index a full Snapshot would have produced — bit for bit — and
// MergeRunsStreamed combines many serialized runs while holding only one
// deserialized input in memory at a time.
//
//   $ ./streaming_provenance

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"

using namespace fvl;

int main() {
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // Static part, done once before the execution even starts: label the
  // abstraction view every user will query through.
  const Decoder& pi = *service
                           ->DecoderOf(service->default_view(),
                                       ViewLabelMode::kQueryEfficient)
                           .value();

  // Dynamic part: the engine announces derivation steps; the labeler reacts.
  Run run(&service->grammar());
  RunLabeler labeler = service->MakeRunLabeler();
  labeler.OnStart(run);
  std::vector<DataLabel> first_seen;
  auto snapshot = [&] {
    for (int item = static_cast<int>(first_seen.size());
         item < labeler.num_labels(); ++item) {
      first_seen.push_back(labeler.Label(item));
    }
  };
  snapshot();

  Rng rng(2026);
  int checkpoint = 0;
  for (int step_count = 0; !run.IsComplete(); ++step_count) {
    const std::vector<int>& frontier = run.Frontier();
    int instance = frontier[rng.NextBounded(frontier.size())];
    ModuleId type = run.instance(instance).type;
    const auto& productions = workload.spec.grammar.ProductionsOf(type);
    // Keep recursions going for a while, then wind down.
    ProductionId choice = productions[rng.NextBounded(productions.size())];
    const DerivationStep& step = run.Apply(instance, choice);
    labeler.OnApply(run, step);
    snapshot();

    if (step_count % 5 == 4) {
      // A user queries the *partial* execution right now.
      int d1 = static_cast<int>(rng.NextBounded(run.num_items()));
      int d2 = static_cast<int>(rng.NextBounded(run.num_items()));
      bool answer = pi.Depends(labeler.Label(d1), labeler.Label(d2));
      std::printf(
          "checkpoint %d after step %3d: run has %5d items; "
          "depends(%d -> %d) = %s\n",
          ++checkpoint, step_count + 1, run.num_items(), d1, d2,
          answer ? "yes" : "no");
    }
  }
  std::printf("execution finished with %d items in %d steps\n",
              run.num_items(), run.num_steps());

  // Def. 10's immutability, verified: every label equals its first version.
  for (int item = 0; item < run.num_items(); ++item) {
    if (!(labeler.Label(item) == first_seen[item])) {
      std::printf("BUG: label of item %d changed after assignment!\n", item);
      return 1;
    }
  }
  std::printf("all %d labels identical to the moment they were assigned\n",
              run.num_items());

  // --- Durable mid-run checkpoints (service API) --------------------------
  // A long execution wants its labels on disk *while it runs*. SnapshotDelta
  // freezes only the labels appended since the previous freeze, so each
  // checkpoint costs O(delta) no matter how long the run has become.
  auto session = service->BeginRun();
  std::vector<ProvenanceIndex> checkpoints;
  Rng step_rng(7);
  while (!session->complete()) {
    for (int s = 0; s < 5 && !session->complete(); ++s) {
      const std::vector<int>& frontier = session->run().Frontier();
      int instance = frontier[step_rng.NextBounded(frontier.size())];
      ModuleId type = session->run().instance(instance).type;
      const auto& productions = workload.spec.grammar.ProductionsOf(type);
      session->Apply(instance,
                     productions[step_rng.NextBounded(productions.size())])
          .value();
    }
    checkpoints.push_back(session->SnapshotDelta());
    std::printf("delta checkpoint %zu: %d new labels (run at %d items)\n",
                checkpoints.size(), checkpoints.back().num_items(),
                session->num_items());
  }

  // Restart from the checkpoint files alone: the reassembly is the full
  // snapshot, bit for bit.
  ProvenanceIndex reassembled =
      ProvenanceIndex::FromDeltas(checkpoints).value();
  bool identical =
      reassembled.Serialize() == session->Snapshot().Serialize();
  std::printf(
      "reassembled %zu deltas into %d items; bit-identical to a full "
      "snapshot: %s\n",
      checkpoints.size(), reassembled.num_items(), identical ? "yes" : "no");
  if (!identical) return 1;

  // Archive jobs combine many finished runs; the streamed merge reads the
  // serialized snapshots one at a time, so memory stays bounded by the
  // largest run plus the output, not the sum of all runs.
  std::vector<std::string> run_blobs;
  run_blobs.push_back(reassembled.Serialize());
  for (int r = 0; r < 2; ++r) {
    RunGeneratorOptions archive_options;
    archive_options.target_items = 400;
    archive_options.seed = 11 + static_cast<uint64_t>(r);
    run_blobs.push_back(
        service->GenerateLabeledRun(archive_options)->Snapshot().Serialize());
  }
  std::vector<std::string_view> blob_views(run_blobs.begin(),
                                           run_blobs.end());
  ProvenanceIndex archive = service->MergeRunsStreamed(blob_views).value();
  std::printf(
      "streamed merge of %d serialized runs: %d items, one deserialized "
      "input alive at a time\n",
      archive.num_runs(), archive.total_items());
  return 0;
}
