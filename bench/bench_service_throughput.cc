// Service-layer query throughput: batched DependsMany versus the
// one-at-a-time loop on the BioAID workload.
//
// The one-at-a-time baseline is the documented legacy pattern (index.h):
// every query decodes both of its labels from the provenance index before
// applying the decoding predicate. DependsMany decodes each distinct item
// once per batch, so with Q queries over N items the decode work drops from
// 2Q to at most N — per-query call overhead, not predicate cost, dominates
// once labels are compact (cf. PIMDAL). Expected shape: batched throughput
// beats one-at-a-time on every run size, with the gap growing as Q/N grows.
//
// Also reported per row:
//   * bytes_per_label — LabelStore bytes per item in the frozen snapshot
//     (arena + offsets), the space side of the shared-arena story;
//   * locked_qps — service->Depends one at a time, which takes the view
//     registry's internal mutex on every call: its gap to one_at_a_time_qps
//     is the whole cost of the lock (uncontended) on the worst-case path;
//   * batched_qps — one DependsMany call over the whole query set, on the
//     calling thread, against a fresh index over the snapshot's store, so
//     its label cache starts cold (the batch-decode path);
//   * cached_qps / hit_rate — the same batch replayed against the
//     snapshot's label cache, warmed by one priming pass: hot items skip
//     decode and vetting. hit_rate is the label cache's hit fraction
//     accumulated on this snapshot.
//
// A second table measures the incremental-checkpointing path of long
// executions (§2.3): a run is replayed step by step and frozen at 10
// checkpoints, once via full Snapshot() copies (O(run) each, so the total
// grows quadratically with run size) and once via SnapshotDelta
// (FreezeDelta: O(delta) each, so the total stays linear).
// snapshot_delta_ms should be roughly flat per item while
// snapshot_total_ms grows with the checkpoint count × run size;
// reassemble_ms is the one-time FromDeltas cost of rebuilding the full
// index from the deltas (bit-identical to Snapshot(), checked live).
//
// A third table measures what a live session costs: session_bytes_per_item
// is the heap a server-style session holds (BeginRun, then one Apply per
// step) per item of its run, read as the change in malloc's in-use bytes
// (uordblks + hblkhd) over building and holding several sessions of the
// same run. It counts the run, the labeler's frontier and the label store
// together; the frozen index costs only the store's arena and offsets
// (bytes_per_label).

#include <malloc.h>

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "fvl/service/provenance_service.h"

namespace fvl::bench {
namespace {

volatile long benchmark_sink = 0;

// Bytes malloc has handed out and not had back, mmapped blocks included.
double HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

void Main(const BenchConfig& config) {
  // Opened up front: a bad --json path must fail before the run, not after.
  JsonReport report(config, "service_throughput");
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // The §6.3 medium view, registered once; labeling and decoder are cached.
  ViewGeneratorOptions view_options;
  view_options.num_expandable = 8;
  view_options.deps = PerceivedDeps::kGreyBox;
  view_options.seed = 8;
  CompiledView generated = GenerateSafeView(workload, view_options);
  ViewHandle view = service->RegisterView(generated.view()).value();
  const ViewLabel& label =
      *service->LabelOf(view, ViewLabelMode::kQueryEfficient).value();

  TablePrinter table({"run_size", "queries", "bytes_per_label",
                      "one_at_a_time_qps", "locked_qps", "batched_qps",
                      "cached_qps", "hit_rate", "speedup"});
  for (int size : config.run_sizes()) {
    RunGeneratorOptions run_options;
    run_options.target_items = size;
    run_options.seed = size;
    auto session = service->GenerateLabeledRun(run_options);
    ProvenanceIndex index = session->Snapshot();

    auto queries =
        GenerateVisibleQueries(session->run(), session->labeler(), label,
                               config.queries_per_point(), 7 * size + 1);

    // One at a time: decode both sides of every query from the index.
    Decoder pi(&label);
    int hits_single = 0;
    double single_ms = TimeMs([&] {
      for (const auto& [d1, d2] : queries) {
        hits_single += pi.Depends(index.Label(d1), index.Label(d2));
      }
    });
    benchmark_sink = benchmark_sink + hits_single;

    // One at a time through the service: same work plus one registry-mutex
    // acquisition per call (the decoder-cache lookup).
    int hits_locked = 0;
    double locked_ms = TimeMs([&] {
      for (const auto& [d1, d2] : queries) {
        hits_locked += service
                           ->Depends(view, index.Label(d1), index.Label(d2))
                           .value();
      }
    });
    FVL_CHECK(hits_locked == hits_single);

    // Batched: one DependsMany call per run, on a fresh index over the
    // same store, so the label cache starts cold and this column measures
    // the cold batch path: decode plus the cache's first fills.
    const ProvenanceIndex cold(index.store());
    std::vector<bool> answers;
    double batched_ms = TimeMs([&] {
      answers = service->DependsMany(view, cold, queries).value();
    });
    int hits_batched = 0;
    for (bool answer : answers) hits_batched += answer;
    FVL_CHECK(hits_batched == hits_single);

    // Cached: same batch replayed against the snapshot's label cache,
    // warmed by one prior pass — the steady-state skewed-serving number.
    std::vector<bool> cached_answers =
        service->DependsMany(view, index, queries).value();
    double cached_ms = TimeMs([&] {
      cached_answers = service->DependsMany(view, index, queries).value();
    });
    int hits_cached = 0;
    for (bool answer : cached_answers) hits_cached += answer;
    FVL_CHECK(hits_cached == hits_single);
    double hit_rate = index.serving_cache()->stats().LabelHitRate();

    double bytes_per_label =
        static_cast<double>(index.SizeBits()) / 8.0 / index.num_items();
    auto qps = [&](double ms) { return queries.size() / (ms / 1000.0); };
    table.AddRow({std::to_string(size), std::to_string(queries.size()),
                  TablePrinter::Num(bytes_per_label, 2),
                  TablePrinter::Num(qps(single_ms), 0),
                  TablePrinter::Num(qps(locked_ms), 0),
                  TablePrinter::Num(qps(batched_ms), 0),
                  TablePrinter::Num(qps(cached_ms), 0),
                  TablePrinter::Num(hit_rate, 3),
                  TablePrinter::Num(single_ms / batched_ms, 2)});
  }
  table.Print(
      "service query throughput: batched DependsMany vs one-at-a-time "
      "decode+query loops, raw and through the locked registry (BioAID, "
      "medium grey-box view, query-efficient labels)");

  // Incremental checkpointing: replay each run step by step, freezing at
  // ~10 evenly spaced checkpoints through both snapshot paths.
  TablePrinter checkpoint_table({"run_size", "checkpoints",
                                 "snapshot_total_ms", "snapshot_delta_ms",
                                 "delta_speedup", "reassemble_ms"});
  for (int size : config.run_sizes()) {
    RunGeneratorOptions run_options;
    run_options.target_items = size;
    run_options.seed = size;
    Run run = GenerateRandomRun(service->grammar(), run_options);

    RunLabeler labeler = service->MakeRunLabeler();
    labeler.OnStart(run);
    std::vector<ProvenanceIndex> deltas;
    double full_ms = 0, delta_ms = 0;
    int checkpoints = 0;
    auto freeze = [&] {
      full_ms += TimeMs([&] {
        ProvenanceIndex snapshot(labeler.store());
        benchmark_sink = benchmark_sink + snapshot.num_items();
      });
      delta_ms += TimeMs([&] {
        deltas.push_back(ProvenanceIndex(labeler.FreezeDelta()));
      });
      ++checkpoints;
    };
    for (int s = 0; s < run.num_steps(); ++s) {
      labeler.OnApply(run, run.step(s));
      if (labeler.num_labels() >= (checkpoints + 1) * size / 10) freeze();
    }
    freeze();  // the tail past the last threshold

    double reassemble_ms = TimeMs([&] {
      ProvenanceIndex reassembled = ProvenanceIndex::FromDeltas(deltas).value();
      FVL_CHECK(reassembled.num_items() == labeler.num_labels());
      benchmark_sink = benchmark_sink + reassembled.num_items();
    });

    checkpoint_table.AddRow({std::to_string(labeler.num_labels()),
                             std::to_string(checkpoints),
                             TablePrinter::Num(full_ms, 3),
                             TablePrinter::Num(delta_ms, 3),
                             TablePrinter::Num(full_ms / delta_ms, 2),
                             TablePrinter::Num(reassemble_ms, 3)});
  }
  checkpoint_table.Print(
      "incremental mid-run checkpointing: ~10 freezes per replayed run, "
      "full Snapshot() copies (O(run) each) vs SnapshotDelta (O(delta) "
      "each), plus the one-time FromDeltas reassembly (BioAID)");

  // Session memory: about 128K held items per row, in sessions built the
  // way a server builds them, from a run generated beforehand.
  TablePrinter memory_table({"run_size", "sessions", "session_bytes_per_item"});
  for (int size : {4000, 64000}) {
    RunGeneratorOptions run_options;
    run_options.target_items = size;
    run_options.seed = size;
    const Run run = GenerateRandomRun(service->grammar(), run_options);
    const int sessions = 128000 / size;
    std::vector<std::shared_ptr<ProvenanceSession>> held;
    held.reserve(sessions);
    const double before = HeapInUseBytes();
    for (int i = 0; i < sessions; ++i) {
      held.push_back(service->BeginRun());
      for (int s = 0; s < run.num_steps(); ++s) {
        FVL_CHECK(held.back()->Apply(run.step(s).instance,
                                     run.step(s).production).ok());
      }
    }
    const double per_item =
        (HeapInUseBytes() - before) / sessions / run.num_items();
    memory_table.AddRow({std::to_string(size),
                         std::to_string(sessions),
                         TablePrinter::Num(per_item, 1)});
  }
  memory_table.Print(
      "live session memory: heap held per item by sessions built with "
      "BeginRun + Apply (BioAID)");

  report.Add("query_throughput", table);
  report.Add("incremental_checkpointing", checkpoint_table);
  report.Add("session_memory", memory_table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
