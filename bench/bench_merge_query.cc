// Multi-run merging: the cost of ProvenanceIndex::Merge and the throughput
// of cross-run batch queries through one merged artifact versus per-run
// loops over the individual snapshots.
//
// Three query paths over the same workload (R runs of the BioAID spec, a
// fixed pool of same-run queries spread across all runs):
//   * one_at_a_time — the legacy pattern: decode both labels from the
//     owning run's snapshot for every query, then apply the predicate;
//   * per_run_batched — one DependsMany call per run (decode-once within a
//     run, but R calls, R scratch setups, R codec checks);
//   * merged — a single DependsMany over the merged index, each item named
//     by its flat id (GlobalId): one scratch, one contiguous relocated
//     arena, decode-once across the whole batch.
// Merge cost is reported per row; expect it in the milliseconds (one bulk
// bit copy per run into the shared LabelStore arena — no per-label work)
// and amortized after one batch. Merged throughput should beat
// one_at_a_time by the usual 2-4x decode-amortization factor and stay close
// to the per-run batch path (it pays a RunOf partition and a larger decode
// table for the single-call, single-artifact interface). bytes_per_label is the
// merged store's bytes per item (shared arena + grouped offsets).
//
// The second table compares the two paths from *serialized* runs:
// materializing every blob and calling Merge versus MergeRunsStreamed,
// which deserializes and appends one run at a time. stream_merge_ms should
// track mat_merge_ms (same bulk appends, plus per-blob parse); the peak
// columns are the memory story — peak live LabelStore instances
// (internal::StoreCountProbe, a peak-RSS proxy): the materialized path
// grows with the run count, the streamed path stays a small constant.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "fvl/core/label_store.h"
#include "fvl/service/provenance_service.h"

namespace fvl::bench {
namespace {

volatile long benchmark_sink = 0;

void Main(const BenchConfig& config) {
  // Opened up front: a bad --json path must fail before the run, not after.
  JsonReport report(config, "merge_query");
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
  Decoder pi(&label);

  const int items_per_run = config.quick ? 1000 : 4000;
  const std::vector<int> run_counts =
      config.quick ? std::vector<int>{2, 4, 8} : std::vector<int>{2, 4, 8, 16};

  TablePrinter stream_table({"runs", "total_items", "mat_merge_ms",
                             "mat_peak_stores", "stream_merge_ms",
                             "stream_peak_stores"});
  TablePrinter table({"runs", "total_items", "merge_ms", "bytes_per_label",
                      "queries", "one_at_a_time_qps", "per_run_batched_qps",
                      "merged_qps", "speedup_vs_loop"});
  for (int num_runs : run_counts) {
    std::vector<std::shared_ptr<ProvenanceSession>> sessions;
    std::vector<ProvenanceIndex> snapshots;
    for (int r = 0; r < num_runs; ++r) {
      RunGeneratorOptions run_options;
      run_options.target_items = items_per_run;
      run_options.seed = 100 * num_runs + r;
      sessions.push_back(service->GenerateLabeledRun(run_options));
      snapshots.push_back(sessions.back()->Snapshot());
    }

    ProvenanceIndex merged;
    double merge_ms = TimeMs([&] {
      merged = ProvenanceIndex::Merge(snapshots).value();
    });

    // Serialized-run merging: materialize-everything vs MergeRunsStreamed,
    // with the store-count probe as the peak-RSS proxy for each.
    std::vector<std::string> blobs;
    for (const ProvenanceIndex& snapshot : snapshots) {
      blobs.push_back(snapshot.Serialize());
    }
    int mat_peak = 0;
    double mat_merge_ms = TimeMs([&] {
      const int base = internal::StoreCountProbe::live();
      internal::StoreCountProbe::ResetPeak();
      std::vector<ProvenanceIndex> materialized;
      materialized.reserve(blobs.size());
      for (const std::string& blob : blobs) {
        materialized.push_back(ProvenanceIndex::Deserialize(blob).value());
      }
      ProvenanceIndex from_blobs = ProvenanceIndex::Merge(materialized).value();
      benchmark_sink = benchmark_sink + from_blobs.total_items();
      mat_peak = internal::StoreCountProbe::peak() - base;
    });
    int stream_peak = 0;
    ProvenanceIndex streamed;
    double stream_merge_ms = TimeMs([&] {
      const int base = internal::StoreCountProbe::live();
      internal::StoreCountProbe::ResetPeak();
      std::vector<std::string_view> views(blobs.begin(), blobs.end());
      streamed = service->MergeRunsStreamed(views).value();
      stream_peak = internal::StoreCountProbe::peak() - base;
    });
    FVL_CHECK(streamed.total_items() == merged.total_items());
    stream_table.AddRow({std::to_string(num_runs),
                         std::to_string(merged.total_items()),
                         TablePrinter::Num(mat_merge_ms, 2),
                         std::to_string(mat_peak),
                         TablePrinter::Num(stream_merge_ms, 2),
                         std::to_string(stream_peak)});

    // One fixed pool of same-run queries, spread evenly over the runs, as
    // per-run item ids and as the merged index's flat ids.
    const int queries_per_run = config.queries_per_point() / num_runs;
    std::vector<std::vector<std::pair<int, int>>> per_run;
    std::vector<std::pair<int, int>> across;
    for (int r = 0; r < num_runs; ++r) {
      per_run.push_back(GenerateVisibleQueries(
          sessions[r]->run(), sessions[r]->labeler(), label, queries_per_run,
          13 * num_runs + r));
      for (const auto& [d1, d2] : per_run.back()) {
        across.push_back({merged.GlobalId(r, d1), merged.GlobalId(r, d2)});
      }
    }
    const size_t total_queries = across.size();

    int hits_single = 0;
    double single_ms = TimeMs([&] {
      for (int r = 0; r < num_runs; ++r) {
        for (const auto& [d1, d2] : per_run[r]) {
          hits_single += pi.Depends(snapshots[r].Label(d1),
                                    snapshots[r].Label(d2));
        }
      }
    });
    benchmark_sink = benchmark_sink + hits_single;

    int hits_batched = 0;
    double batched_ms = TimeMs([&] {
      for (int r = 0; r < num_runs; ++r) {
        std::vector<bool> answers =
            service->DependsMany(view, snapshots[r], per_run[r]).value();
        for (bool answer : answers) hits_batched += answer;
      }
    });
    FVL_CHECK(hits_batched == hits_single);

    std::vector<bool> merged_answers;
    double merged_ms = TimeMs([&] {
      merged_answers = service->DependsMany(view, merged, across).value();
    });
    int hits_merged = 0;
    for (bool answer : merged_answers) hits_merged += answer;
    FVL_CHECK(hits_merged == hits_single);

    double bytes_per_label =
        static_cast<double>(merged.SizeBits()) / 8.0 / merged.total_items();
    auto qps = [&](double ms) { return total_queries / (ms / 1000.0); };
    table.AddRow({std::to_string(num_runs),
                  std::to_string(merged.total_items()),
                  TablePrinter::Num(merge_ms, 2),
                  TablePrinter::Num(bytes_per_label, 2),
                  std::to_string(total_queries),
                  TablePrinter::Num(qps(single_ms), 0),
                  TablePrinter::Num(qps(batched_ms), 0),
                  TablePrinter::Num(qps(merged_ms), 0),
                  TablePrinter::Num(single_ms / merged_ms, 2)});
  }
  table.Print(
      "multi-run merge + cross-run query throughput: one DependsMany "
      "over the merged index vs per-run loops over individual snapshots "
      "(BioAID, medium grey-box view, query-efficient labels)");
  stream_table.Print(
      "memory-bounded merging of serialized runs: deserialize-everything + "
      "Merge vs MergeRunsStreamed (one input store alive at a time); "
      "peak_stores = peak live LabelStore count, a peak-RSS proxy");

  report.Add("merge_query_throughput", table);
  report.Add("streamed_merge", stream_table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
