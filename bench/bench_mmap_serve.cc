// The on-disk tier's serving and compaction costs: R run archives are
// compacted into one merged L1 file (service->CompactFiles), and the same
// batch-query workload is then answered three ways —
//   * heap        — the classic Deserialize() round trip: the archive bytes
//     are read into a string and every stream (arena included) copied into
//     a heap-owned store;
//   * mapped_cold — the first query pass immediately after
//     OpenMergedIndexFile: label decode pays the page faults into the
//     fresh mapping (the file was just written, so "cold" is
//     cold-*mapping*, not cold-disk — page cache is already warm on any
//     machine that just ran the compaction);
//   * mapped_warm — the second pass over the same mapping, the steady
//     state a long-lived archive server runs in.
//
// mapped_qps (the warm number) is the tracked serving metric: it should
// stay within noise of heap_qps, because after the faults are paid the
// only difference is reading arena bits through byte-wise loads instead of
// word-aligned ones. compact_ms is the tracked compaction metric.
// compact_peak_stores (internal::StoreCountProbe) is the memory story:
// one parsed input alive at a time however many archives fold in — the
// bound tests/disk_tier_test.cc asserts. Answers from all three paths are
// checked identical before any row is reported.

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "fvl/core/label_store.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/file.h"
#include "fvl/util/random.h"

namespace fvl::bench {
namespace {

volatile long benchmark_sink = 0;

void Main(const BenchConfig& config) {
  // Opened up front: a bad --json path must fail before the run, not after.
  JsonReport report(config, "mmap_serve");
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // The §6.3 medium view, same setup as bench_merge_query.
  ViewGeneratorOptions view_options;
  view_options.num_expandable = 8;
  view_options.deps = PerceivedDeps::kGreyBox;
  view_options.seed = 8;
  CompiledView generated = GenerateSafeView(workload, view_options);
  ViewHandle view = service->RegisterView(generated.view()).value();
  // Uncached serving: the comparison is heap decode vs mapped decode — a
  // warm reachability memo would answer repeats without touching either
  // arena and flatten exactly the difference under measurement.
  service->set_serving_cache_enabled(false);

  const int items_per_run = config.quick ? 1000 : 4000;
  const std::vector<int> run_counts =
      config.quick ? std::vector<int>{2, 4, 8} : std::vector<int>{2, 4, 8, 16};

  TablePrinter table({"runs", "total_items", "archive_kb", "compact_ms",
                      "compact_peak_stores", "heap_qps", "mapped_cold_qps",
                      "mapped_qps", "mapped_pct_of_heap"});
  for (int num_runs : run_counts) {
    // L0: one archive file per run.
    std::vector<std::string> l0_paths;
    for (int r = 0; r < num_runs; ++r) {
      RunGeneratorOptions run_options;
      run_options.target_items = items_per_run;
      run_options.seed = 100 * num_runs + r;
      auto session = service->GenerateLabeledRun(run_options);
      l0_paths.push_back("/tmp/fvl_bench_mmap_run" + std::to_string(r) +
                         ".fvlidx");
      FileHandle out = FileHandle::CreateTruncate(l0_paths.back()).value();
      FVL_CHECK(out.WriteAll(session->Snapshot().Serialize()).ok());
      FVL_CHECK(out.Close().ok());
    }

    // L1 compaction, with the store-count probe as the peak-RSS proxy.
    const std::string l1_path = "/tmp/fvl_bench_mmap_l1.fvlmrg";
    int compact_peak = 0;
    double compact_ms = TimeMs([&] {
      const int base = internal::StoreCountProbe::live();
      internal::StoreCountProbe::ResetPeak();
      ProvenanceIndex compacted =
          service->CompactFiles(l0_paths, l1_path).value();
      benchmark_sink = benchmark_sink + compacted.total_items();
      compact_peak = internal::StoreCountProbe::peak() - base;
    });

    // One fixed query pool over the merged flat-id space, reused by every
    // serving path.
    ProvenanceIndex heap = ProvenanceIndex::Deserialize(
        FileHandle::OpenRead(l1_path).value().ReadAll().value()).value();
    FVL_CHECK(!heap.store().arena_borrowed());
    Rng rng(13 * num_runs);
    std::vector<std::pair<int, int>> queries;
    const int num_queries = config.queries_per_point();
    queries.reserve(num_queries);
    for (int q = 0; q < num_queries; ++q) {
      queries.push_back({rng.NextInt(0, heap.total_items() - 1),
                         rng.NextInt(0, heap.total_items() - 1)});
    }

    std::vector<bool> heap_answers;
    double heap_ms = TimeMs([&] {
      heap_answers = service->DependsMany(view, heap, queries).value();
    });

    ProvenanceIndex mapped = service->OpenIndexFile(l1_path).value();
    FVL_CHECK(mapped.store().arena_borrowed() ||
              mapped.store().total_items() == 0);
    std::vector<bool> cold_answers;
    double cold_ms = TimeMs([&] {
      cold_answers = service->DependsMany(view, mapped, queries).value();
    });
    std::vector<bool> warm_answers;
    double warm_ms = TimeMs([&] {
      warm_answers = service->DependsMany(view, mapped, queries).value();
    });
    FVL_CHECK(cold_answers == heap_answers);
    FVL_CHECK(warm_answers == heap_answers);
    int hits = 0;
    for (bool answer : heap_answers) hits += answer;
    benchmark_sink = benchmark_sink + hits;

    double archive_kb =
        static_cast<double>(FileHandle::OpenRead(l1_path)
                                .value()
                                .Size()
                                .value()) /
        1024.0;
    auto qps = [&](double ms) { return num_queries / (ms / 1000.0); };
    table.AddRow({std::to_string(num_runs),
                  std::to_string(heap.total_items()),
                  TablePrinter::Num(archive_kb, 1),
                  TablePrinter::Num(compact_ms, 2),
                  std::to_string(compact_peak),
                  TablePrinter::Num(qps(heap_ms), 0),
                  TablePrinter::Num(qps(cold_ms), 0),
                  TablePrinter::Num(qps(warm_ms), 0),
                  TablePrinter::Num(100.0 * heap_ms / warm_ms, 1)});
  }
  table.Print(
      "file-served archive queries: Deserialize round trip vs mmap-backed "
      "serving (cold mapping, then warm), plus CompactFiles cost (BioAID, "
      "medium grey-box view, query-efficient labels)");

  report.Add("mmap_serve", table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
