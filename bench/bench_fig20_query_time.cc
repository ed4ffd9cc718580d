// Figure 20: query time versus run size for the three FVL variants.
// Queries sample random pairs of data items in the same run and one of
// three views (small/medium/large), as in §6.3. Expected shape: flat in run
// size (constant query time); Query-Efficient ≈ Default ≪ Space-Efficient
// (the paper reports almost an order of magnitude).

#include <cstdio>

#include "bench_util.h"
#include "fvl/core/decoder.h"

namespace fvl::bench {
namespace {

// Keeps timed loops observable without I/O.
volatile long benchmark_sink = 0;

void Main(const BenchConfig& config) {
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // The three views of §6.3, labeled in all three variants.
  std::vector<CompiledView> views;
  for (const NamedViewSize& view_size : PaperViewSizes()) {
    ViewGeneratorOptions options;
    options.num_expandable = view_size.num_expandable;
    options.deps = PerceivedDeps::kGreyBox;
    options.seed = view_size.num_expandable;
    views.push_back(GenerateSafeView(workload, options));
  }

  TablePrinter table({"run_size", "SpaceEff_ns", "Default_ns", "QueryEff_ns"});
  for (int size : config.run_sizes()) {
    RunGeneratorOptions run_options;
    run_options.target_items = size;
    run_options.seed = size;
    auto session = service->GenerateLabeledRun(run_options);

    ViewLabelMode modes[3] = {ViewLabelMode::kSpaceEfficient,
                              ViewLabelMode::kDefault,
                              ViewLabelMode::kQueryEfficient};
    double ns[3] = {0, 0, 0};
    for (size_t v = 0; v < views.size(); ++v) {
      ViewHandle handle = service->RegisterView(views[v].view()).value();
      auto queries = GenerateVisibleQueries(
          session->run(), session->labeler(),
          *service->LabelOf(handle, modes[1]).value(),
          config.queries_per_point() / 3, 7 * size + v);
      for (int m = 0; m < 3; ++m) {
        // The space-efficient variant is orders of magnitude slower; cap its
        // sample count to keep the benchmark bounded.
        size_t count = m == 0 ? std::min<size_t>(queries.size(), 2000)
                              : queries.size();
        const Decoder& pi = *service->DecoderOf(handle, modes[m]).value();
        int hits = 0;
        Stopwatch watch;
        for (size_t q = 0; q < count; ++q) {
          hits += pi.Depends(session->Label(queries[q].first),
                             session->Label(queries[q].second))
                      ? 1
                      : 0;
        }
        ns[m] += watch.ElapsedNanos() / count;
        benchmark_sink = benchmark_sink + hits;
      }
    }
    table.AddRow({std::to_string(size),
                  TablePrinter::Num(ns[0] / views.size(), 1),
                  TablePrinter::Num(ns[1] / views.size(), 1),
                  TablePrinter::Num(ns[2] / views.size(), 1)});
  }
  table.Print("Figure 20: query time (ns/query) vs run size per FVL variant");
  std::printf(
      "expected shape: flat in run size; QueryEff <= Default << SpaceEff\n");
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
