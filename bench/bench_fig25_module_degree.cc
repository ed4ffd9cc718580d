// Figure 25: query time versus module degree (synthetic workflows, degree
// 2..10). The degree determines the cardinality of the reachability
// matrices multiplied during decoding, so query time grows with it.

#include <cstdio>

#include "bench_util.h"
#include "fvl/core/decoder.h"

namespace fvl::bench {
namespace {

// Keeps timed loops observable without I/O.
volatile long benchmark_sink = 0;

void Main(const BenchConfig& config) {
  JsonReport report(config, "fig25_module_degree");
  TablePrinter table({"module_degree", "QueryEff_ns"});
  for (int degree = 2; degree <= 10; degree += 2) {
    SyntheticOptions options;
    options.module_degree = degree;
    options.workflow_size = 8;
    options.nesting_depth = 4;
    options.recursion_length = 2;
    options.seed = 25;
    Workload workload = MakeSynthetic(options);
    auto service = ProvenanceService::Create(workload.spec).value();

    RunGeneratorOptions run_options;
    run_options.target_items = config.quick ? 2000 : 8000;
    run_options.seed = degree;
    auto session = service->GenerateLabeledRun(run_options);

    ViewGeneratorOptions view_options;
    view_options.deps = PerceivedDeps::kGreyBox;
    view_options.num_expandable = -1;
    view_options.seed = degree;
    CompiledView view = GenerateSafeView(workload, view_options);
    ViewHandle handle = service->RegisterView(view.view()).value();
    const ViewLabel& label =
        *service->LabelOf(handle, ViewLabelMode::kQueryEfficient).value();
    Decoder pi(&label);

    auto queries =
        GenerateVisibleQueries(session->run(), session->labeler(), label,
                               config.queries_per_point(), 31 * degree);
    int sink = 0;
    Stopwatch watch;
    for (const auto& [d1, d2] : queries) {
      sink += pi.Depends(session->Label(d1), session->Label(d2))
                  ? 1
                  : 0;
    }
    double ns = watch.ElapsedNanos() / queries.size();
    benchmark_sink = benchmark_sink + sink;
    table.AddRow({std::to_string(degree), TablePrinter::Num(ns, 1)});
  }
  table.Print("Figure 25: query time (ns) vs module degree (Query-Efficient)");
  std::printf("expected shape: growing in the degree\n");
  report.Add("module_degree", table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
