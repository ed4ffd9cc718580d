// Figure 23: query time of FVL (query-efficient), Matrix-Free FVL, and DRL
// over coarse-grained (black-box) views of three sizes. The paper reports
// FVL ≈ 4x slower than DRL, and Matrix-Free FVL ≈ DRL.

#include <cstdio>

#include "bench_util.h"
#include "fvl/core/decoder.h"
#include "fvl/drl/drl_scheme.h"

namespace fvl::bench {
namespace {

// Keeps timed loops observable without I/O.
volatile long benchmark_sink = 0;

void Main(const BenchConfig& config) {
  JsonReport report(config, "fig23_query_blackbox");
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  RunGeneratorOptions run_options;
  run_options.target_items = config.quick ? 2000 : 8000;
  run_options.seed = 23;
  auto session = service->GenerateLabeledRun(run_options);

  TablePrinter table({"view", "FVL_ns", "MatrixFree_ns", "DRL_ns"});
  for (const NamedViewSize& view_size : PaperViewSizes()) {
    ViewGeneratorOptions options;
    options.num_expandable = view_size.num_expandable;
    options.deps = PerceivedDeps::kBlackBox;
    options.seed = view_size.num_expandable;
    CompiledView view = GenerateSafeView(workload, options);

    ViewHandle handle = service->RegisterView(view.view()).value();
    const ViewLabel& label =
        *service->LabelOf(handle, ViewLabelMode::kQueryEfficient).value();
    Decoder pi(&label);
    MatrixFreeDecoder matrix_free(&service->production_graph(), &label);
    DrlViewIndex drl_index(&workload.spec.grammar, &view);
    DrlRunLabeler drl = DrlLabelRun(session->run(), drl_index);

    auto queries = GenerateVisibleQueries(
        session->run(), session->labeler(), label, config.queries_per_point(),
        17 * view_size.num_expandable);

    int sink = 0;
    Stopwatch watch;
    for (const auto& [d1, d2] : queries) {
      sink += pi.Depends(session->Label(d1), session->Label(d2))
                  ? 1
                  : 0;
    }
    double fvl_ns = watch.ElapsedNanos() / queries.size();

    watch.Reset();
    for (const auto& [d1, d2] : queries) {
      sink += matrix_free.Depends(session->Label(d1), session->Label(d2))
                  ? 1
                  : 0;
    }
    double mf_ns = watch.ElapsedNanos() / queries.size();

    watch.Reset();
    for (const auto& [d1, d2] : queries) {
      sink += DrlDepends(drl_index, drl.Label(d1), drl.Label(d2)) ? 1 : 0;
    }
    double drl_ns = watch.ElapsedNanos() / queries.size();
    benchmark_sink = benchmark_sink + sink;

    table.AddRow({view_size.name, TablePrinter::Num(fvl_ns, 1),
                  TablePrinter::Num(mf_ns, 1), TablePrinter::Num(drl_ns, 1)});
  }
  table.Print(
      "Figure 23: query time (ns) over black-box views: FVL vs Matrix-Free "
      "FVL vs DRL");
  std::printf("expected shape: MatrixFree ≈ DRL < FVL (paper: FVL ~4x DRL)\n");
  report.Add("query_blackbox", table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
