// Figure 22: total data-label construction time versus the number of views,
// FVL vs DRL (8K BioAID runs, medium black-box views). FVL labels the run
// once; DRL labels the view-projection of the run once per view. Each DRL
// pass is cheaper than FVL's single pass (the projected run is smaller), so
// DRL wins for one view, and the lines cross at a small view count (~3 in
// the paper).

#include <cstdio>

#include "bench_util.h"
#include "fvl/core/run_labeler.h"
#include "fvl/drl/drl_scheme.h"

namespace fvl::bench {
namespace {

void Main(const BenchConfig& config) {
  JsonReport report(config, "fig22_multiview_time");
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  RunGeneratorOptions run_options;
  run_options.target_items = config.quick ? 2000 : 8000;
  run_options.seed = 22;
  Run run = GenerateRandomRun(workload.spec.grammar, run_options);

  std::vector<CompiledView> views;
  for (int v = 0; v < 10; ++v) {
    ViewGeneratorOptions options;
    options.num_expandable = 8;
    options.deps = PerceivedDeps::kBlackBox;
    options.seed = 100 + v;
    views.push_back(GenerateSafeView(workload, options));
  }
  std::vector<DrlViewIndex> indices;
  for (int v = 0; v < 10; ++v) {
    indices.emplace_back(&workload.spec.grammar, &views[v]);
  }

  const int repetitions = config.quick ? 3 : 10;
  double fvl_ms = 0;
  for (int rep = 0; rep < repetitions; ++rep) {
    fvl_ms += TimeMs([&] {
      RunLabeler labeler = LabelEntireRun(run, service->production_graph());
      (void)labeler;
    });
  }
  fvl_ms /= repetitions;

  TablePrinter table({"num_views", "FVL_ms", "DRL_ms"});
  double drl_cumulative = 0;
  int crossover = -1;
  for (int v = 1; v <= 10; ++v) {
    double drl_ms = 0;
    for (int rep = 0; rep < repetitions; ++rep) {
      drl_ms += TimeMs([&] {
        DrlRunLabeler labeler = DrlLabelRun(run, indices[v - 1]);
        (void)labeler;
      });
    }
    drl_cumulative += drl_ms / repetitions;
    if (crossover == -1 && drl_cumulative > fvl_ms) crossover = v;
    table.AddRow({std::to_string(v), TablePrinter::Num(fvl_ms, 3),
                  TablePrinter::Num(drl_cumulative, 3)});
  }
  table.Print(
      "Figure 22: total data label construction time (ms) vs number of "
      "views");
  std::printf(
      "expected shape: FVL flat, DRL linear; crossover at a small view count "
      "(measured: %d)\n",
      crossover);
  report.Add("multiview_time", table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
