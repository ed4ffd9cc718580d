// Figure 18: data-label construction time (ms) versus run size for FVL and
// DRL on BioAID. Both are linear in the run size (Thm. 10 part 1); the paper
// reports FVL ~10% faster for large runs.
//
// Methodology note: runs are derived once (underived generation time is
// excluded); each scheme then labels the recorded derivation online.

#include <cstdio>

#include "bench_util.h"
#include "fvl/core/run_labeler.h"
#include "fvl/drl/drl_scheme.h"

namespace fvl::bench {
namespace {

void Main(const BenchConfig& config) {
  JsonReport report(config, "fig18_label_time");
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  View default_view = MakeDefaultView(workload.spec);
  auto compiled =
      *CompiledView::Compile(workload.spec.grammar, default_view);
  DrlViewIndex drl_index(&workload.spec.grammar, &compiled);

  TablePrinter table({"run_size", "FVL_ms", "DRL_ms"});
  for (int size : config.run_sizes()) {
    double fvl_ms = 0, drl_ms = 0;
    for (int sample = 0; sample < config.runs_per_point(); ++sample) {
      RunGeneratorOptions options;
      options.target_items = size;
      options.seed = 1000 * sample + size;
      Run run = GenerateRandomRun(workload.spec.grammar, options);

      fvl_ms += TimeMs([&] {
        RunLabeler labeler = LabelEntireRun(run, service->production_graph());
        (void)labeler;
      });
      drl_ms += TimeMs([&] {
        DrlRunLabeler labeler = DrlLabelRun(run, drl_index);
        (void)labeler;
      });
    }
    table.AddRow({std::to_string(size),
                  TablePrinter::Num(fvl_ms / config.runs_per_point(), 3),
                  TablePrinter::Num(drl_ms / config.runs_per_point(), 3)});
  }
  table.Print("Figure 18: data label construction time (ms) vs run size");
  std::printf("expected shape: both linear in run size\n");
  report.Add("label_time", table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
