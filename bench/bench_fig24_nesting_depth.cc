// Figure 24: average data-label length versus nesting depth (synthetic
// workflows, depth 2..10, other parameters default). The nesting depth
// bounds the compressed-parse-tree depth, so label length grows linearly
// with it (the paper reports ~2 path components per extra level).

#include <cstdio>

#include "bench_util.h"

namespace fvl::bench {
namespace {

void Main(const BenchConfig& config) {
  JsonReport report(config, "fig24_nesting_depth");
  TablePrinter table({"nesting_depth", "avg_bits", "max_bits"});
  for (int depth = 2; depth <= 10; depth += 2) {
    SyntheticOptions options;
    options.nesting_depth = depth;
    // Default workflow size 40 makes deep grammars huge; the paper's default
    // applies per parameter sweep — scale it down uniformly so the sweep
    // isolates depth (the label length depends on depth, not |W|; Table 1).
    options.workflow_size = 8;
    options.module_degree = 4;
    options.recursion_length = 2;
    options.seed = 24;
    Workload workload = MakeSynthetic(options);
    auto service = ProvenanceService::Create(workload.spec).value();

    double avg = 0, max_bits = 0;
    int samples = config.quick ? 2 : 5;
    for (int sample = 0; sample < samples; ++sample) {
      RunGeneratorOptions run_options;
      run_options.target_items = config.quick ? 2000 : 8000;
      run_options.seed = 100 * depth + sample;
      auto session = service->GenerateLabeledRun(run_options);
      LabelLengthStats stats = FvlLabelLengths(*session);
      avg += stats.avg_bits;
      max_bits = std::max(max_bits, stats.max_bits);
    }
    table.AddRow({std::to_string(depth), TablePrinter::Num(avg / samples, 1),
                  TablePrinter::Num(max_bits, 0)});
  }
  table.Print("Figure 24: data label length (bits) vs nesting depth");
  std::printf("expected shape: linear growth in depth\n");
  report.Add("nesting_depth", table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
