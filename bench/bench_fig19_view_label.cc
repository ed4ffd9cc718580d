// Figure 19: view-label length for small/medium/large views under the three
// FVL variants, plus the construction times the §6.3 text quotes. Expected
// shape: Space-Efficient ≪ Default < Query-Efficient, with the
// Query-Efficient overhead small in absolute terms.

#include <cstdio>

#include "bench_util.h"

namespace fvl::bench {
namespace {

void Main(const BenchConfig& config) {
  JsonReport report(config, "fig19_view_label");
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();
  // Labels directly rather than through the service's per-view cache: the
  // figure times the labeling work itself.
  const ViewLabeler labeler(&service->grammar(), &service->production_graph());

  TablePrinter size_table(
      {"view", "expandable", "SpaceEff_KB", "Default_KB", "QueryEff_KB"});
  TablePrinter time_table(
      {"view", "SpaceEff_ms", "Default_ms", "QueryEff_ms"});

  for (const NamedViewSize& view_size : PaperViewSizes()) {
    ViewGeneratorOptions options;
    options.num_expandable = view_size.num_expandable;
    options.deps = PerceivedDeps::kGreyBox;
    options.seed = view_size.num_expandable;
    CompiledView view = GenerateSafeView(workload, options);

    double bits[3], ms[3];
    ViewLabelMode modes[3] = {ViewLabelMode::kSpaceEfficient,
                              ViewLabelMode::kDefault,
                              ViewLabelMode::kQueryEfficient};
    for (int m = 0; m < 3; ++m) {
      // Median-ish of several constructions for stable timing.
      double best = 1e100;
      int64_t size_bits = 0;
      for (int rep = 0; rep < 5; ++rep) {
        Stopwatch watch;
        ViewLabel label = labeler.Label(view, modes[m]);
        best = std::min(best, watch.ElapsedMillis());
        size_bits = label.SizeBits();
      }
      bits[m] = static_cast<double>(size_bits);
      ms[m] = best;
    }
    int expandable = 0;
    for (ModuleId mod = 0; mod < workload.spec.grammar.num_modules(); ++mod) {
      expandable += view.IsExpandable(mod) ? 1 : 0;
    }
    size_table.AddRow({view_size.name, std::to_string(expandable),
                       TablePrinter::Num(bits[0] / 8192.0, 3),
                       TablePrinter::Num(bits[1] / 8192.0, 3),
                       TablePrinter::Num(bits[2] / 8192.0, 3)});
    time_table.AddRow({view_size.name, TablePrinter::Num(ms[0], 4),
                       TablePrinter::Num(ms[1], 4),
                       TablePrinter::Num(ms[2], 4)});
  }
  size_table.Print("Figure 19: view label length (KB) per FVL variant");
  time_table.Print("§6.3 text: view label construction time (ms)");
  std::printf(
      "expected shape: SpaceEff ≪ Default < QueryEff; QueryEff extra over "
      "Default is small\n");
  report.Add("view_label_size", size_table);
  report.Add("view_label_time", time_table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
