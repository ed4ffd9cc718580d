// Figure 21: total data-label length assigned to one data item versus the
// number of views (1..10), FVL vs DRL, on 8K-item BioAID runs with
// medium-size black-box views (§6.4). FVL is view-adaptive: one label per
// item regardless of the number of views (flat line); DRL keeps one label
// per item per view (linear growth).
//
// A second table reports the serialized footprint of the one FVL index
// that serves every view: bytes_per_label under the block-compressed span
// tail (FVLIDX3), the v1 flat-offset cost of the same labels, the
// resulting space_saving_pct, and the total index_bytes of the blob.

#include <cstdio>

#include "bench_util.h"
#include "fvl/core/index.h"
#include "fvl/drl/drl_scheme.h"

namespace fvl::bench {
namespace {

void Main(const BenchConfig& config) {
  // Opened up front: a bad --json path must fail before the run, not after.
  JsonReport report(config, "fig21_multiview_space");
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  RunGeneratorOptions run_options;
  run_options.target_items = config.quick ? 2000 : 8000;
  run_options.seed = 21;
  auto session = service->GenerateLabeledRun(run_options);
  double fvl_bits = FvlLabelLengths(*session).avg_bits;

  // Ten medium-size black-box views.
  std::vector<DrlViewIndex> indices;
  std::vector<CompiledView> views;
  views.reserve(10);
  for (int v = 0; v < 10; ++v) {
    ViewGeneratorOptions options;
    options.num_expandable = 8;
    options.deps = PerceivedDeps::kBlackBox;
    options.seed = 100 + v;
    views.push_back(GenerateSafeView(workload, options));
  }
  for (int v = 0; v < 10; ++v) {
    indices.emplace_back(&workload.spec.grammar, &views[v]);
  }

  TablePrinter table({"num_views", "fvl_bits", "drl_bits"});
  double drl_cumulative = 0;
  for (int v = 1; v <= 10; ++v) {
    DrlRunLabeler drl = DrlLabelRun(session->run(), indices[v - 1]);
    int64_t total = 0, count = 0;
    for (int item = 0; item < session->num_items(); ++item) {
      if (!drl.HasLabel(item)) continue;
      total += drl.LabelBits(item);
      ++count;
    }
    drl_cumulative += static_cast<double>(total) / count;
    table.AddRow({std::to_string(v), TablePrinter::Num(fvl_bits, 1),
                  TablePrinter::Num(drl_cumulative, 1)});
  }
  table.Print(
      "Figure 21: total data label bits per item vs number of views "
      "(8K runs, medium black-box views)");
  std::printf("expected shape: FVL flat, DRL linear in the view count\n");

  // The single view-adaptive index behind the flat FVL line, frozen and
  // serialized: its per-item byte cost is what every additional view
  // amortizes against.
  ProvenanceIndex index = session->Snapshot();
  const double items = index.num_items();
  const double v2_bytes =
      static_cast<double>(index.SizeBits()) / 8.0 / items;
  const int64_t arena_bits = index.store().arena_bits();
  const double v1_bytes =
      static_cast<double>(arena_bits + static_cast<int64_t>(items) *
                                           BitWidthFor(arena_bits + 1)) /
      8.0 / items;
  TablePrinter space_table({"run_size", "bytes_per_label",
                            "v1_bytes_per_label", "space_saving_pct",
                            "index_bytes"});
  space_table.AddRow(
      {std::to_string(index.num_items()), TablePrinter::Num(v2_bytes, 2),
       TablePrinter::Num(v1_bytes, 2),
       TablePrinter::Num(100.0 * (1.0 - v2_bytes / v1_bytes), 1),
       TablePrinter::Num(static_cast<double>(index.Serialize().size()), 0)});
  space_table.Print(
      "serialized FVL index footprint (one index serves all views)");

  report.Add("multiview_space", table);
  report.Add("index_space", space_table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
