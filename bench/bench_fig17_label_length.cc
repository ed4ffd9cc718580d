// Figure 17: average and maximum data-label length (bits) versus run size
// (1K..32K data items) for FVL and the DRL baseline on the BioAID workload.
// Expected shape: all four curves grow logarithmically (near-parallel to
// log n), with DRL a small constant above FVL.
//
// Alongside the paper's per-label curves, each row reports the space cost
// of the frozen FVL index that serves those labels:
//   * bytes_per_label — serialized index bytes per item under the current
//     block-compressed span tail (FVLIDX3);
//   * v1_bytes_per_label — what the same labels cost under the v1 flat
//     fixed-width offset table (arena + num_items offsets at
//     BitWidthFor(arena_bits + 1)), computed from the same snapshot;
//   * space_saving_pct — the v2-over-v1 reduction, the number the compact
//     label store optimization is gated on;
//   * index_bytes — the full serialized blob size (header included);
//   * prefix_dupe_ratio — the fraction of encoded label bits shared with
//     the previous item's label as a bitwise prefix. Stats only for now:
//     it upper-bounds what a prefix-dictionary coder over the arena could
//     reclaim, so the column is the baseline to judge that future
//     optimization against (consecutive items come from nearby derivation
//     steps, whose producer paths share long prefixes by construction).

#include <cstdio>

#include "bench_util.h"
#include "fvl/core/index.h"
#include "fvl/drl/drl_scheme.h"
#include "fvl/workload/synthetic.h"

namespace fvl::bench {
namespace {

// Fraction of encoded label bits shared with the previous item's encoding
// as a bitwise prefix, over one labeled run (see the header comment).
double PrefixDupeRatio(const ProvenanceSession& session,
                       const LabelCodec& codec) {
  auto bit = [](const BitWriter& w, int64_t i) {
    return (w.words()[i / 64] >> (i % 64)) & 1;
  };
  int64_t shared = 0, total = 0;
  BitWriter prev;
  for (int item = 0; item < session.num_items(); ++item) {
    BitWriter cur = codec.Encode(session.Label(item));
    const int64_t overlap = std::min(prev.size_bits(), cur.size_bits());
    for (int64_t i = 0; i < overlap; ++i) {
      if (bit(prev, i) != bit(cur, i)) break;
      ++shared;
    }
    total += cur.size_bits();
    prev = std::move(cur);
  }
  return total == 0 ? 0.0 : static_cast<double>(shared) / total;
}

void Main(const BenchConfig& config) {
  // Opened up front: a bad --json path must fail before the run, not after.
  JsonReport report(config, "fig17_label_length");
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // DRL labels the default view of the run.
  View default_view = MakeDefaultView(workload.spec);
  auto compiled =
      *CompiledView::Compile(workload.spec.grammar, default_view);
  DrlViewIndex drl_index(&workload.spec.grammar, &compiled);

  TablePrinter table({"run_size", "fvl_avg_bits", "fvl_max_bits",
                      "drl_avg_bits", "drl_max_bits", "bytes_per_label",
                      "v1_bytes_per_label", "space_saving_pct",
                      "index_bytes", "prefix_dupe_ratio"});
  for (int size : config.run_sizes()) {
    double fvl_avg = 0, fvl_max = 0, drl_avg = 0, drl_max = 0;
    double v2_bytes = 0, v1_bytes = 0, blob_bytes = 0, prefix_dupe = 0;
    for (int sample = 0; sample < config.runs_per_point(); ++sample) {
      RunGeneratorOptions options;
      options.target_items = size;
      options.seed = 1000 * sample + size;
      auto session = service->GenerateLabeledRun(options);
      LabelLengthStats fvl = FvlLabelLengths(*session);
      fvl_avg += fvl.avg_bits;
      fvl_max = std::max(fvl_max, fvl.max_bits);

      // Freeze the labeled run and measure the serving artifact: v2 is the
      // store's exact serialized span cost, v1 is the flat-offset cost the
      // same arena paid before the compressed tail.
      ProvenanceIndex index = session->Snapshot();
      const double items = index.num_items();
      v2_bytes += static_cast<double>(index.SizeBits()) / 8.0 / items;
      const int64_t arena_bits = index.store().arena_bits();
      v1_bytes += static_cast<double>(
                      arena_bits +
                      static_cast<int64_t>(items) *
                          BitWidthFor(arena_bits + 1)) /
                  8.0 / items;
      blob_bytes += static_cast<double>(index.Serialize().size());
      prefix_dupe += PrefixDupeRatio(*session, index.store().codec());

      DrlRunLabeler drl = DrlLabelRun(session->run(), drl_index);
      int64_t total = 0, max_bits = 0, count = 0;
      for (int item = 0; item < session->num_items(); ++item) {
        if (!drl.HasLabel(item)) continue;
        int64_t bits = drl.LabelBits(item);
        total += bits;
        max_bits = std::max(max_bits, bits);
        ++count;
      }
      drl_avg += static_cast<double>(total) / count;
      drl_max = std::max(drl_max, static_cast<double>(max_bits));
    }
    fvl_avg /= config.runs_per_point();
    drl_avg /= config.runs_per_point();
    v2_bytes /= config.runs_per_point();
    v1_bytes /= config.runs_per_point();
    blob_bytes /= config.runs_per_point();
    prefix_dupe /= config.runs_per_point();
    table.AddRow({std::to_string(size), TablePrinter::Num(fvl_avg, 1),
                  TablePrinter::Num(fvl_max, 0), TablePrinter::Num(drl_avg, 1),
                  TablePrinter::Num(drl_max, 0),
                  TablePrinter::Num(v2_bytes, 2),
                  TablePrinter::Num(v1_bytes, 2),
                  TablePrinter::Num(100.0 * (1.0 - v2_bytes / v1_bytes), 1),
                  TablePrinter::Num(blob_bytes, 0),
                  TablePrinter::Num(prefix_dupe, 3)});
  }
  table.Print("Figure 17: data label length (bits) vs run size, BioAID");
  std::printf(
      "expected shape: logarithmic growth (≈ +const per size doubling), "
      "DRL above FVL by a small constant; space_saving_pct is the "
      "compressed-tail (FVLIDX3) reduction over the v1 flat offset table\n");

  // Compact-label regime (Thm. 6 sweet spot): a small strictly
  // linear-recursive synthetic spec whose O(log n) labels are short enough
  // that the v1 fixed-width offset rivals the label content — the regime
  // the compressed span tail is sized for. Same space columns as above,
  // label curves only for FVL (DRL restates Figure 17's comparison).
  SyntheticOptions compact_options;
  compact_options.workflow_size = 40;
  compact_options.module_degree = 2;
  compact_options.nesting_depth = 1;
  Workload compact = MakeSynthetic(compact_options);
  auto compact_service = ProvenanceService::Create(compact.spec).value();
  TablePrinter compact_table({"run_size", "fvl_avg_bits", "fvl_max_bits",
                              "bytes_per_label", "v1_bytes_per_label",
                              "space_saving_pct", "index_bytes"});
  for (int size : config.run_sizes()) {
    double fvl_avg = 0, fvl_max = 0;
    double v2_bytes = 0, v1_bytes = 0, blob_bytes = 0;
    for (int sample = 0; sample < config.runs_per_point(); ++sample) {
      RunGeneratorOptions options;
      options.target_items = size;
      options.seed = 1000 * sample + size;
      auto session = compact_service->GenerateLabeledRun(options);
      LabelLengthStats fvl = FvlLabelLengths(*session);
      fvl_avg += fvl.avg_bits;
      fvl_max = std::max(fvl_max, fvl.max_bits);
      ProvenanceIndex index = session->Snapshot();
      const double items = index.num_items();
      v2_bytes += static_cast<double>(index.SizeBits()) / 8.0 / items;
      const int64_t arena_bits = index.store().arena_bits();
      v1_bytes += static_cast<double>(
                      arena_bits +
                      static_cast<int64_t>(items) *
                          BitWidthFor(arena_bits + 1)) /
                  8.0 / items;
      blob_bytes += static_cast<double>(index.Serialize().size());
    }
    fvl_avg /= config.runs_per_point();
    v2_bytes /= config.runs_per_point();
    v1_bytes /= config.runs_per_point();
    blob_bytes /= config.runs_per_point();
    compact_table.AddRow(
        {std::to_string(size), TablePrinter::Num(fvl_avg, 1),
         TablePrinter::Num(fvl_max, 0), TablePrinter::Num(v2_bytes, 2),
         TablePrinter::Num(v1_bytes, 2),
         TablePrinter::Num(100.0 * (1.0 - v2_bytes / v1_bytes), 1),
         TablePrinter::Num(blob_bytes, 0)});
  }
  compact_table.Print(
      "compact-label regime: flat linear-recursive synthetic spec "
      "(workflow 40, degree 2, nesting 1)");

  report.Add("label_length", table);
  report.Add("compact_label_length", compact_table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
