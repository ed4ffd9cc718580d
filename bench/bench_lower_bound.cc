// Theorems 3/5/6 illustrated empirically: for grammars outside the strictly
// linear-recursive class, dynamic labels must grow linearly with the run.
//
// FVL rejects the Figure-10 grammar (linear- but not strictly
// linear-recursive). The only general-purpose dynamic scheme that remains is
// the basic-parse-tree path labeling — label every item with its derivation
// path — whose labels grow linearly in the run size because the basic parse
// tree's depth is unbounded. This bench contrasts that linear growth with
// FVL's logarithmic labels on a strictly linear workload of the same size.

#include <cstdio>

#include "bench_util.h"
#include "fvl/workload/paper_example.h"

namespace fvl::bench {
namespace {

// Naive dynamic labeling for arbitrary safe grammars (the Thm.-1 "if"
// direction): the label of an item is its creating instance's path in the
// *basic* parse tree, one (production, position) pair per ancestor.
struct BasicPathLabeler {
  explicit BasicPathLabeler(const Grammar* grammar) : grammar_(grammar) {}

  void OnStart(const Run& run) {
    depth_.assign(1, 0);
    label_bits_.assign(run.num_items(), 8);  // port id only
  }
  void OnApply(const Run& run, const DerivationStep& step) {
    depth_.resize(run.num_instances(), 0);
    label_bits_.resize(run.num_items(), 0);
    const Production& p = grammar_->production(step.production);
    int parent_depth = depth_[step.instance];
    for (int pos = 0; pos < p.rhs.num_members(); ++pos) {
      depth_[step.first_child + pos] = parent_depth + 1;
    }
    // One fixed-width (production, position) pair per path component.
    int per_edge = 8;
    for (int e = 0; e < step.num_items; ++e) {
      label_bits_[step.first_item + e] =
          static_cast<int64_t>(parent_depth + 1) * per_edge + 8;
    }
  }

  const Grammar* grammar_;
  std::vector<int> depth_;
  std::vector<int64_t> label_bits_;
};

void Main(const BenchConfig& config) {
  JsonReport report(config, "lower_bound");
  // Non-strict grammar (Fig. 10): basic-path labels.
  Specification fig10 = MakeFig10Example();
  Result<std::shared_ptr<ProvenanceService>> fig10_service =
      ProvenanceService::Create(fig10);
  bool fvl_rejects = !fig10_service.has_value();

  // Strictly linear workload for the FVL comparison column.
  Workload bioaid = MakeBioAid(2012);
  auto service = ProvenanceService::Create(bioaid.spec).value();

  TablePrinter table(
      {"run_size", "Fig10_basic_avg_bits", "Fig10_basic_max_bits",
       "BioAID_FVL_avg_bits", "BioAID_FVL_max_bits"});
  for (int size : config.run_sizes()) {
    BasicPathLabeler basic(&fig10.grammar);
    RunGeneratorOptions options;
    options.target_items = size;
    options.seed = size;
    Run run = GenerateRandomRun(
        fig10.grammar, options,
        [&](const Run& current, const DerivationStep* step) {
          if (step == nullptr) {
            basic.OnStart(current);
          } else {
            basic.OnApply(current, *step);
          }
        });
    int64_t total = 0, max_bits = 0;
    for (int64_t bits : basic.label_bits_) {
      total += bits;
      max_bits = std::max(max_bits, bits);
    }
    double basic_avg = static_cast<double>(total) / run.num_items();

    options.seed = size + 1;
    auto session = service->GenerateLabeledRun(options);
    LabelLengthStats fvl = FvlLabelLengths(*session);

    table.AddRow({std::to_string(size), TablePrinter::Num(basic_avg, 1),
                  TablePrinter::Num(static_cast<double>(max_bits), 0),
                  TablePrinter::Num(fvl.avg_bits, 1),
                  TablePrinter::Num(fvl.max_bits, 0)});
  }
  table.Print(
      "Thms. 3/6: linear-size labels outside the strictly linear class vs "
      "FVL's logarithmic labels inside it");
  std::printf(
      "FVL rejects the Fig-10 grammar: %s (\"%s\")\n"
      "expected shape: Fig-10 basic labels grow linearly with run size; "
      "FVL labels grow logarithmically\n",
      fvl_rejects ? "yes" : "NO (bug!)",
      fig10_service.status().ToString().c_str());
  report.Add("lower_bound", table);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
