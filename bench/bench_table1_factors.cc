// Table 1: impact of the four synthetic-workflow factors (workflow size,
// module degree, nesting depth, recursion length) on the five performance
// metrics (data label length/time, view label length/time, query time).
// Each factor is swept with the others fixed; impact is classified by the
// max/min ratio across the sweep (>= 2.0 high, >= 1.25 low, else none),
// mirroring the paper's qualitative table:
//
//                  dlabel-len dlabel-time vlabel-len vlabel-time query-time
//  workflow size   no         no          HIGH       HIGH        no
//  module degree   no         no          low        low         HIGH
//  nesting depth   HIGH       low         low        low         low
//  recursion len   low        low         low        low         low

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fvl/core/decoder.h"
#include "fvl/core/run_labeler.h"

namespace fvl::bench {
namespace {

// Keeps timed loops observable without I/O.
volatile long benchmark_sink = 0;

struct Metrics {
  double data_label_bits = 0;  // max per item (the Thm.-10 per-label bound)
  double data_label_ms = 0;
  double view_label_bits = 0;
  double view_label_ms = 0;
  double query_ns = 0;
  // The paper's complexity accounting holds the specification size constant
  // (§4.5); sweeping a factor necessarily changes |G|, so view-label impact
  // is classified per unit of grammar size.
  double grammar_ports = 1;

  double view_label_bits_normalized() const {
    return view_label_bits / grammar_ports;
  }
  double view_label_ms_normalized() const {
    return view_label_ms / grammar_ports;
  }
};

Metrics Measure(const SyntheticOptions& options, const BenchConfig& config) {
  Workload workload = MakeSynthetic(options);
  auto service = ProvenanceService::Create(workload.spec).value();

  RunGeneratorOptions run_options;
  run_options.target_items = config.quick ? 2000 : 8000;
  run_options.seed = 1;
  Run run = GenerateRandomRun(workload.spec.grammar, run_options);

  Metrics metrics;
  metrics.data_label_ms = TimeMs([&] {
    RunLabeler labeler = LabelEntireRun(run, service->production_graph());
    (void)labeler;
  });
  RunLabeler labeler = LabelEntireRun(run, service->production_graph());
  int64_t max_bits = 0;
  for (int item = 0; item < run.num_items(); ++item) {
    max_bits = std::max(max_bits, labeler.LabelBits(item));
  }
  metrics.data_label_bits = static_cast<double>(max_bits);
  metrics.grammar_ports = static_cast<double>(workload.spec.grammar.Size());

  ViewGeneratorOptions view_options;
  view_options.deps = PerceivedDeps::kGreyBox;
  view_options.seed = 3;
  CompiledView view = GenerateSafeView(workload, view_options);
  // Labeled directly, not through the service's view cache, so the timing
  // covers the labeling work itself.
  const ViewLabeler view_labeler(&service->grammar(),
                                 &service->production_graph());
  metrics.view_label_ms = TimeMs([&] {
    ViewLabel label = view_labeler.Label(view, ViewLabelMode::kQueryEfficient);
    (void)label;
  });
  ViewLabel label = view_labeler.Label(view, ViewLabelMode::kQueryEfficient);
  metrics.view_label_bits = static_cast<double>(label.SizeBits());

  Decoder pi(&label);
  auto queries = GenerateVisibleQueries(run, labeler, label,
                                        config.quick ? 10000 : 50000, 5);
  int sink = 0;
  Stopwatch watch;
  for (const auto& [d1, d2] : queries) {
    sink += pi.Depends(labeler.Label(d1), labeler.Label(d2)) ? 1 : 0;
  }
  metrics.query_ns = watch.ElapsedNanos() / queries.size();
  benchmark_sink = benchmark_sink + sink;
  return metrics;
}

std::string Impact(double max_over_min) {
  if (max_over_min >= 2.0) return "high";
  if (max_over_min >= 1.25) return "low";
  return "no";
}

void Main(const BenchConfig& config) {
  JsonReport report(config, "table1_factors");
  struct Factor {
    const char* name;
    std::vector<SyntheticOptions> sweep;
  };
  auto base = [] {
    SyntheticOptions options;
    options.workflow_size = 8;
    options.module_degree = 4;
    options.nesting_depth = 4;
    options.recursion_length = 2;
    options.seed = 7;
    return options;
  };
  std::vector<Factor> factors;
  {
    Factor f{"workflow size", {}};
    for (int w : {5, 10, 20, 40}) {
      SyntheticOptions o = base();
      o.workflow_size = w;
      f.sweep.push_back(o);
    }
    factors.push_back(f);
  }
  {
    Factor f{"module degree", {}};
    for (int d : {2, 4, 8}) {
      SyntheticOptions o = base();
      o.module_degree = d;
      f.sweep.push_back(o);
    }
    factors.push_back(f);
  }
  {
    Factor f{"nesting depth", {}};
    for (int h : {2, 4, 8}) {
      SyntheticOptions o = base();
      o.nesting_depth = h;
      f.sweep.push_back(o);
    }
    factors.push_back(f);
  }
  {
    Factor f{"recursion length", {}};
    for (int r : {1, 2, 4}) {
      SyntheticOptions o = base();
      o.recursion_length = r;
      f.sweep.push_back(o);
    }
    factors.push_back(f);
  }

  TablePrinter raw({"factor", "value", "dlabel_bits", "dlabel_ms",
                    "vlabel_KB", "vlabel_ms", "query_ns"});
  TablePrinter impacts({"factor", "dlabel_len", "dlabel_time", "vlabel_len",
                        "vlabel_time", "query_time"});
  for (const Factor& factor : factors) {
    std::vector<Metrics> results;
    for (const SyntheticOptions& options : factor.sweep) {
      Metrics m = Measure(options, config);
      results.push_back(m);
      int value = factor.name == std::string("workflow size")
                      ? options.workflow_size
                  : factor.name == std::string("module degree")
                      ? options.module_degree
                  : factor.name == std::string("nesting depth")
                      ? options.nesting_depth
                      : options.recursion_length;
      raw.AddRow({factor.name, std::to_string(value),
                  TablePrinter::Num(m.data_label_bits, 1),
                  TablePrinter::Num(m.data_label_ms, 3),
                  TablePrinter::Num(m.view_label_bits / 8192.0, 2),
                  TablePrinter::Num(m.view_label_ms, 3),
                  TablePrinter::Num(m.query_ns, 1)});
    }
    auto ratio_of = [&](auto getter) {
      double lo = getter(results[0]), hi = getter(results[0]);
      for (const Metrics& m : results) {
        lo = std::min(lo, getter(m));
        hi = std::max(hi, getter(m));
      }
      return lo > 0 ? hi / lo : 1.0;
    };
    impacts.AddRow(
        {factor.name,
         Impact(ratio_of([](const Metrics& m) { return m.data_label_bits; })),
         Impact(ratio_of([](const Metrics& m) { return m.data_label_ms; })),
         Impact(ratio_of(
             [](const Metrics& m) { return m.view_label_bits_normalized(); })),
         Impact(ratio_of(
             [](const Metrics& m) { return m.view_label_ms_normalized(); })),
         Impact(ratio_of([](const Metrics& m) { return m.query_ns; }))});
  }
  raw.Print("Table 1 (raw sweeps)");
  impacts.Print("Table 1: factor impact classification");
  std::printf(
      "expected: workflow size -> view label (high); module degree -> query "
      "time (high); nesting depth -> data label length (high); recursion "
      "length -> low/no impact\n");
  report.Add("raw_sweeps", raw);
  report.Add("factor_impacts", impacts);
  report.Write();
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
