// Shared machinery for the figure/table benchmark binaries.
//
// Every binary regenerates one table or figure of the paper's §6 and prints
// the same rows/series (plus a CSV block). Pass "--quick" to shrink sample
// counts for smoke runs; the defaults aim at < ~60s per binary.

#ifndef FVL_BENCH_BENCH_UTIL_H_
#define FVL_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "fvl/service/provenance_service.h"
#include "fvl/util/check.h"
#include "fvl/util/stopwatch.h"
#include "fvl/util/table_printer.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/query_generator.h"
#include "fvl/workload/synthetic.h"
#include "fvl/workload/view_generator.h"

namespace fvl::bench {

struct BenchConfig {
  bool quick = false;
  // Destination for machine-readable results ("--json <path>"); empty
  // disables JSON emission. CI archives these as BENCH_*.json artifacts to
  // track the perf trajectory across commits.
  std::string json_path;
  int runs_per_point() const { return quick ? 3 : 10; }
  int queries_per_point() const { return quick ? 20000 : 200000; }
  std::vector<int> run_sizes() const {
    if (quick) return {1000, 4000, 16000};
    return {1000, 2000, 4000, 8000, 16000, 32000};
  }
};

// Accepts exactly "--quick" and "--json <path>"; anything else exits 2, so
// a mistyped flag cannot run the wrong configuration and exit 0.
inline BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      config.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {  // fail fast, like an unwritable path would
        std::fprintf(stderr, "--json requires a destination path\n");
        std::exit(1);
      }
      config.json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (expected --quick, --json <path>)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return config;
}

// Machine-readable results sink: collects named tables and writes one JSON
// document — {"benchmark": ..., "quick": ..., "tables": [...]} — to
// config.json_path at Write(). Every Add/Write is a no-op when --json was
// not passed, so benches emit unconditionally. The destination is opened
// at construction: an unwritable path fails fast (stderr + exit 1)
// *before* the benchmark burns minutes of work, not after.
class JsonReport {
 public:
  JsonReport(const BenchConfig& config, std::string benchmark)
      : path_(config.json_path),
        quick_(config.quick),
        benchmark_(std::move(benchmark)) {
    if (path_.empty()) return;
    file_ = std::fopen(path_.c_str(), "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "cannot open --json destination %s for writing\n",
                   path_.c_str());
      std::exit(1);
    }
  }
  ~JsonReport() {
    if (file_ != nullptr) std::fclose(file_);
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void Add(const std::string& table_name, const TablePrinter& table) {
    if (file_ == nullptr) return;
    if (!tables_.empty()) tables_ += ",\n    ";
    tables_ += table.ToJson(table_name);
  }

  // Exits nonzero if the artifact can't be written in full: a CI step
  // that consumes BENCH_*.json must fail at the producing bench, not at a
  // downstream parse of a truncated file (the open in the constructor
  // catches bad paths; this catches ENOSPC-style failures at flush).
  void Write() {
    if (file_ == nullptr) return;
    int printed = std::fprintf(file_,
                               "{\n  \"benchmark\": \"%s\",\n  \"quick\": %s,\n"
                               "  \"tables\": [\n    %s\n  ]\n}\n",
                               benchmark_.c_str(), quick_ ? "true" : "false",
                               tables_.c_str());
    bool flushed = std::fflush(file_) == 0;
    bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (printed < 0 || !flushed || !closed) {
      std::fprintf(stderr, "cannot write --json artifact %s\n", path_.c_str());
      std::exit(1);
    }
    std::printf("json results written to %s\n", path_.c_str());
  }

 private:
  std::string path_;
  bool quick_;
  std::string benchmark_;
  std::string tables_;
  std::FILE* file_ = nullptr;
};

// Average and maximum encoded data-label length over a labeled run.
struct LabelLengthStats {
  double avg_bits = 0;
  double max_bits = 0;
};

inline LabelLengthStats FvlLabelLengths(const ProvenanceSession& session) {
  LabelLengthStats stats;
  int64_t total = 0;
  int64_t max_bits = 0;
  for (int item = 0; item < session.num_items(); ++item) {
    int64_t bits = session.LabelBits(item);
    total += bits;
    max_bits = std::max(max_bits, bits);
  }
  stats.avg_bits = static_cast<double>(total) / session.num_items();
  stats.max_bits = static_cast<double>(max_bits);
  return stats;
}

// Times `body` and returns elapsed milliseconds.
template <typename Body>
double TimeMs(Body&& body) {
  Stopwatch watch;
  body();
  return watch.ElapsedMillis();
}

// The paper's three view sizes for BioAID (§6.3): small/medium/large = 2, 8,
// 16 expandable composite modules.
struct NamedViewSize {
  const char* name;
  int num_expandable;
};
inline std::vector<NamedViewSize> PaperViewSizes() {
  return {{"small", 2}, {"medium", 8}, {"large", 16}};
}

}  // namespace fvl::bench

#endif  // FVL_BENCH_BENCH_UTIL_H_
