// The --json artifact contract of the benchmark binaries (bench_util.h):
// a bench asked to produce BENCH_*.json must either write the complete
// document or exit nonzero — CI trend tracking (tools/bench_trend.py)
// treats a missing/truncated artifact as a failed bench step, so the
// failure has to surface at the producer.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "gtest/gtest.h"

namespace fvl::bench {
namespace {

BenchConfig ConfigFor(const std::string& json_path) {
  BenchConfig config;
  config.quick = true;
  config.json_path = json_path;
  return config;
}

TablePrinter OneRowTable() {
  TablePrinter table({"metric", "value"});
  table.AddRow({"answer", "42"});
  return table;
}

TEST(JsonReportDeath, UnopenablePathExitsNonzeroBeforeTheRun) {
  // Opening happens in the constructor: a bench with a bad --json path
  // must die before burning benchmark time.
  EXPECT_EXIT(
      { JsonReport report(ConfigFor("/nonexistent-dir/BENCH_x.json"), "x"); },
      ::testing::ExitedWithCode(1), "cannot open --json destination");
}

TEST(JsonReportDeath, WriteFailureExitsNonzero) {
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // canonical truncated-artifact scenario.
  if (std::FILE* probe = std::fopen("/dev/full", "w")) {
    std::fclose(probe);
    EXPECT_EXIT(
        {
          JsonReport report(ConfigFor("/dev/full"), "x");
          report.Add("t", OneRowTable());
          report.Write();
        },
        ::testing::ExitedWithCode(1), "cannot write --json artifact");
  } else {
    GTEST_SKIP() << "/dev/full not available";
  }
}

TEST(JsonReport, SuccessfulWriteProducesParseableDocument) {
  std::string path =
      ::testing::TempDir() + "/fvl_bench_json_test_artifact.json";
  {
    JsonReport report(ConfigFor(path), "unit");
    report.Add("t", OneRowTable());
    report.Write();
  }
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    contents.append(chunk, n);
  }
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_NE(contents.find("\"benchmark\": \"unit\""), std::string::npos);
  EXPECT_NE(contents.find("\"tables\""), std::string::npos);
  EXPECT_NE(contents.find("\"answer\""), std::string::npos);
}

TEST(JsonReport, NoJsonPathMeansNoOp) {
  JsonReport report(ConfigFor(""), "x");
  report.Add("t", OneRowTable());
  report.Write();  // must not print, exit, or touch the filesystem
}

TEST(ParseArgs, ReadsQuickAndJson) {
  char prog[] = "bench", quick[] = "--quick", json[] = "--json",
       path[] = "out.json";
  char* argv[] = {prog, quick, json, path};
  BenchConfig config = ParseArgs(4, argv);
  EXPECT_TRUE(config.quick);
  EXPECT_EQ(config.json_path, "out.json");
}

TEST(ParseArgsDeath, UnknownFlagExitsTwo) {
  // A mistyped flag must not run a default configuration and exit 0.
  char prog[] = "bench", typo[] = "--jsn", path[] = "out.json";
  char* argv[] = {prog, typo, path};
  EXPECT_EXIT(ParseArgs(3, argv), ::testing::ExitedWithCode(2),
              "unknown flag --jsn");
}

}  // namespace
}  // namespace fvl::bench
