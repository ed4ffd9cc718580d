// Multi-client workload driver for the framed-TCP provenance server:
// YCSB-style operation mixes replayed by N threaded clients over loopback,
// with uniform and zipfian key choice, per-op latency percentiles, and
// aggregate throughput against the in-process ceiling.
//
// Mixes (per-op probabilities over the frozen medium-view BioAID index):
//   read-heavy — 100% point dependency queries, pipelined in windows of
//     512: the workload the server's cross-connection coalescing batcher
//     exists for. Its throughput is compared against locked_qps — the
//     one-at-a-time in-process service path measured in this process
//     (the same quantity bench_service_throughput reports), i.e. what one
//     caller gets WITHOUT the network. net_pct_of_locked >= 50 at 8
//     threads is the acceptance bar; mean_batch > 1 shows the batcher,
//     not raw socket speed, is doing the lifting.
//   scan-heavy — 90% point queries, 10% whole-index visibility sweeps
//     (each sweep decodes every item: a table-scan analogue).
//   merge-mix — point queries with a server-side streamed merge-runs +
//     cross-run depends-many transaction every 1000 ops: the archival path
//     exercised concurrently with the hot query path.
//
// Key choice: uniform vs zipfian(0.99) over the item space. Zipfian skew
// concentrates queries on hot items, which the batched decode pass
// exploits (each distinct item decodes once per batch) — expect zipfian
// qps >= uniform qps at equal thread counts. The hit_rate column is the
// snapshot label cache's hit fraction over the cell (from the in-process
// ProvenanceServer::stats() before and after it): low for uniform keys,
// high for zipfian, where hot items skip decode and vetting.
//
// Latency: every point query's latency is measured from its window's
// flush to its answer's arrival (closed-loop pipelined clients — later
// answers in a window honestly carry the queueing delay). Per-thread
// log-bucketed histograms (~3% resolution) are merged after the run.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "fvl/net/client.h"
#include "fvl/net/server.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/file.h"
#include "fvl/util/histogram.h"
#include "fvl/workload/key_generator.h"

namespace fvl::bench {
namespace {

using net::MergeInfo;
using net::ProvenanceClient;
using net::ProvenanceServer;
using net::ServerStats;
using net::SnapshotInfo;

constexpr int kWindow = 512;  // pipelined point queries in flight per client

volatile long benchmark_sink = 0;

struct Mix {
  const char* name;
  double sweep_every = 0;   // sweeps per op (0 = never)
  double merge_every = 0;   // merge transactions per op (0 = never)
  bool archive = false;     // point queries hit the file-served archive id
};

struct WorkerResult {
  int64_t point_ops = 0;
  int64_t sweep_ops = 0;
  int64_t merge_ops = 0;
  LatencyHistogram point_latency;  // microseconds
  bool failed = false;
};

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One client thread: a closed loop of pipelined point-query windows with
// the mix's scan/merge ops interleaved at their configured rates.
WorkerResult RunWorker(int port, uint64_t view_id, uint64_t index_id,
                       const std::vector<uint64_t>& run_index_ids,
                       const std::vector<int>& run_sizes,
                       const KeyGenerator& keys, const Mix& mix,
                       int64_t target_ops, uint64_t seed) {
  WorkerResult result;
  auto fail = [&result](const Status& status) {
    std::fprintf(stderr, "ycsb worker failed: %s\n",
                 std::string(status.message()).c_str());
    result.failed = true;
    return result;
  };
  Result<ProvenanceClient> client = ProvenanceClient::Connect(port);
  if (!client.ok()) return fail(client.status());
  Rng rng(seed);
  constexpr ViewLabelMode kMode = ViewLabelMode::kQueryEfficient;
  double sweep_debt = 0, merge_debt = 0;
  while (result.point_ops < target_ops) {
    int64_t window = std::min<int64_t>(kWindow, target_ops - result.point_ops);
    for (int64_t i = 0; i < window; ++i) {
      client->QueueDepends(view_id, index_id, kMode,
                           static_cast<uint64_t>(keys.Next(rng)),
                           static_cast<uint64_t>(keys.Next(rng)));
    }
    int64_t flushed_at = NowMicros();
    Status flushed = client->Flush();
    if (!flushed.ok()) return fail(flushed);
    int64_t hits = 0;
    for (int64_t i = 0; i < window; ++i) {
      Result<bool> answer = client->NextDependsAnswer();
      if (!answer.ok()) return fail(answer.status());
      hits += *answer;
      result.point_latency.Record(NowMicros() - flushed_at);
    }
    benchmark_sink = benchmark_sink + hits;
    result.point_ops += window;

    sweep_debt += window * mix.sweep_every;
    while (sweep_debt >= 1.0) {
      sweep_debt -= 1.0;
      Result<std::vector<bool>> visible =
          client->VisibilitySweep(view_id, index_id, kMode);
      if (!visible.ok()) return fail(visible.status());
      benchmark_sink = benchmark_sink + static_cast<long>(visible->size());
      ++result.sweep_ops;
    }
    merge_debt += window * mix.merge_every;
    while (merge_debt >= 1.0) {
      merge_debt -= 1.0;
      Result<MergeInfo> merged = client->MergeRuns(run_index_ids);
      if (!merged.ok()) return fail(merged.status());
      // Flat ids into the merge: run 1's items follow run 0's.
      std::vector<std::pair<int, int>> cross = {
          {static_cast<int>(keys.Next(rng)) % run_sizes[0],
           run_sizes[0] + static_cast<int>(keys.Next(rng)) % run_sizes[1]}};
      Result<std::vector<bool>> answers =
          client->DependsMany(view_id, merged->merged_id, kMode, cross);
      if (!answers.ok()) return fail(answers.status());
      ++result.merge_ops;
    }
  }
  return result;
}

void Main(const BenchConfig& config) {
  // Opened up front: a bad --json path must fail before the run, not after.
  JsonReport report(config, "ycsb");

  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // The §6.3 medium grey-box view — the same setup as
  // bench_service_throughput, so locked_qps here is the same ceiling that
  // bench reports.
  ViewGeneratorOptions view_options;
  view_options.num_expandable = 8;
  view_options.deps = PerceivedDeps::kGreyBox;
  view_options.seed = 8;
  CompiledView generated = GenerateSafeView(workload, view_options);
  View view = generated.view();
  ViewHandle direct_view = service->RegisterView(view).value();

  auto server = ProvenanceServer::Start(service).value();
  ProvenanceClient setup = ProvenanceClient::Connect(server->port()).value();
  uint64_t view_id = setup.RegisterView(view).value();

  // Server-side state: one query index plus two smaller runs for the
  // merge-mix transactions. Built by replaying deterministic generated
  // derivations over the wire.
  const int query_items = config.quick ? 4000 : 16000;
  auto replay = [&](int target_items, int seed) {
    auto reference = service->GenerateLabeledRun(RunGeneratorOptions{
        .target_items = target_items, .seed = static_cast<uint64_t>(seed)});
    uint64_t session_id = setup.BeginRun().value();
    for (int s = 0; s < reference->run().num_steps(); ++s) {
      const DerivationStep& step = reference->run().step(s);
      FVL_CHECK(setup.Apply(session_id, step.instance, step.production).ok());
    }
    return setup.Snapshot(session_id).value();
  };
  SnapshotInfo query_snapshot = replay(query_items, 2012);
  SnapshotInfo merge_run_a = replay(query_items / 8, 31);
  SnapshotInfo merge_run_b = replay(query_items / 8, 32);

  // On-disk tier: the same frozen index written as an archive file and
  // re-opened by path — the cold_archive mix serves point queries straight
  // off the mapping instead of the heap snapshot. The two small runs are
  // also archived and compacted over the wire once, so the LSM path is
  // exercised end-to-end under the same process.
  // Every archive path this run creates, removed once the server stops.
  std::vector<std::string> archives;
  auto archive_name = [&](const std::string& name) {
    archives.push_back("/tmp/fvl_ycsb_" + std::to_string(server->port()) +
                       "_" + name);
    return archives.back();
  };
  auto archive_file = [&](const std::string& name, std::string_view blob) {
    std::string path = archive_name(name);
    FileHandle out = FileHandle::CreateTruncate(path).value();
    FVL_CHECK(out.WriteAll(blob).ok());
    FVL_CHECK(out.Close().ok());
    return path;
  };
  auto run_blob = [&](int target_items, int seed) {
    auto reference = service->GenerateLabeledRun(RunGeneratorOptions{
        .target_items = target_items, .seed = static_cast<uint64_t>(seed)});
    return reference->Snapshot().Serialize();
  };
  std::string archive_path =
      archive_file("query.fvlidx", run_blob(query_items, 2012));
  MergeInfo archive = setup.OpenIndexFile(archive_path).value();
  FVL_CHECK(archive.total_items == query_snapshot.num_items);
  std::vector<std::string> compact_inputs = {
      archive_file("run_a.fvlidx", run_blob(query_items / 8, 31)),
      archive_file("run_b.fvlidx", run_blob(query_items / 8, 32))};
  MergeInfo compacted =
      setup.CompactFiles(compact_inputs, archive_name("l1.fvlmrg")).value();
  FVL_CHECK(compacted.num_runs == 2);
  std::vector<uint64_t> run_index_ids = {merge_run_a.index_id,
                                         merge_run_b.index_id};
  std::vector<int> run_sizes = {merge_run_a.num_items, merge_run_b.num_items};
  const int num_items = query_snapshot.num_items;

  // The ceiling: one-at-a-time point queries through the locked service
  // registry, in-process — no sockets, no framing, no batching.
  ProvenanceIndex direct_index = [&] {
    auto reference = service->GenerateLabeledRun(RunGeneratorOptions{
        .target_items = query_items, .seed = 2012});
    return reference->Snapshot();
  }();
  FVL_CHECK(direct_index.num_items() == num_items);
  double locked_qps;
  {
    Rng rng(7);
    const int probes = config.quick ? 100000 : 400000;
    int hits = 0;
    double ms = TimeMs([&] {
      for (int q = 0; q < probes; ++q) {
        int d1 = rng.NextInt(0, num_items - 1);
        int d2 = rng.NextInt(0, num_items - 1);
        hits += service
                    ->Depends(direct_view, direct_index.Label(d1),
                              direct_index.Label(d2))
                    .value();
      }
    });
    benchmark_sink = benchmark_sink + hits;
    locked_qps = probes / (ms / 1000.0);
  }

  const Mix mixes[] = {
      {"read_heavy", 0, 0},
      {"scan_heavy", /*sweep_every=*/1.0 / 640, 0},
      {"merge_mix", /*sweep_every=*/0, /*merge_every=*/1.0 / 1000},
      // Same op stream as read_heavy but against the file-served archive:
      // the qps delta against read_heavy rows is the cost of serving
      // labels off the mapping instead of the heap snapshot.
      {"cold_archive", 0, 0, /*archive=*/true},
  };
  std::vector<int> thread_points =
      config.quick ? std::vector<int>{2, 8} : std::vector<int>{1, 4, 8};
  const int64_t ops_per_thread = config.quick ? 20000 : 100000;

  TablePrinter table({"mix", "dist", "threads", "point_ops", "qps",
                      "p50_us", "p95_us", "p99_us", "mean_batch",
                      "hit_rate", "locked_qps", "net_pct_of_locked"});
  for (const Mix& mix : mixes) {
    for (KeyDistribution dist :
         {KeyDistribution::kUniform, KeyDistribution::kZipfian}) {
      KeyGenerator keys(dist, num_items);
      for (int threads : thread_points) {
        ServerStats before = server->stats();
        std::vector<WorkerResult> results(threads);
        Stopwatch watch;
        {
          std::vector<std::thread> pool;
          for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
              results[t] = RunWorker(
                  server->port(), view_id,
                  mix.archive ? archive.merged_id : query_snapshot.index_id,
                  run_index_ids, run_sizes, keys, mix, ops_per_thread,
                  /*seed=*/1000 * (t + 1) + threads);
            });
          }
          for (std::thread& worker : pool) worker.join();
        }
        double elapsed = watch.ElapsedSeconds();
        ServerStats after = server->stats();

        LatencyHistogram latency;
        int64_t point_ops = 0;
        for (const WorkerResult& result : results) {
          FVL_CHECK(!result.failed);
          latency.Merge(result.point_latency);
          point_ops += result.point_ops;
        }
        uint64_t queries = after.point_queries - before.point_queries;
        uint64_t batches = after.point_batches - before.point_batches;
        double mean_batch =
            batches == 0 ? 0.0 : static_cast<double>(queries) / batches;
        double qps = point_ops / elapsed;
        // Label-cache hit rate over this cell's queries. Uniform rows stay
        // low; zipfian rows are where the skew-aware cache earns its keep.
        // Cache counters live on snapshots, so a merge op that replaces a
        // snapshot can shrink the aggregate mid-cell; fall back to the
        // absolute count rather than underflowing.
        ServerStats cell;
        cell.label_hits = after.label_hits >= before.label_hits
                              ? after.label_hits - before.label_hits
                              : after.label_hits;
        cell.label_misses = after.label_misses >= before.label_misses
                                ? after.label_misses - before.label_misses
                                : after.label_misses;
        double hit_rate = cell.LabelHitRate();
        table.AddRow({mix.name, ToString(dist), std::to_string(threads),
                      std::to_string(point_ops), TablePrinter::Num(qps, 0),
                      std::to_string(latency.Percentile(0.50)),
                      std::to_string(latency.Percentile(0.95)),
                      std::to_string(latency.Percentile(0.99)),
                      TablePrinter::Num(mean_batch, 2),
                      TablePrinter::Num(hit_rate, 3),
                      TablePrinter::Num(locked_qps, 0),
                      TablePrinter::Num(100.0 * qps / locked_qps, 1)});
      }
    }
  }
  table.Print(
      "framed-TCP server under YCSB-style multi-client load: pipelined "
      "point queries (window 512) with scan/merge ops mixed in, vs the "
      "in-process one-at-a-time locked ceiling (BioAID, medium grey-box "
      "view, query-efficient labels)");

  report.Add("ycsb", table);
  report.Write();

  server->Stop();
  for (const std::string& path : archives) std::remove(path.c_str());
}

}  // namespace
}  // namespace fvl::bench

int main(int argc, char** argv) {
  fvl::bench::Main(fvl::bench::ParseArgs(argc, argv));
  return 0;
}
