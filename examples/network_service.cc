// The provenance service as a network server: a ProvenanceServer wraps an
// in-process service behind the length-framed TCP protocol of
// docs/SERVER.md, and remote clients derive runs, freeze snapshots, merge
// them server-side, and audit across runs — all without linking the
// labeling machinery. The client sees the same Result<T>/ErrorCode
// taxonomy a direct caller would, and pipelined point queries from
// concurrent clients are coalesced into shared batched decode passes.
//
//   $ ./network_service

#include <cstdio>
#include <utility>
#include <vector>

#include "fvl/net/client.h"
#include "fvl/net/server.h"
#include "fvl/service/provenance_service.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/view_generator.h"

using namespace fvl;

int main() {
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // One process owns the service and serves it on a loopback port.
  auto server = net::ProvenanceServer::Start(service).value();
  std::printf("server listening on port %d\n", server->port());

  net::ProvenanceClient client =
      net::ProvenanceClient::Connect(server->port()).value();
  std::printf("protocol version %llu\n",
              static_cast<unsigned long long>(client.Ping().value()));

  // Register the auditor's grey-box view. Registration is cached: every
  // client registering the same view gets the same id back.
  ViewGeneratorOptions view_options;
  view_options.num_expandable = 8;
  view_options.seed = 8;
  View view = GenerateSafeView(workload, view_options).view();
  uint64_t view_id = client.RegisterView(view).value();

  // Derive two runs over the wire: begin a session, apply derivation
  // steps one by one (here replayed from generated reference runs — a
  // real client would apply its own workflow's steps), freeze each into
  // a server-side snapshot.
  std::vector<uint64_t> run_ids;
  std::vector<int> run_sizes;
  for (int r = 0; r < 2; ++r) {
    auto reference = service->GenerateLabeledRun(
        RunGeneratorOptions{.target_items = 1500,
                            .seed = static_cast<uint64_t>(40 + r)});
    uint64_t session_id = client.BeginRun().value();
    for (int s = 0; s < reference->run().num_steps(); ++s) {
      const DerivationStep& step = reference->run().step(s);
      client.Apply(session_id, step.instance, step.production).value();
    }
    net::SnapshotInfo frozen = client.Snapshot(session_id).value();
    run_ids.push_back(frozen.index_id);
    run_sizes.push_back(frozen.num_items);
    std::printf("run %d: index %llu frozen with %d items\n", r,
                static_cast<unsigned long long>(frozen.index_id),
                frozen.num_items);
  }

  // Point queries within a run — and the same answers as a batch.
  constexpr ViewLabelMode kMode = ViewLabelMode::kQueryEfficient;
  bool one = client.Depends(view_id, run_ids[0], kMode, 0, 9).value();
  std::vector<std::pair<int, int>> pairs = {{0, 9}, {9, 0}, {3, 200}};
  std::vector<bool> batch =
      client.DependsMany(view_id, run_ids[0], kMode, pairs).value();
  std::printf("depends(0, 9) = %d; batch of %zu answers, first %d\n", one,
              batch.size(), static_cast<int>(batch[0]));

  // Server-side streamed merge, then a cross-run audit — the
  // multi_run_store example, but fully remote. The merged index names item
  // `item` of run `run` by its flat id: the item counts of the runs before
  // it, plus `item`.
  net::MergeInfo merged = client.MergeRuns(run_ids).value();
  std::printf("merged index %llu: %d runs, %d items\n",
              static_cast<unsigned long long>(merged.merged_id),
              merged.num_runs, merged.total_items);
  auto flat_id = [&run_sizes](int run, int item) {
    for (int r = 0; r < run; ++r) item += run_sizes[r];
    return item;
  };
  std::vector<std::pair<int, int>> cross = {
      {flat_id(0, 5), flat_id(1, run_sizes[1] - 1)},
      {flat_id(1, 5), flat_id(0, run_sizes[0] - 1)},
  };
  std::vector<bool> audited =
      client.DependsMany(view_id, merged.merged_id, kMode, cross).value();
  std::printf("cross-run audit: %zu answers\n", audited.size());

  // Errors travel the wire intact: an unknown index id is kNotFound, the
  // same code (and message) a direct in-process call would produce.
  Result<bool> bad = client.Depends(view_id, 9999, kMode, 0, 1);
  std::printf("unknown index over the wire: %s\n",
              bad.status().ToString().c_str());

  net::ServerStats stats = server->stats();
  std::printf("server saw %llu frames on %llu connections\n",
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.connections));
  server->Stop();  // drains in-flight responses before closing
  return 0;
}
