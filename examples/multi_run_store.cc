// A multi-run provenance store: many executions of one specification are
// labeled online, frozen individually, and merged into a single queryable
// artifact (ProvenanceIndex::Merge). Cross-run audits then run as one
// QueryAcrossRuns batch against the merged index — no per-run fan-out in
// user code, and the artifact ships as one self-describing blob.
//
//   $ ./multi_run_store

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/util/stopwatch.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/view_generator.h"

using namespace fvl;

int main() {
  Workload workload = MakeBioAid(2012);
  // The service copies the specification; `workload` stays intact for the
  // view generator below.
  auto service = ProvenanceService::Create(workload.spec).value();

  // Week one: five executions, labeled online, each frozen into its own
  // snapshot the moment it completes.
  std::vector<ProvenanceIndex> snapshots;
  int64_t separate_bytes = 0;
  for (int r = 0; r < 5; ++r) {
    RunGeneratorOptions options;
    options.target_items = 3000;
    options.seed = 70 + r;
    auto session = service->GenerateLabeledRun(options);
    snapshots.push_back(session->Snapshot());
    separate_bytes += static_cast<int64_t>(snapshots.back().Serialize().size());
    std::printf("run %d: %d items frozen\n", r,
                snapshots.back().num_items());
  }

  // Merge into one artifact: a contiguous relocated arena plus a per-run
  // offset table; items are now addressed as (run, item) pairs.
  Stopwatch watch;
  ProvenanceIndex merged = ProvenanceIndex::Merge(snapshots).value();
  double merge_ms = watch.ElapsedMillis();
  std::string blob = merged.Serialize();
  std::printf(
      "merged: %d runs, %d items in %.2f ms; one blob of %.1f KB "
      "(separate blobs: %.1f KB)\n",
      merged.num_runs(), merged.total_items(), merge_ms, blob.size() / 1024.0,
      separate_bytes / 1024.0);

  // The blob is self-describing: a consumer with no grammar at hand can
  // restore and hand it back to any service of the same specification.
  ProvenanceIndex restored = ProvenanceIndex::Deserialize(blob).value();

  // An auditor's view arrives later; the merged per-item index is never
  // touched (view labels are static and tiny).
  ViewGeneratorOptions view_options;
  view_options.num_expandable = 8;
  view_options.seed = 4;
  CompiledView audit_view = GenerateSafeView(workload, view_options);
  ViewHandle view = service->RegisterView(audit_view.view()).value();

  // One cross-run batch: random probes into every run of the store. Pairs
  // within a run are answered by the decoding predicate; pairs across runs
  // are false by definition (separate executions share no data flow).
  Rng rng(11);
  std::vector<std::pair<RunItem, RunItem>> queries;
  for (int q = 0; q < 20000; ++q) {
    RunItem a{rng.NextInt(0, restored.num_runs() - 1), 0};
    RunItem b{rng.NextInt(0, restored.num_runs() - 1), 0};
    a.item = rng.NextInt(0, restored.num_items(a.run) - 1);
    b.item = rng.NextInt(0, restored.num_items(b.run) - 1);
    queries.push_back({a, b});
  }
  watch.Reset();
  std::vector<bool> answers =
      service->QueryAcrossRuns(view, restored, queries).value();
  double query_ms = watch.ElapsedMillis();
  int positive = 0;
  for (bool answer : answers) positive += answer;
  std::printf(
      "audit: %zu cross-run queries in %.1f ms (%.0f qps), %d positive\n",
      queries.size(), query_ms, queries.size() / (query_ms / 1000.0),
      positive);

  // Which items does the auditor's view expose, store-wide?
  std::vector<bool> visible = service->VisibilitySweep(view, restored).value();
  int exposed = 0;
  for (bool v : visible) exposed += v;
  std::printf("visibility sweep: %d of %d stored items visible in the "
              "audit view\n",
              exposed, restored.total_items());
  return 0;
}
