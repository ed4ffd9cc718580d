// Security views (§1, §2.2): a workflow owner hides sensitive subworkflows
// from an analyst group by (a) making their composite modules unexpandable
// and (b) publishing grey-box dependencies that overstate the real
// input/output dependencies, so the analyst cannot reconstruct the private
// wiring from provenance answers.
//
// The example also demonstrates the §5 data-visibility check: items created
// inside hidden expansions are invisible, and the analyst can tell from the
// labels alone.
//
//   $ ./security_views

#include <cstdio>

#include "fvl/core/visibility.h"
#include "fvl/service/provenance_service.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/query_generator.h"
#include "fvl/workload/view_generator.h"

using namespace fvl;

int main() {
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();

  // One shared execution of the workflow, labeled online.
  RunGeneratorOptions run_options;
  run_options.target_items = 4000;
  run_options.seed = 11;
  auto session = service->GenerateLabeledRun(run_options);
  std::printf("execution: %d data items\n", session->num_items());

  // The owner's view: everything white-box.
  ViewGeneratorOptions owner_options;
  owner_options.deps = PerceivedDeps::kWhiteBox;
  owner_options.seed = 1;
  CompiledView owner_view = GenerateSafeView(workload, owner_options);
  ViewHandle owner = service->RegisterView(owner_view.view()).value();

  // The analysts' security view: only 6 composite modules stay expandable,
  // the rest are sealed with grey-box (overstated) dependencies.
  ViewGeneratorOptions analyst_options;
  analyst_options.deps = PerceivedDeps::kGreyBox;
  analyst_options.num_expandable = 6;
  analyst_options.add_probability = 0.6;
  analyst_options.seed = 2;
  CompiledView analyst_view = GenerateSafeView(workload, analyst_options);
  ViewHandle analyst = service->RegisterView(analyst_view.view()).value();
  const ViewLabel& analyst_label =
      *service->LabelOf(analyst, ViewLabelMode::kQueryEfficient).value();

  // Count how often the two views disagree on dependence, and how many
  // items the analyst cannot see at all.
  int invisible = 0;
  for (int item = 0; item < session->num_items(); ++item) {
    if (!IsItemVisible(session->Label(item), analyst_label)) {
      ++invisible;
    }
  }
  auto queries = GenerateVisibleQueries(session->run(), session->labeler(),
                                        analyst_label, 20000, 3);
  int disagreements = 0, analyst_yes = 0, owner_yes = 0;
  for (const auto& [d1, d2] : queries) {
    bool owner_answer = session->Depends(owner, d1, d2).value();
    bool analyst_answer = session->Depends(analyst, d1, d2).value();
    owner_yes += owner_answer ? 1 : 0;
    analyst_yes += analyst_answer ? 1 : 0;
    disagreements += owner_answer != analyst_answer ? 1 : 0;
    // Grey boxes only ever add dependencies: the analyst's positive set is a
    // superset of the owner's.
    if (owner_answer && !analyst_answer) {
      std::printf("BUG: the security view lost a true dependency!\n");
      return 1;
    }
  }
  std::printf(
      "items hidden from analysts: %d of %d\n"
      "sampled queries: %zu; owner says yes: %d; analysts see yes: %d; "
      "answers differ (falsified dependencies doing their job): %d\n",
      invisible, session->num_items(), queries.size(), owner_yes,
      analyst_yes, disagreements);

  // The same data labels served both views — nothing was relabeled.
  std::printf(
      "both views were answered from the same data labels "
      "(view-adaptive labeling)\n");
  return 0;
}
