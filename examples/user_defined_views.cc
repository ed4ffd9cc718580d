// User-defined views (§5): a view author groups two pipeline steps of the
// running example's W5 into a single module F whose internals — the modules
// D and E, their recursive expansions, and the data flowing between them —
// disappear from the provenance the viewer sees. Labels created before the
// view existed keep working: the view label is computed over the *original*
// specification with F's perceived dependencies substituted (Example 19).
//
//   $ ./user_defined_views

#include <cstdio>

#include "fvl/core/visibility.h"
#include "fvl/service/provenance_service.h"
#include "fvl/workload/paper_example.h"

using namespace fvl;

int main() {
  PaperExample example = MakePaperExample();
  auto service = ProvenanceService::Create(example.spec).value();

  // A run labeled long before anyone defines the view below.
  RunGeneratorOptions run_options;
  run_options.target_items = 300;
  run_options.seed = 4;
  auto session = service->GenerateLabeledRun(run_options);
  std::printf("run labeled: %d items\n", session->num_items());

  // Example 18: group W5's members D and E into F with black-box perceived
  // dependencies.
  View base;
  base.expandable.assign(example.spec.grammar.num_modules(), false);
  base.expandable[example.S] = true;
  base.expandable[example.A] = true;
  base.expandable[example.B] = true;
  base.expandable[example.C] = true;
  base.perceived = example.spec.deps;

  ModuleGroup group{/*production=*/example.p[4],  // p5: C -> [b, D, E, c]
                    /*member_positions=*/{1, 2},  // D and E
                    /*name=*/"F",
                    /*perceived_deps=*/BoolMatrix::Full(2, 2)};

  auto view =
      GroupedView::Compile(example.spec.grammar, base, {group});
  if (!view.has_value()) {
    std::printf("failed to compile grouped view: %s\n",
                view.status().ToString().c_str());
    return 1;
  }
  const GroupBoundary& boundary = view->boundary(0);
  std::printf(
      "grouped view compiled: F has %zu inputs / %zu outputs; %zu data "
      "edges hidden inside; virtual grammar has %d modules\n",
      boundary.inputs.size(), boundary.outputs.size(),
      boundary.internal_edges.size(), view->virtual_grammar().num_modules());

  // Label the view (static) and decode against the pre-existing data labels.
  ViewHandle handle = service->RegisterGroupedView(base, {group}).value();
  const ViewLabel& view_label =
      *service->LabelOf(handle, ViewLabelMode::kDefault).value();

  int visible = 0, hidden = 0;
  for (int item = 0; item < session->num_items(); ++item) {
    if (IsItemVisible(session->Label(item), view_label)) {
      ++visible;
    } else {
      ++hidden;
    }
  }
  std::printf("visibility through the view: %d visible, %d hidden items\n",
              visible, hidden);

  // Query across the group: an item feeding some C instance against an item
  // leaving it. With λ'(F) complete, everything entering C reaches
  // everything leaving it.
  const Run& run = session->run();
  for (int inst = 0; inst < run.num_instances(); ++inst) {
    if (run.instance(inst).type != example.C) continue;
    int d_in = run.InputItems(inst)[0];
    int d_out = run.OutputItems(inst)[0];
    std::printf(
        "C instance %d: depends(in -> out) through the grouped view: %s\n",
        inst,
        session->Depends(handle, d_in, d_out, ViewLabelMode::kDefault).value()
            ? "yes"
            : "no");
    break;
  }
  std::printf("data labels were not touched when the view was defined\n");
  return 0;
}
