#include <gtest/gtest.h>

#include "fvl/service/provenance_service.h"
#include "fvl/workflow/recursion_analysis.h"
#include "fvl/workflow/safety.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/query_generator.h"
#include "fvl/workload/synthetic.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl {
namespace {

using ::fvl::testing::RegisteredLabel;

TEST(BioAid, MatchesPublishedShape) {
  Workload workload = MakeBioAid(2012);
  const Grammar& g = workload.spec.grammar;
  EXPECT_EQ(g.num_modules(), 112);
  EXPECT_EQ(g.CompositeModules().size(), 16u);
  EXPECT_EQ(g.num_productions(), 23);

  // 7 recursive productions (a production is recursive if some member can
  // re-derive its lhs).
  ProductionGraph pg(&g);
  int recursive_productions = 0;
  int max_members = 0;
  for (ProductionId k = 0; k < g.num_productions(); ++k) {
    const Production& p = g.production(k);
    max_members = std::max(max_members, p.rhs.num_members());
    for (ModuleId member : p.rhs.members) {
      if (pg.Reaches(member, p.lhs)) {
        ++recursive_productions;
        break;
      }
    }
  }
  EXPECT_EQ(recursive_productions, 7);
  EXPECT_LE(max_members, 19);

  // Port bounds: at most 4 inputs and 7 outputs.
  for (ModuleId m = 0; m < g.num_modules(); ++m) {
    EXPECT_LE(g.module(m).num_inputs, 4);
    EXPECT_LE(g.module(m).num_outputs, 7);
  }
}

TEST(BioAid, StrictlyLinearAndSafe) {
  Workload workload = MakeBioAid(2012);
  ProductionGraph pg(&workload.spec.grammar);
  EXPECT_TRUE(IsStrictlyLinearRecursive(pg));
  EXPECT_TRUE(IsLinearRecursive(pg));
  EXPECT_TRUE(pg.IsRecursiveGrammar());
  // Cycles: one 2-ring and five self-loops... (L1-L1b plus L2, F1..F4).
  EXPECT_EQ(pg.num_cycles(), 6);
  EXPECT_TRUE(ProvenanceService::Create(workload.spec).has_value());
}

TEST(BioAid, SafeForAnyUnconstrainedAssignmentSample) {
  // Different seeds give different random dependencies — all must be safe.
  for (uint64_t seed : {1u, 17u, 400u}) {
    Workload workload = MakeBioAid(seed);
    Result<DependencyAssignment> safety =
        CheckSafety(workload.spec.grammar, workload.spec.deps);
    EXPECT_TRUE(safety.ok()) << "seed " << seed << ": "
                             << safety.status().message();
  }
}

TEST(BioAid, SingleSourceSingleSinkWorkflows) {
  // Def. 8's structural condition, needed so black-box views are safe and
  // DRL is applicable.
  Workload workload = MakeBioAid(2012);
  const Grammar& g = workload.spec.grammar;
  for (ProductionId k = 0; k < g.num_productions(); ++k) {
    const SimpleWorkflow& w = g.production(k).rhs;
    std::vector<bool> has_initial(w.num_members(), false);
    std::vector<bool> has_final(w.num_members(), false);
    for (const PortRef& p : w.initial_inputs) has_initial[p.member] = true;
    for (const PortRef& p : w.final_outputs) has_final[p.member] = true;
    EXPECT_EQ(std::count(has_initial.begin(), has_initial.end(), true), 1)
        << "production " << k;
    EXPECT_EQ(std::count(has_final.begin(), has_final.end(), true), 1)
        << "production " << k;
  }
}

TEST(Synthetic, DefaultsBuildSafely) {
  Workload workload = MakeSynthetic(SyntheticOptions{});
  ProductionGraph pg(&workload.spec.grammar);
  EXPECT_TRUE(IsStrictlyLinearRecursive(pg));
  EXPECT_EQ(pg.num_cycles(), 4);  // one ring per nesting level
  EXPECT_TRUE(ProvenanceService::Create(workload.spec).has_value());
}

TEST(Synthetic, ParametersShapeTheGrammar) {
  SyntheticOptions options;
  options.workflow_size = 10;
  options.module_degree = 3;
  options.nesting_depth = 3;
  options.recursion_length = 2;
  Workload workload = MakeSynthetic(options);
  const Grammar& g = workload.spec.grammar;
  // Composite modules: h * r rings.
  EXPECT_EQ(g.CompositeModules().size(), 6u);
  // Every module has degree d.
  for (ModuleId m = 0; m < g.num_modules(); ++m) {
    EXPECT_EQ(g.module(m).num_inputs, 3);
    EXPECT_EQ(g.module(m).num_outputs, 3);
  }
  // Every production has exactly w members.
  for (ProductionId k = 0; k < g.num_productions(); ++k) {
    EXPECT_EQ(g.production(k).rhs.num_members(), 10);
  }
  // Cycle length = r.
  ProductionGraph pg(&g);
  for (int s = 0; s < pg.num_cycles(); ++s) {
    EXPECT_EQ(pg.cycle(s).length(), 2);
  }
}

TEST(Synthetic, SweepIsSafeAndStrictlyLinear) {
  for (int w : {3, 8}) {
    for (int d : {1, 4}) {
      for (int h : {1, 3}) {
        for (int r : {1, 3}) {
          SyntheticOptions options;
          options.workflow_size = w;
          options.module_degree = d;
          options.nesting_depth = h;
          options.recursion_length = r;
          options.seed = 11;
          Workload workload = MakeSynthetic(options);
          EXPECT_TRUE(ProvenanceService::Create(workload.spec).has_value())
              << workload.name;
        }
      }
    }
  }
}

TEST(ViewGenerator, ProducesRequestedSize) {
  Workload workload = MakeBioAid(2012);
  for (int size : {2, 8, 16}) {
    ViewGeneratorOptions options;
    options.num_expandable = size;
    options.seed = size;
    CompiledView view = GenerateSafeView(workload, options);
    int expandable = 0;
    for (ModuleId m = 0; m < workload.spec.grammar.num_modules(); ++m) {
      expandable += view.IsExpandable(m) ? 1 : 0;
    }
    // Whole cycles enter together, so the count may overshoot by up to one
    // cycle (length <= 2 here).
    EXPECT_GE(expandable, std::min(size, 16));
    EXPECT_LE(expandable, size + 1);
  }
}

TEST(ViewGenerator, KindsBehaveAsAdvertised) {
  Workload workload = MakeBioAid(2012);
  Result<DependencyAssignment> safety =
      CheckSafety(workload.spec.grammar, workload.spec.deps);
  ASSERT_TRUE(safety.ok());
  const DependencyAssignment& truth = *safety;

  ViewGeneratorOptions options;
  options.num_expandable = 8;
  options.seed = 5;

  options.deps = PerceivedDeps::kWhiteBox;
  EXPECT_TRUE(GenerateSafeView(workload, options).IsWhiteBox(truth));

  options.deps = PerceivedDeps::kBlackBox;
  CompiledView black = GenerateSafeView(workload, options);
  EXPECT_TRUE(black.IsBlackBox());

  options.deps = PerceivedDeps::kGreyBox;
  options.add_probability = 0.5;
  CompiledView grey = GenerateSafeView(workload, options);
  // Grey-box adds dependencies somewhere (overwhelmingly likely at p=0.5).
  EXPECT_FALSE(grey.IsWhiteBox(truth));
  // ...but never removes any: λ'^* is a superset of λ* per module.
  for (ModuleId m = 0; m < workload.spec.grammar.num_modules(); ++m) {
    if (!grey.view().expandable[m] && grey.view().perceived.IsDefined(m) &&
        truth.IsDefined(m)) {
      EXPECT_TRUE(truth.Get(m).IsSubsetOf(grey.view().perceived.Get(m)));
    }
  }
}

TEST(ViewGenerator, DeterministicPerSeed) {
  Workload workload = MakeBioAid(2012);
  ViewGeneratorOptions options;
  options.num_expandable = 8;
  options.seed = 77;
  CompiledView a = GenerateSafeView(workload, options);
  CompiledView b = GenerateSafeView(workload, options);
  EXPECT_EQ(a.view().expandable, b.view().expandable);
  for (ModuleId m = 0; m < workload.spec.grammar.num_modules(); ++m) {
    ASSERT_EQ(a.view().perceived.IsDefined(m), b.view().perceived.IsDefined(m));
    if (a.view().perceived.IsDefined(m)) {
      ASSERT_EQ(a.view().perceived.Get(m), b.view().perceived.Get(m));
    }
  }
}

TEST(QueryGenerator, BoundsAndDeterminism) {
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  RunGeneratorOptions run_options;
  run_options.target_items = 200;
  auto session = service->GenerateLabeledRun(run_options);
  auto queries = GenerateQueries(session->run(), 500, 13);
  EXPECT_EQ(queries.size(), 500u);
  for (const auto& [d1, d2] : queries) {
    EXPECT_GE(d1, 0);
    EXPECT_LT(d1, session->num_items());
    EXPECT_GE(d2, 0);
    EXPECT_LT(d2, session->num_items());
  }
  EXPECT_EQ(GenerateQueries(session->run(), 500, 13), queries);

  auto view = *CompiledView::Compile(ex.spec.grammar, ex.grey_view);
  const ViewLabel& label =
      RegisteredLabel(*service, view, ViewLabelMode::kDefault);
  auto visible = GenerateVisibleQueries(session->run(), session->labeler(),
                                        label, 300, 13);
  EXPECT_EQ(visible.size(), 300u);
}

}  // namespace
}  // namespace fvl
