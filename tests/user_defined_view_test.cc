// §5 user-defined views: grouping D and E inside W5 into a new module F
// (the paper's Example 18/19), plus decode/visibility behavior against the
// grouped-view oracle.

#include <gtest/gtest.h>

#include "fvl/core/decoder.h"
#include "fvl/service/provenance_service.h"
#include "fvl/core/visibility.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "test_util.h"

namespace fvl {
namespace {

using ::fvl::testing::CompleteRun;
using ::fvl::testing::Mat;
using ::fvl::testing::RegisteredLabel;

class GroupedViewTest : public ::testing::Test {
 protected:
  GroupedViewTest()
      : ex_(MakePaperExample()),
        service_(ProvenanceService::Create(ex_.spec).value()) {}

  // Example 18: over the default Δ (all composite modules expandable except
  // that grouped members must not be expandable, so we take
  // Δ' = {S, A, B, C} as the paper does) group W5's members D and E into F.
  GroupedView MakeExample18(BoolMatrix f_deps) {
    View base;
    base.expandable.assign(ex_.spec.grammar.num_modules(), false);
    base.expandable[ex_.S] = true;
    base.expandable[ex_.A] = true;
    base.expandable[ex_.B] = true;
    base.expandable[ex_.C] = true;
    base.perceived = ex_.spec.deps;

    ModuleGroup group;
    group.production = ex_.p[4];      // p5: C -> W5 = [b, D, E, c]
    group.member_positions = {1, 2};  // D and E
    group.name = "F";
    group.perceived_deps = std::move(f_deps);

    auto view = GroupedView::Compile(ex_.spec.grammar, base, {group});
    EXPECT_TRUE(view.has_value()) << view.status().ToString();
    return std::move(*view);
  }

  PaperExample ex_;
  std::shared_ptr<ProvenanceService> service_;
};

TEST_F(GroupedViewTest, BoundaryComputation) {
  GroupBoundary boundary =
      ComputeGroupBoundary(ex_.spec.grammar, ex_.p[4], {1, 2});
  // W5 wiring: b.out0 -> D.in1; D.out0 -> E.in0; D.out1 -> E.in1;
  // E.out0 -> c.in0; E.out1 -> c.in1; initial C.in1 -> D.in0.
  // Boundary inputs: D.in0 (initial) and D.in1 (from b); E's inputs are
  // internal. Boundary outputs: E.out0, E.out1; D's outputs are internal.
  EXPECT_EQ(boundary.inputs,
            (std::vector<PortRef>{{1, 0}, {1, 1}}));
  EXPECT_EQ(boundary.outputs, (std::vector<PortRef>{{2, 0}, {2, 1}}));
  EXPECT_EQ(boundary.internal_edges.size(), 2u);
  EXPECT_TRUE(boundary.in_group[1]);
  EXPECT_TRUE(boundary.in_group[2]);
  EXPECT_FALSE(boundary.in_group[0]);
  EXPECT_FALSE(boundary.in_group[3]);
}

TEST_F(GroupedViewTest, VirtualGrammarShape) {
  GroupedView view = MakeExample18(BoolMatrix::Full(2, 2));
  const Grammar& virtual_grammar = view.virtual_grammar();
  // One extra module F; p5 replaced by C -> W9 plus F -> W10.
  EXPECT_EQ(virtual_grammar.num_modules(),
            ex_.spec.grammar.num_modules() + 1);
  EXPECT_EQ(virtual_grammar.num_productions(),
            ex_.spec.grammar.num_productions() + 1);
  ModuleId f_module = view.VirtualGroupModule(0);
  EXPECT_EQ(virtual_grammar.module(f_module).name, "F");
  EXPECT_EQ(virtual_grammar.module(f_module).num_inputs, 2);
  EXPECT_EQ(virtual_grammar.module(f_module).num_outputs, 2);
  // F's production W10 holds D, E and the two hidden internal edges.
  ASSERT_EQ(virtual_grammar.ProductionsOf(f_module).size(), 1u);
  const Production& w10 =
      virtual_grammar.production(virtual_grammar.ProductionsOf(f_module)[0]);
  EXPECT_EQ(w10.rhs.members, (std::vector<ModuleId>{ex_.D, ex_.E}));
  EXPECT_EQ(w10.rhs.edges.size(), 2u);
  EXPECT_FALSE(virtual_grammar.Validate().has_value());
}

TEST_F(GroupedViewTest, PortVisibility) {
  GroupedView view = MakeExample18(BoolMatrix::Full(2, 2));
  // D's inputs are boundary -> visible; D's outputs are internal -> hidden.
  EXPECT_TRUE(view.InputPortVisible(ex_.p[4], 1, 0));
  EXPECT_TRUE(view.InputPortVisible(ex_.p[4], 1, 1));
  EXPECT_FALSE(view.OutputPortVisible(ex_.p[4], 1, 0));
  EXPECT_FALSE(view.OutputPortVisible(ex_.p[4], 1, 1));
  // E: inputs hidden, outputs visible.
  EXPECT_FALSE(view.InputPortVisible(ex_.p[4], 2, 0));
  EXPECT_TRUE(view.OutputPortVisible(ex_.p[4], 2, 0));
  // Ungrouped members are fully visible.
  EXPECT_TRUE(view.InputPortVisible(ex_.p[4], 0, 0));
  EXPECT_TRUE(view.OutputPortVisible(ex_.p[4], 3, 1));
}

TEST_F(GroupedViewTest, Example19ViewLabelMatrices) {
  // λ'(F) complete: like Example 19, the view label is computed over the
  // original production graph with F's perceived dependencies substituted.
  GroupedView view = MakeExample18(BoolMatrix::Full(2, 2));
  const ViewLabel& label =
      RegisteredLabel(*service_, view, ViewLabelMode::kDefault);

  // I(5,2): from C's inputs to D's inputs — both of D's inputs are boundary
  // ports and reachable (C.in1 -> D.in0 initial; C.in0 -> b -> D.in1).
  EXPECT_EQ(*label.I(ex_.p[4], 1), Mat({"01", "10"}));
  // I(5,3): from C's inputs to E's inputs — E's inputs are hidden inside F,
  // so the matrix carries no reachability for them (the paper renders these
  // entries as "undefined"; queries never consult them because the §5
  // visibility check rejects items on hidden ports).
  EXPECT_EQ(*label.I(ex_.p[4], 2), Mat({"00", "00"}));
  // Z(5,2,4): D's outputs are hidden; data leaves the group through E.
  EXPECT_EQ(*label.Z(ex_.p[4], 1, 3), Mat({"00", "00"}));
  // Z(5,3,4): with λ'(F) complete both E outputs reach both c inputs.
  EXPECT_EQ(*label.Z(ex_.p[4], 2, 3), Mat({"10", "01"}));
  // D's productions are not part of the view.
  EXPECT_FALSE(label.I(ex_.p[5], 0).has_value());
  EXPECT_FALSE(label.ProductionActive(ex_.p[5]));
}

TEST_F(GroupedViewTest, DecoderMatchesGroupedOracle) {
  ::fvl::Run run(&ex_.spec.grammar);
  CompleteRun(run);
  RunLabeler labeler = LabelEntireRun(run, service_->production_graph());

  for (bool complete : {true, false}) {
    BoolMatrix f_deps =
        complete ? BoolMatrix::Full(2, 2)
                 // White-box group deps (what D;E truly compute); an
                 // arbitrary grey matrix here can break the A<->B
                 // recursion consistency and is correctly rejected.
                 : Mat({"11", "01"});
    GroupedView view = MakeExample18(f_deps);
    ProvenanceOracle oracle(run, view);
    for (ViewLabelMode mode :
         {ViewLabelMode::kSpaceEfficient, ViewLabelMode::kDefault,
          ViewLabelMode::kQueryEfficient}) {
      const ViewLabel& label = RegisteredLabel(*service_, view, mode);
      Decoder pi(&label);
      // Visibility agrees with the projection.
      for (int item = 0; item < run.num_items(); ++item) {
        ASSERT_EQ(IsItemVisible(labeler.Label(item), label),
                  oracle.ItemVisible(item))
            << "item " << item << " " << labeler.Label(item).ToString();
      }
      // π agrees on every visible pair.
      for (int d1 = 0; d1 < run.num_items(); ++d1) {
        if (!oracle.ItemVisible(d1)) continue;
        for (int d2 = 0; d2 < run.num_items(); ++d2) {
          if (!oracle.ItemVisible(d2)) continue;
          ASSERT_EQ(pi.Depends(labeler.Label(d1), labeler.Label(d2)),
                    oracle.Depends(d1, d2))
              << "complete=" << complete << " mode=" << ToString(mode)
              << " d1=" << d1 << " d2=" << d2;
        }
      }
    }
  }
}

TEST_F(GroupedViewTest, GroupHidesInternalItems) {
  ::fvl::Run run(&ex_.spec.grammar);
  CompleteRun(run);
  GroupedView view = MakeExample18(BoolMatrix::Full(2, 2));
  ProvenanceOracle oracle(run, view);
  // Find a D -> E item (internal to the group): invisible. Its endpoints are
  // the group's hidden ports.
  int hidden_items = 0;
  for (int item = 0; item < run.num_items(); ++item) {
    const DataItem& data = run.item(item);
    if (data.producer_instance == kNoInstance ||
        data.consumer_instance == kNoInstance) {
      continue;
    }
    if (run.instance(data.producer_instance).type == ex_.D &&
        run.instance(data.consumer_instance).type == ex_.E) {
      EXPECT_FALSE(oracle.ItemVisible(item));
      ++hidden_items;
    }
  }
  EXPECT_GT(hidden_items, 0);
}

TEST(GroupedViewBioAid, GroupingAStageDiamond) {
  // §5 at workload scale: group the fan/left/right diamond of a BioAID
  // pipeline stage into one module and verify decode + visibility against
  // the oracle.
  Workload workload = MakeBioAid(2012);
  const Grammar& g = workload.spec.grammar;
  auto service = ProvenanceService::Create(workload.spec).value();

  // Find P3's production and the member positions of its diamond.
  ModuleId p3 = g.FindModule("P3");
  ASSERT_NE(p3, kInvalidModule);
  ASSERT_EQ(g.ProductionsOf(p3).size(), 1u);
  ProductionId production = g.ProductionsOf(p3)[0];
  std::vector<int> positions;
  const SimpleWorkflow& w = g.production(production).rhs;
  for (int pos = 0; pos < w.num_members(); ++pos) {
    const std::string& name = g.module(w.members[pos]).name;
    if (name == "P3_expand" || name == "P3_left" || name == "P3_right" ||
        name == "P3_merge") {
      positions.push_back(pos);
    }
  }
  ASSERT_EQ(positions.size(), 4u);

  View base = MakeDefaultView(workload.spec);
  GroupBoundary boundary = ComputeGroupBoundary(g, production, positions);
  ModuleGroup group;
  group.production = production;
  group.member_positions = positions;
  group.name = "P3_core";
  group.perceived_deps =
      BoolMatrix::Full(static_cast<int>(boundary.inputs.size()),
                       static_cast<int>(boundary.outputs.size()));
  auto view = GroupedView::Compile(g, base, {group});
  ASSERT_TRUE(view.has_value()) << view.status().ToString();

  RunGeneratorOptions options;
  options.target_items = 1500;
  options.seed = 5;
  auto session = service->GenerateLabeledRun(options);
  ProvenanceOracle oracle(session->run(), *view);
  const ViewLabel& label =
      RegisteredLabel(*service, *view, ViewLabelMode::kQueryEfficient);
  Decoder pi(&label);

  int hidden = 0;
  for (int item = 0; item < session->num_items(); ++item) {
    bool item_visible = IsItemVisible(session->Label(item), label);
    ASSERT_EQ(item_visible, oracle.ItemVisible(item)) << "item " << item;
    hidden += item_visible ? 0 : 1;
  }
  EXPECT_GT(hidden, 0);  // the diamond's internal edges

  Rng rng(9);
  std::vector<int> visible_items;
  for (int item = 0; item < session->num_items(); ++item) {
    if (oracle.ItemVisible(item)) visible_items.push_back(item);
  }
  for (int q = 0; q < 1500; ++q) {
    int d1 = visible_items[rng.NextBounded(visible_items.size())];
    int d2 = visible_items[rng.NextBounded(visible_items.size())];
    ASSERT_EQ(pi.Depends(session->Label(d1), session->Label(d2)),
              oracle.Depends(d1, d2))
        << "d1=" << d1 << " d2=" << d2;
  }
}

TEST_F(GroupedViewTest, InvalidGroupsRejected) {
  View base;
  base.expandable.assign(ex_.spec.grammar.num_modules(), false);
  base.expandable[ex_.S] = true;
  base.expandable[ex_.A] = true;
  base.expandable[ex_.B] = true;
  base.expandable[ex_.C] = true;
  base.perceived = ex_.spec.deps;

  // Grouping an expandable member is rejected.
  {
    ModuleGroup group;
    group.production = ex_.p[0];  // W1 contains A (expandable)
    group.member_positions = {2};
    group.name = "G";
    group.perceived_deps = BoolMatrix::Full(2, 2);
    Result<GroupedView> view =
        GroupedView::Compile(ex_.spec.grammar, base, {group});
    EXPECT_FALSE(view.has_value());
    EXPECT_EQ(view.code(), ErrorCode::kInvalidGroup);
    EXPECT_NE(view.status().message().find("expandable"), std::string::npos);
  }
  // Grouping the recursion successor is rejected.
  {
    View loop_base = base;
    loop_base.expandable[ex_.C] = false;
    loop_base.expandable[ex_.D] = true;
    // D expandable requires removing it from groups; attempt to group the
    // recursive member D inside its own production p6.
    ModuleGroup group;
    group.production = ex_.p[5];  // W6 = [f, D]
    group.member_positions = {1};
    group.name = "G";
    group.perceived_deps = BoolMatrix::Full(2, 2);
    EXPECT_FALSE(GroupedView::Compile(ex_.spec.grammar, loop_base, {group})
                     .has_value());
  }
  // Wrong perceived-deps shape is rejected.
  {
    ModuleGroup group;
    group.production = ex_.p[4];
    group.member_positions = {1, 2};
    group.name = "F";
    group.perceived_deps = BoolMatrix::Full(3, 2);
    Result<GroupedView> view =
        GroupedView::Compile(ex_.spec.grammar, base, {group});
    EXPECT_FALSE(view.has_value());
    EXPECT_EQ(view.code(), ErrorCode::kInvalidGroup);
    EXPECT_NE(view.status().message().find("shape"), std::string::npos);
  }
}

}  // namespace
}  // namespace fvl
