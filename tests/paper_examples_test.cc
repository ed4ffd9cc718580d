// End-to-end verification of the paper's running example (Figures 2–5,
// Examples 3–19). Where the paper's figures fully determine an artifact
// (production positions, cycle index, label paths, the I(1,5) matrices of
// Example 16) we assert it verbatim; where port arities were chosen by us
// (docs/DESIGN.md §8) we assert the corresponding semantic property instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "fvl/core/decoder.h"
#include "fvl/core/run_labeler.h"
#include "fvl/service/provenance_service.h"
#include "fvl/core/view_label.h"
#include "fvl/core/visibility.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/workflow/properness.h"
#include "fvl/workflow/recursion_analysis.h"
#include "fvl/workflow/safety.h"
#include "fvl/workload/paper_example.h"
#include "test_util.h"

namespace fvl {
namespace {

using ::fvl::testing::CompleteRun;
using ::fvl::testing::Mat;
using ::fvl::testing::RegisteredLabel;

class PaperExampleTest : public ::testing::Test {
 protected:
  PaperExampleTest()
      : ex_(MakePaperExample()),
        service_(ProvenanceService::Create(ex_.spec).value()) {}

  // Derives the Figure-3 run prefix: p1, p2, p4, p2, p4, p3, then expands
  // C:4 (p5), its D-loop (p6, p6, p7) and E (p8); finally completes the
  // remaining composite instances (C:1, C:2, C:3 and their children).
  struct Fig3Run {
    ::fvl::Run run;  // qualified: ::testing::Test has a private Run() member
    RunLabeler labeler;
    int A1, B1, A2, B2, A3, C4, D1, D2, D3, E1, b2;
    int d21;  // the Example-15 data item: b:2.out1(paper) -> D:1's 2nd input
  };

  Fig3Run DeriveFig3() {
    ::fvl::Run run(&ex_.spec.grammar);
    RunLabeler labeler = service_->MakeRunLabeler();
    labeler.OnStart(run);
    auto apply = [&](int instance, ProductionId production) {
      const DerivationStep& step = run.Apply(instance, production);
      labeler.OnApply(run, step);
      return step;
    };
    const DerivationStep& s1 = apply(run.start_instance(), ex_.p[0]);  // p1
    int A1 = s1.first_child + 2;  // W1 = [a, b, A, C, c, d]
    const DerivationStep& s2 = apply(A1, ex_.p[1]);  // p2: [d, B, C]
    int B1 = s2.first_child + 1;
    const DerivationStep& s3 = apply(B1, ex_.p[3]);  // p4: [e, A]
    int A2 = s3.first_child + 1;
    const DerivationStep& s4 = apply(A2, ex_.p[1]);
    int B2 = s4.first_child + 1;
    const DerivationStep& s5 = apply(B2, ex_.p[3]);
    int A3 = s5.first_child + 1;
    const DerivationStep& s6 = apply(A3, ex_.p[2]);  // p3: [e, C]
    int C4 = s6.first_child + 1;
    const DerivationStep& s7 = apply(C4, ex_.p[4]);  // p5: [b, D, E, c]
    int b2 = s7.first_child + 0;
    int D1 = s7.first_child + 1;
    int E1 = s7.first_child + 2;
    int d21 = s7.first_item + 0;  // first edge of W5: b.out0 -> D.in1
    const DerivationStep& s8 = apply(D1, ex_.p[5]);  // p6: [f, D]
    int D2 = s8.first_child + 1;
    const DerivationStep& s9 = apply(D2, ex_.p[5]);
    int D3 = s9.first_child + 1;
    apply(D3, ex_.p[6]);  // p7
    apply(E1, ex_.p[7]);  // p8
    while (!run.IsComplete()) {
      int inst = run.Frontier().front();
      ModuleId type = run.instance(inst).type;
      // Complete with base productions: A->p3, B->p4, C->p5, D->p7, E->p8.
      ProductionId k;
      if (type == ex_.A) {
        k = ex_.p[2];
      } else if (type == ex_.B) {
        k = ex_.p[3];
      } else if (type == ex_.C) {
        k = ex_.p[4];
      } else if (type == ex_.D) {
        k = ex_.p[6];
      } else {
        EXPECT_EQ(type, ex_.E) << "unexpected frontier type";
        k = ex_.p[7];
      }
      apply(inst, k);
    }
    return {std::move(run), std::move(labeler), A1,  B1, A2, B2,
            A3,             C4,                 D1,  D2, D3, E1,
            b2,             d21};
  }

  PaperExample ex_;
  std::shared_ptr<ProvenanceService> service_;
};

// ----- Grammar shape (Figure 2, Example 5). -----

TEST_F(PaperExampleTest, GrammarShape) {
  const Grammar& g = ex_.spec.grammar;
  EXPECT_EQ(g.num_modules(), 12);
  EXPECT_EQ(g.num_productions(), 8);
  EXPECT_EQ(g.CompositeModules().size(), 6u);
  EXPECT_EQ(g.start(), ex_.S);
  EXPECT_FALSE(ex_.spec.Validate().has_value());
  // Production member lists recovered from Figures 13/14.
  auto members = [&](int k) { return g.production(ex_.p[k]).rhs.members; };
  EXPECT_EQ(members(0),
            (std::vector<ModuleId>{ex_.a, ex_.b, ex_.A, ex_.C, ex_.c, ex_.d}));
  EXPECT_EQ(members(1), (std::vector<ModuleId>{ex_.d, ex_.B, ex_.C}));
  EXPECT_EQ(members(2), (std::vector<ModuleId>{ex_.e, ex_.C}));
  EXPECT_EQ(members(3), (std::vector<ModuleId>{ex_.e, ex_.A}));
  EXPECT_EQ(members(4), (std::vector<ModuleId>{ex_.b, ex_.D, ex_.E, ex_.c}));
  EXPECT_EQ(members(5), (std::vector<ModuleId>{ex_.f, ex_.D}));
  EXPECT_EQ(members(6), (std::vector<ModuleId>{ex_.f}));
  EXPECT_EQ(members(7), (std::vector<ModuleId>{ex_.f, ex_.c}));
}

TEST_F(PaperExampleTest, GrammarIsProper) {
  PropernessReport report = AnalyzeProperness(ex_.spec.grammar);
  EXPECT_TRUE(report.IsProper(ex_.spec.grammar)) << report.Describe(ex_.spec.grammar);
}

// ----- Production graph and cycle index (Example 12, Figure 12). -----

TEST_F(PaperExampleTest, ProductionGraphEdgesAndCycles) {
  const ProductionGraph& pg = service_->production_graph();
  EXPECT_TRUE(pg.strictly_linear());
  ASSERT_EQ(pg.num_cycles(), 2);
  // C(1) = {(2,2), (4,2)} — paper is 1-based, we are 0-based.
  const auto& c1 = pg.cycle(0);
  ASSERT_EQ(c1.length(), 2);
  EXPECT_EQ(c1.edges[0], (PgEdge{ex_.p[1], 1}));
  EXPECT_EQ(c1.edges[1], (PgEdge{ex_.p[3], 1}));
  EXPECT_EQ(c1.members, (std::vector<ModuleId>{ex_.A, ex_.B}));
  // C(2) = {(6,2)}.
  const auto& c2 = pg.cycle(1);
  ASSERT_EQ(c2.length(), 1);
  EXPECT_EQ(c2.edges[0], (PgEdge{ex_.p[5], 1}));
  // Recursive modules: A, B, D only.
  EXPECT_TRUE(pg.IsRecursive(ex_.A));
  EXPECT_TRUE(pg.IsRecursive(ex_.B));
  EXPECT_TRUE(pg.IsRecursive(ex_.D));
  EXPECT_FALSE(pg.IsRecursive(ex_.S));
  EXPECT_FALSE(pg.IsRecursive(ex_.C));
  EXPECT_FALSE(pg.IsRecursive(ex_.E));
  // Start indices: A is the first member of its cycle, B the second.
  EXPECT_EQ(pg.CycleStartIndex(ex_.A), 0);
  EXPECT_EQ(pg.CycleStartIndex(ex_.B), 1);
  EXPECT_EQ(pg.CycleStartIndex(ex_.D), 0);
  // Edge (1,5): S -> c (Example 12): production p1 position 4 targets c.
  EXPECT_EQ(pg.EdgeTarget({ex_.p[0], 4}), ex_.c);
  EXPECT_EQ(pg.EdgeSource({ex_.p[0], 4}), ex_.S);
  // Reachability in P(G).
  EXPECT_TRUE(pg.Reaches(ex_.S, ex_.f));
  EXPECT_TRUE(pg.Reaches(ex_.A, ex_.B));
  EXPECT_TRUE(pg.Reaches(ex_.B, ex_.A));
  EXPECT_FALSE(pg.Reaches(ex_.C, ex_.A));
}

TEST_F(PaperExampleTest, RecursionAnalysis) {
  const ProductionGraph& pg = service_->production_graph();
  EXPECT_TRUE(IsLinearRecursive(pg));
  EXPECT_TRUE(IsStrictlyLinearRecursive(pg));
  EXPECT_TRUE(IsStrictlyLinearRecursivePaperAlgorithm(pg));
  EXPECT_TRUE(pg.IsRecursiveGrammar());
}

// ----- Safety and the full assignment (Thm. 2, Example 10). -----

TEST_F(PaperExampleTest, FullAssignment) {
  Result<DependencyAssignment> safety =
      CheckSafety(ex_.spec.grammar, ex_.spec.deps);
  ASSERT_TRUE(safety.ok()) << safety.status().ToString();
  // Hand-computed λ* (docs/DESIGN.md §8).
  EXPECT_EQ(safety->Get(ex_.D), Mat({"11", "01"}));
  EXPECT_EQ(safety->Get(ex_.E), Mat({"11", "01"}));
  EXPECT_EQ(safety->Get(ex_.C), Mat({"01", "11"}));
  EXPECT_EQ(safety->Get(ex_.A), Mat({"11", "01"}));
  EXPECT_EQ(safety->Get(ex_.B), Mat({"01", "11"}));
  EXPECT_EQ(safety->Get(ex_.S), Mat({"111", "001"}));
}

// ----- Views (Examples 7, 10). -----

TEST_F(PaperExampleTest, GreyViewCompilesAndDiffers) {
  auto u1 = CompiledView::Compile(ex_.spec.grammar, ex_.default_view);
  ASSERT_TRUE(u1.has_value()) << u1.status().ToString();
  auto u2 = CompiledView::Compile(ex_.spec.grammar, ex_.grey_view);
  ASSERT_TRUE(u2.has_value()) << u2.status().ToString();

  EXPECT_TRUE(u1->IsWhiteBox(service_->true_full()));
  EXPECT_FALSE(u2->IsWhiteBox(service_->true_full()));
  EXPECT_FALSE(u1->IsBlackBox());

  // In U2 the modules D, E, f are underivable (Example 7).
  EXPECT_FALSE(u2->IsDerivable(ex_.D));
  EXPECT_FALSE(u2->IsDerivable(ex_.E));
  EXPECT_FALSE(u2->IsDerivable(ex_.f));
  EXPECT_TRUE(u2->IsDerivable(ex_.C));
  EXPECT_TRUE(u2->IsDerivable(ex_.e));

  // Full assignments diverge on S and A but agree on B's shape
  // (paper Figure 7 shows the same phenomenon).
  EXPECT_EQ(u2->full().Get(ex_.A), Mat({"11", "11"}));
  EXPECT_EQ(u2->full().Get(ex_.B), Mat({"11", "11"}));
  EXPECT_EQ(u2->full().Get(ex_.S), Mat({"111", "101"}));
  EXPECT_NE(u1->full().Get(ex_.S), u2->full().Get(ex_.S));
}

TEST_F(PaperExampleTest, ImproperViewRejected) {
  // A view that cannot expand the start module is rejected.
  View bad;
  bad.expandable.assign(ex_.spec.grammar.num_modules(), false);
  bad.expandable[ex_.A] = true;
  bad.perceived = ex_.spec.deps;
  Result<CompiledView> compiled = CompiledView::Compile(ex_.spec.grammar, bad);
  EXPECT_FALSE(compiled.has_value());
  EXPECT_EQ(compiled.code(), ErrorCode::kInvalidView);
  EXPECT_NE(compiled.status().message().find("start"), std::string::npos);
}

// ----- Compressed parse tree and data labels (Figures 13/14, Example 15).

// The compressed-parse-tree path of `instance` (Fig. 14), read off the
// labels of the items adjacent to it at creation: an item's producer
// (consumer) side carries the path of the instance that created it. Every
// such side must carry the same path.
std::vector<EdgeLabel> PathOf(const ::fvl::Run& run, const RunLabeler& labeler,
                              int instance) {
  std::vector<std::vector<EdgeLabel>> sides;
  for (int item = 0; item < run.num_items(); ++item) {
    const DataLabel label = labeler.Label(item);
    if (run.item(item).producer_instance == instance) {
      sides.push_back(label.producer->path);
    }
    if (run.item(item).consumer_instance == instance) {
      sides.push_back(label.consumer->path);
    }
  }
  EXPECT_FALSE(sides.empty()) << "no item adjacent to instance " << instance;
  for (const std::vector<EdgeLabel>& side : sides) {
    EXPECT_EQ(side, sides.front()) << "instance " << instance;
  }
  return sides.empty() ? std::vector<EdgeLabel>{} : sides.front();
}

TEST_F(PaperExampleTest, CompressedParseTreeShape) {
  Fig3Run fig3 = DeriveFig3();
  auto path_of = [&](int instance) {
    return PathOf(fig3.run, fig3.labeler, instance);
  };
  auto extend = [](std::vector<EdgeLabel> path,
                   std::initializer_list<EdgeLabel> edges) {
    path.insert(path.end(), edges);
    return path;
  };

  // S is not recursive: S:1 is the root, with the empty path.
  EXPECT_TRUE(path_of(fig3.run.start_instance()).empty());

  // A:1, B:1, A:2, B:2, A:3 are flattened under one recursive node, the
  // child (1,3) of the root: children 1..5 of cycle 0 unfolded from its
  // edge 0.
  const std::vector<EdgeLabel> rec = {EdgeLabel::Prod(ex_.p[0], 2)};
  const int siblings[] = {fig3.A1, fig3.B1, fig3.A2, fig3.B2, fig3.A3};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(path_of(siblings[i]), extend(rec, {EdgeLabel::Rec(0, 0, i + 1)}))
        << "sibling " << i + 1;
  }
  // ... and it has no sixth child: no label reaches past iteration 5 of
  // cycle 0.
  int last_iteration = 0;
  for (int item = 0; item < fig3.labeler.num_labels(); ++item) {
    const DataLabel label = fig3.labeler.Label(item);
    for (const auto& side : {label.producer, label.consumer}) {
      if (!side.has_value()) continue;
      for (const EdgeLabel& e : side->path) {
        if (e.kind == EdgeLabel::Kind::kRecursion && e.cycle == 0) {
          last_iteration = std::max(last_iteration, e.iteration);
        }
      }
    }
  }
  EXPECT_EQ(last_iteration, 5);

  // Edge-label paths (paper Figure 14, 1-based (1,3),(1,1,5),(3,2)).
  const std::vector<EdgeLabel> a3 = extend(rec, {EdgeLabel::Rec(0, 0, 5)});
  EXPECT_EQ(path_of(fig3.A3), a3);
  const std::vector<EdgeLabel> c4 = extend(a3, {EdgeLabel::Prod(ex_.p[2], 1)});
  EXPECT_EQ(path_of(fig3.C4), c4);

  // D:1..D:3 under C:4's recursive child node (5,2), labels (2,1,i).
  const std::vector<EdgeLabel> rec2 =
      extend(c4, {EdgeLabel::Prod(ex_.p[4], 1)});
  const int loop[] = {fig3.D1, fig3.D2, fig3.D3};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(path_of(loop[i]), extend(rec2, {EdgeLabel::Rec(1, 0, i + 1)}))
        << "D:" << i + 1;
  }

  // Lemma 4: depth <= 2|Δ|. D:3's children sit one edge below D:3.
  EXPECT_EQ(fig3.labeler.max_depth(), static_cast<int>(rec2.size()) + 2);
  EXPECT_LE(fig3.labeler.max_depth(), 2 * 6);
}

TEST_F(PaperExampleTest, Example15DataLabel) {
  Fig3Run fig3 = DeriveFig3();
  const DataLabel& label = fig3.labeler.Label(fig3.d21);
  ASSERT_TRUE(label.producer.has_value());
  ASSERT_TRUE(label.consumer.has_value());
  // φr(o) = {(1,3),(1,1,5),(3,2),(5,1), port 1}:
  EXPECT_EQ(label.producer->path,
            (std::vector<EdgeLabel>{
                EdgeLabel::Prod(ex_.p[0], 2), EdgeLabel::Rec(0, 0, 5),
                EdgeLabel::Prod(ex_.p[2], 1), EdgeLabel::Prod(ex_.p[4], 0)}));
  EXPECT_EQ(label.producer->port, 0);
  // φr(i) = {(1,3),(1,1,5),(3,2),(5,2),(2,1,1), port 2}:
  EXPECT_EQ(label.consumer->path,
            (std::vector<EdgeLabel>{
                EdgeLabel::Prod(ex_.p[0], 2), EdgeLabel::Rec(0, 0, 5),
                EdgeLabel::Prod(ex_.p[2], 1), EdgeLabel::Prod(ex_.p[4], 1),
                EdgeLabel::Rec(1, 0, 1)}));
  EXPECT_EQ(label.consumer->port, 1);
  // Pretty-printing matches the paper's 1-based notation.
  EXPECT_EQ(label.producer->ToString(), "{(1,3),(1,1,5),(3,2),(5,1),1}");
  EXPECT_EQ(label.consumer->ToString(), "{(1,3),(1,1,5),(3,2),(5,2),(2,1,1),2}");
}

// ----- View labels (Example 16). -----

TEST_F(PaperExampleTest, Example16ViewLabelMatrices) {
  auto u1 = *CompiledView::Compile(ex_.spec.grammar, ex_.default_view);
  auto u2 = *CompiledView::Compile(ex_.spec.grammar, ex_.grey_view);
  const ViewLabel& v1 = RegisteredLabel(*service_, u1, ViewLabelMode::kDefault);
  const ViewLabel& v2 = RegisteredLabel(*service_, u2, ViewLabelMode::kDefault);

  // I(1,5) — exactly the paper's matrices.
  EXPECT_EQ(*v1.I(ex_.p[0], 4), Mat({"11", "00"}));
  EXPECT_EQ(*v2.I(ex_.p[0], 4), Mat({"11", "01"}));
  // Z(1,2,5): all-false under U1, b ⇝ c.in1 under U2.
  EXPECT_EQ(*v1.Z(ex_.p[0], 1, 4), Mat({"00"}));
  EXPECT_EQ(*v2.Z(ex_.p[0], 1, 4), Mat({"01"}));
  // O(1,2): reversed reachability from b's output to S's final outputs.
  EXPECT_EQ(*v1.O(ex_.p[0], 1), Mat({"0", "0", "1"}));
  EXPECT_EQ(*v2.O(ex_.p[0], 1), Mat({"1", "0", "1"}));
  // I(5,1) is defined for U1 but not for U2 (Example 16's closing remark).
  EXPECT_TRUE(v1.I(ex_.p[4], 0).has_value());
  EXPECT_FALSE(v2.I(ex_.p[4], 0).has_value());
  // λ*(S) differs between the views.
  EXPECT_EQ(v1.StartMatrix(), Mat({"111", "001"}));
  EXPECT_EQ(v2.StartMatrix(), Mat({"111", "101"}));
}

// ----- The Example-8 query: answers differ between U1 and U2. -----

TEST_F(PaperExampleTest, Example8QueryDivergesAcrossViews) {
  Fig3Run fig3 = DeriveFig3();
  // d17/d31 analogue: the data item entering C:4's first input vs the item
  // leaving C:4's first output.
  int d17 = fig3.run.InputItems(fig3.C4)[0];
  int d31 = fig3.run.OutputItems(fig3.C4)[0];

  auto u1 = *CompiledView::Compile(ex_.spec.grammar, ex_.default_view);
  auto u2 = *CompiledView::Compile(ex_.spec.grammar, ex_.grey_view);
  const ViewLabel& v1 =
      RegisteredLabel(*service_, u1, ViewLabelMode::kQueryEfficient);
  const ViewLabel& v2 =
      RegisteredLabel(*service_, u2, ViewLabelMode::kQueryEfficient);
  Decoder pi1(&v1);
  Decoder pi2(&v2);

  const DataLabel& l17 = fig3.labeler.Label(d17);
  const DataLabel& l31 = fig3.labeler.Label(d31);
  // "Does d31 depend on d17?" — no under U1 (λ*(C)[0][0] = 0), yes under U2
  // (grey-box complete C).
  EXPECT_FALSE(pi1.Depends(l17, l31));
  EXPECT_TRUE(pi2.Depends(l17, l31));

  // Ground truth agrees.
  ProvenanceOracle oracle1(fig3.run, u1);
  ProvenanceOracle oracle2(fig3.run, u2);
  EXPECT_FALSE(oracle1.Depends(d17, d31));
  EXPECT_TRUE(oracle2.Depends(d17, d31));
}

// ----- Exhaustive agreement of π with the oracle on the Fig-3 run. -----

TEST_F(PaperExampleTest, DecoderMatchesOracleExhaustively) {
  Fig3Run fig3 = DeriveFig3();
  auto u1 = *CompiledView::Compile(ex_.spec.grammar, ex_.default_view);
  auto u2 = *CompiledView::Compile(ex_.spec.grammar, ex_.grey_view);

  for (const auto* view : {&u1, &u2}) {
    ProvenanceOracle oracle(fig3.run, *view);
    for (ViewLabelMode mode :
         {ViewLabelMode::kSpaceEfficient, ViewLabelMode::kDefault,
          ViewLabelMode::kQueryEfficient}) {
      const ViewLabel& vl = RegisteredLabel(*service_, *view, mode);
      Decoder pi(&vl);
      int checked = 0;
      for (int d1 = 0; d1 < fig3.run.num_items(); ++d1) {
        if (!oracle.ItemVisible(d1)) continue;
        for (int d2 = 0; d2 < fig3.run.num_items(); ++d2) {
          if (!oracle.ItemVisible(d2)) continue;
          bool expected = oracle.Depends(d1, d2);
          bool actual =
              pi.Depends(fig3.labeler.Label(d1), fig3.labeler.Label(d2));
          ASSERT_EQ(actual, expected)
              << "mode=" << ToString(mode) << " d1=" << d1 << " d2=" << d2
              << " l1=" << fig3.labeler.Label(d1).ToString()
              << " l2=" << fig3.labeler.Label(d2).ToString();
          ++checked;
        }
      }
      EXPECT_GT(checked, 100);
    }
  }
}

// ----- Visibility (§5) against the projection. -----

TEST_F(PaperExampleTest, VisibilityMatchesProjection) {
  Fig3Run fig3 = DeriveFig3();
  auto u2 = *CompiledView::Compile(ex_.spec.grammar, ex_.grey_view);
  const ViewLabel& vl = RegisteredLabel(*service_, u2, ViewLabelMode::kDefault);
  ProvenanceOracle oracle(fig3.run, u2);
  for (int item = 0; item < fig3.run.num_items(); ++item) {
    EXPECT_EQ(IsItemVisible(fig3.labeler.Label(item), vl),
              oracle.ItemVisible(item))
        << "item " << item << " " << fig3.labeler.Label(item).ToString();
  }
}

// ----- Negative examples (Figures 6 and 10). -----

TEST(PaperCounterExamples, UnsafeExampleRejected) {
  Specification unsafe = MakeUnsafeExample();
  Result<DependencyAssignment> safety =
      CheckSafety(unsafe.grammar, unsafe.deps);
  EXPECT_FALSE(safety.ok());
  EXPECT_EQ(safety.code(), ErrorCode::kUnsafeSpecification);
  EXPECT_NE(safety.status().message().find("inconsistent"), std::string::npos);
  EXPECT_EQ(ProvenanceService::Create(unsafe).code(),
            ErrorCode::kUnsafeSpecification);
}

TEST(PaperCounterExamples, Fig10IsLinearButNotStrict) {
  Specification fig10 = MakeFig10Example();
  ProductionGraph pg(&fig10.grammar);
  EXPECT_TRUE(IsLinearRecursive(pg));
  EXPECT_FALSE(IsStrictlyLinearRecursive(pg));
  EXPECT_FALSE(IsStrictlyLinearRecursivePaperAlgorithm(pg));
  // The Fig-10 assignment is safe; only compactness fails (Thm. 6), which
  // manifests as ProvenanceService rejecting the grammar.
  Result<DependencyAssignment> safety =
      CheckSafety(fig10.grammar, fig10.deps);
  EXPECT_TRUE(safety.ok()) << safety.status().ToString();
  Result<std::shared_ptr<ProvenanceService>> service =
      ProvenanceService::Create(fig10);
  EXPECT_EQ(service.code(), ErrorCode::kNotStrictlyLinearRecursive);
  EXPECT_NE(service.status().message().find("strictly linear"),
            std::string::npos);
}

}  // namespace
}  // namespace fvl
