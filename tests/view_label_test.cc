#include <gtest/gtest.h>

#include "fvl/service/provenance_service.h"
#include "fvl/core/view_label.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl {
namespace {

using ::fvl::testing::RegisteredLabel;

class ViewLabelTest : public ::testing::Test {
 protected:
  ViewLabelTest()
      : ex_(MakePaperExample()),
        service_(ProvenanceService::Create(ex_.spec).value()),
        u1_(CompiledView::Compile(ex_.spec.grammar, ex_.default_view)
                .value()),
        u2_(CompiledView::Compile(ex_.spec.grammar, ex_.grey_view).value()) {}

  // Example 18: W5's members D and E grouped into F (complete λ'(F)) over
  // Δ' = {S, A, B, C}, so p5's matrices come from an overlaid port graph.
  GroupedView Example18() const {
    View base;
    base.expandable.assign(ex_.spec.grammar.num_modules(), false);
    for (ModuleId m : {ex_.S, ex_.A, ex_.B, ex_.C}) base.expandable[m] = true;
    base.perceived = ex_.spec.deps;
    ModuleGroup group;
    group.production = ex_.p[4];
    group.member_positions = {1, 2};
    group.name = "F";
    group.perceived_deps = BoolMatrix::Full(2, 2);
    return GroupedView::Compile(ex_.spec.grammar, base, {group}).value();
  }

  PaperExample ex_;
  std::shared_ptr<ProvenanceService> service_;
  CompiledView u1_, u2_;
};

// A BioAID specification with one generated safe view over it.
struct BioAidView {
  BioAidView()
      : workload(MakeBioAid(2012)),
        service(ProvenanceService::Create(workload.spec).value()),
        view(GenerateSafeView(workload, ViewGeneratorOptions{
                                            .num_expandable = 8, .seed = 8})) {}
  Workload workload;
  std::shared_ptr<ProvenanceService> service;
  CompiledView view;
};

// The three labels of one view, in ViewLabelMode order.
template <typename ViewT>
std::vector<const ViewLabel*> AllModes(ProvenanceService& service,
                                       const ViewT& view) {
  return {&RegisteredLabel(service, view, ViewLabelMode::kSpaceEfficient),
          &RegisteredLabel(service, view, ViewLabelMode::kDefault),
          &RegisteredLabel(service, view, ViewLabelMode::kQueryEfficient)};
}

// I, O and Z agree across the three modes, defined or not.
void ExpectFunctionsAgree(const Grammar& g,
                          const std::vector<const ViewLabel*>& labels) {
  const ViewLabel& se = *labels[0];
  for (const ViewLabel* other : {labels[1], labels[2]}) {
    for (ProductionId k = 0; k < g.num_productions(); ++k) {
      int members = g.production(k).rhs.num_members();
      for (int pos = 0; pos < members; ++pos) {
        ASSERT_EQ(se.I(k, pos), other->I(k, pos))
            << ToString(other->mode()) << " I(" << k << "," << pos << ")";
        ASSERT_EQ(se.O(k, pos), other->O(k, pos))
            << ToString(other->mode()) << " O(" << k << "," << pos << ")";
        for (int j = 0; j < members; ++j) {
          ASSERT_EQ(se.Z(k, pos, j), other->Z(k, pos, j))
              << ToString(other->mode()) << " Z(" << k << "," << pos << ","
              << j << ")";
        }
      }
    }
  }
}

// Both walks agree across the three modes for every cycle, start and a
// spread of iterations, defined or not.
void ExpectWalksAgree(const ProductionGraph& pg,
                      const std::vector<const ViewLabel*>& labels) {
  const ViewLabel& se = *labels[0];
  for (const ViewLabel* other : {labels[1], labels[2]}) {
    for (int s = 0; s < pg.num_cycles(); ++s) {
      for (int t = 0; t < pg.cycle(s).length(); ++t) {
        for (int iteration : {1, 2, 3, 5, 9, 40, 1000}) {
          for (PortSide side : {PortSide::kInputs, PortSide::kOutputs}) {
            ASSERT_EQ(se.Walk(side, s, t, iteration),
                      other->Walk(side, s, t, iteration))
                << ToString(other->mode()) << " side "
                << static_cast<int>(side) << " s=" << s << " t=" << t
                << " i=" << iteration;
          }
        }
      }
    }
  }
}

TEST_F(ViewLabelTest, VariantsAgreeOnAllFunctions) {
  for (const auto* view : {&u1_, &u2_}) {
    ExpectFunctionsAgree(ex_.spec.grammar, AllModes(*service_, *view));
  }
  ExpectFunctionsAgree(ex_.spec.grammar, AllModes(*service_, Example18()));
  BioAidView bio;
  ExpectFunctionsAgree(bio.workload.spec.grammar,
                       AllModes(*bio.service, bio.view));
}

TEST_F(ViewLabelTest, WalksAgreeAcrossVariantsAndIterations) {
  const ProductionGraph& pg = service_->production_graph();
  std::vector<const ViewLabel*> u1 = AllModes(*service_, u1_);
  // Every walk is defined in the default view.
  for (int s = 0; s < pg.num_cycles(); ++s) {
    for (int t = 0; t < pg.cycle(s).length(); ++t) {
      ASSERT_TRUE(u1[0]->Walk(PortSide::kInputs, s, t, 1000).has_value());
      ASSERT_TRUE(u1[0]->Walk(PortSide::kOutputs, s, t, 1000).has_value());
    }
  }
  ExpectWalksAgree(pg, u1);
  ExpectWalksAgree(pg, AllModes(*service_, Example18()));
  BioAidView bio;
  ExpectWalksAgree(bio.service->production_graph(),
                   AllModes(*bio.service, bio.view));
}

// The walk as the plain product of its iteration - 1 factors, read through
// I (or O) one edge at a time: the definition Walk must reproduce.
std::optional<BoolMatrix> StepwiseWalk(const ViewLabel& label, PortSide side,
                                       int s, int t, int iteration) {
  const ProductionGraph& pg = label.production_graph();
  const Module& first =
      pg.grammar().module(pg.EdgeSource(pg.CycleEdgeAt(s, t)));
  BoolMatrix product = BoolMatrix::Identity(
      side == PortSide::kInputs ? first.num_inputs : first.num_outputs);
  for (int a = 0; a < iteration - 1; ++a) {
    PgEdge edge = pg.CycleEdgeAt(s, t + a);
    std::optional<BoolMatrix> factor =
        side == PortSide::kInputs ? label.I(edge.production, edge.position)
                                  : label.O(edge.production, edge.position);
    if (!factor.has_value()) return std::nullopt;
    product = product.Multiply(*factor);
  }
  return product;
}

// Walks of at least two full cycles (the divide-and-conquer branch on a
// fully active cycle) whose remainder total % l is 0, 1 or l - 1 equal the
// stepwise product, in every mode.
void ExpectLongWalksMatchStepwise(const ProductionGraph& pg,
                                  const std::vector<const ViewLabel*>& labels) {
  for (const ViewLabel* label : labels) {
    for (int s = 0; s < pg.num_cycles(); ++s) {
      const int l = pg.cycle(s).length();
      for (int t = 0; t < l; ++t) {
        for (int cycles : {2, 3, 7}) {
          for (int remainder : {0, 1 % l, l - 1}) {
            const int iteration = cycles * l + remainder + 1;
            for (PortSide side : {PortSide::kInputs, PortSide::kOutputs}) {
              ASSERT_EQ(label->Walk(side, s, t, iteration),
                        StepwiseWalk(*label, side, s, t, iteration))
                  << ToString(label->mode()) << " side "
                  << static_cast<int>(side) << " s=" << s << " t=" << t
                  << " i=" << iteration;
            }
          }
        }
      }
    }
  }
}

TEST_F(ViewLabelTest, LongWalksMatchTheStepwiseProduct) {
  const ProductionGraph& pg = service_->production_graph();
  // Every cycle is fully active in the default view, so each walk here
  // takes the full-cycle power.
  std::vector<const ViewLabel*> u1 = AllModes(*service_, u1_);
  ASSERT_GT(pg.num_cycles(), 0);
  ASSERT_TRUE(u1[0]->Walk(PortSide::kInputs, 0, 0, 1000).has_value());
  ExpectLongWalksMatchStepwise(pg, u1);
  ExpectLongWalksMatchStepwise(pg, AllModes(*service_, u2_));
  ExpectLongWalksMatchStepwise(pg, AllModes(*service_, Example18()));
  BioAidView bio;
  ExpectLongWalksMatchStepwise(bio.service->production_graph(),
                               AllModes(*bio.service, bio.view));
}

TEST_F(ViewLabelTest, SizeOrderingAcrossVariants) {
  const ViewLabel& se =
      RegisteredLabel(*service_, u1_, ViewLabelMode::kSpaceEfficient);
  const ViewLabel& def =
      RegisteredLabel(*service_, u1_, ViewLabelMode::kDefault);
  const ViewLabel& qe =
      RegisteredLabel(*service_, u1_, ViewLabelMode::kQueryEfficient);
  EXPECT_LT(se.SizeBits(), def.SizeBits());
  EXPECT_LT(def.SizeBits(), qe.SizeBits());
}

TEST_F(ViewLabelTest, InactiveProductionsUndefined) {
  const ViewLabel& label =
      RegisteredLabel(*service_, u2_, ViewLabelMode::kDefault);
  // p5..p8 are inactive in U2.
  for (int k = 4; k < 8; ++k) {
    EXPECT_FALSE(label.ProductionActive(ex_.p[k]));
    EXPECT_FALSE(label.I(ex_.p[k], 0).has_value());
    EXPECT_FALSE(label.O(ex_.p[k], 0).has_value());
    EXPECT_FALSE(label.Z(ex_.p[k], 0, 1).has_value());
  }
  // Cycle 1 (the D self-loop) is severed: its walk is undefined beyond the
  // first member.
  EXPECT_FALSE(label.Walk(PortSide::kInputs, 1, 0, 2).has_value());
  // ...but the trivial walk (identity) is still defined.
  EXPECT_TRUE(label.Walk(PortSide::kInputs, 1, 0, 1).has_value());
}

TEST_F(ViewLabelTest, ZIsEmptyForNonAscendingPairs) {
  const ViewLabel& label =
      RegisteredLabel(*service_, u1_, ViewLabelMode::kDefault);
  auto z = label.Z(ex_.p[0], 3, 1);  // C before b? no: i=3 >= j=1
  ASSERT_TRUE(z.has_value());
  EXPECT_TRUE(z->IsZero());
  auto z_self = label.Z(ex_.p[0], 2, 2);
  ASSERT_TRUE(z_self.has_value());
  EXPECT_TRUE(z_self->IsZero());
}

TEST(ViewLabelSizes, PaperFig19ShapeOnBioAid) {
  // Fig. 19's qualitative shape: SE ≪ Default ≤ QE, and label size grows
  // with the view size.
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();
  int64_t previous_default = 0;
  for (int size : {2, 8, 16}) {
    ViewGeneratorOptions options;
    options.num_expandable = size;
    options.seed = size;
    CompiledView view = GenerateSafeView(workload, options);
    int64_t se =
        RegisteredLabel(*service, view, ViewLabelMode::kSpaceEfficient)
            .SizeBits();
    int64_t def =
        RegisteredLabel(*service, view, ViewLabelMode::kDefault).SizeBits();
    int64_t qe =
        RegisteredLabel(*service, view, ViewLabelMode::kQueryEfficient)
            .SizeBits();
    EXPECT_LT(se, def);
    EXPECT_LE(def, qe);
    EXPECT_GT(def, previous_default);
    previous_default = def;
  }
}

}  // namespace
}  // namespace fvl
