#include <gtest/gtest.h>

#include <algorithm>

#include "fvl/service/provenance_service.h"
#include "fvl/core/view_label.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl {
namespace {

using ::fvl::testing::RegisteredLabel;
using ::fvl::testing::TwistedRingSpecification;

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

// The set a unit set {p} maps to through `m` along data flow: row p for a
// push (kInputs, {p} · m), column p for a pull (kOutputs, m · {p}); the
// empty set when `m` is undefined.
uint64_t UnitImage(const std::optional<BoolMatrix>& m, PortSide side, int p) {
  uint64_t image = 0;
  if (!m.has_value()) return image;
  const bool push = side == PortSide::kInputs;
  for (int q = 0; q < (push ? m->cols() : m->rows()); ++q) {
    if (push ? m->Get(p, q) : m->Get(q, p)) image |= uint64_t{1} << q;
  }
  return image;
}

int NumPorts(const Module& module, PortSide side) {
  return side == PortSide::kInputs ? module.num_inputs : module.num_outputs;
}

// The set-valued steps reproduce I, O and Z on every unit set.
void ExpectStepsMatchMatrices(const Grammar& g, const ViewLabel& label) {
  for (ProductionId k = 0; k < g.num_productions(); ++k) {
    const SimpleWorkflow& w = g.production(k).rhs;
    for (int pos = 0; pos < w.num_members(); ++pos) {
      const Module& member = g.module(w.members[pos]);
      for (PortSide side : {PortSide::kInputs, PortSide::kOutputs}) {
        std::optional<BoolMatrix> m =
            side == PortSide::kInputs ? label.I(k, pos) : label.O(k, pos);
        const int ports = side == PortSide::kInputs
                              ? g.module(g.production(k).lhs).num_inputs
                              : member.num_outputs;
        for (int p = 0; p < ports; ++p) {
          ASSERT_EQ(label.Reach(side, k, pos, uint64_t{1} << p),
                    UnitImage(m, side, p))
              << ToString(label.mode()) << " side " << static_cast<int>(side)
              << " k=" << k << " pos=" << pos << " p=" << p;
        }
      }
      for (int j = 0; j < w.num_members(); ++j) {
        std::optional<BoolMatrix> z = label.Z(k, pos, j);
        for (int p = 0; p < member.num_outputs; ++p) {
          ASSERT_EQ(label.ReachZ(k, pos, j, uint64_t{1} << p),
                    UnitImage(z, PortSide::kInputs, p))
              << ToString(label.mode()) << " Z(" << k << "," << pos << ","
              << j << ") p=" << p;
        }
      }
    }
  }
}

// I, O and Z agree across the three modes, defined or not, and each mode's
// set-valued steps agree with its matrices.
void ExpectFunctionsAgree(const Grammar& g,
                          const std::vector<const ViewLabel*>& labels) {
  for (const ViewLabel* label : labels) ExpectStepsMatchMatrices(g, *label);
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

TEST_F(ViewLabelTest, VariantsAgreeOnAllFunctions) {
  for (const auto* view : {&u1_, &u2_}) {
    ExpectFunctionsAgree(ex_.spec.grammar, AllModes(*service_, *view));
  }
  ExpectFunctionsAgree(ex_.spec.grammar, AllModes(*service_, Example18()));
  BioAidView bio;
  ExpectFunctionsAgree(bio.workload.spec.grammar,
                       AllModes(*bio.service, bio.view));
}

// The walk as the plain product of its iteration - 1 factors, read through
// I (or O) one edge at a time: the definition ReachWalk must reproduce.
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

// How many ports a walk's set enters on: the first member's inputs for a
// push (kInputs), the last member's outputs for a pull (kOutputs).
int WalkPorts(const ProductionGraph& pg, PortSide side, int s, int t,
              int iteration) {
  const int entry = side == PortSide::kInputs ? t : t + iteration - 1;
  return NumPorts(pg.grammar().module(pg.EdgeSource(pg.CycleEdgeAt(s, entry))),
                  side);
}

// Whether a walk is defined: each of its iteration - 1 factors is. The
// cycle repeats after its length, so at most one lap is read.
bool WalkDefined(const ViewLabel& label, PortSide side, int s, int t,
                 int iteration) {
  const ProductionGraph& pg = label.production_graph();
  for (int a = 0; a < std::min(iteration - 1, pg.cycle(s).length()); ++a) {
    PgEdge edge = pg.CycleEdgeAt(s, t + a);
    std::optional<BoolMatrix> factor =
        side == PortSide::kInputs ? label.I(edge.production, edge.position)
                                  : label.O(edge.production, edge.position);
    if (!factor.has_value()) return false;
  }
  return true;
}

// Both set walks agree across the three modes on every unit set, for every
// cycle, start and a spread of iterations, and so does whether each walk is
// defined; an undefined walk maps every unit set to the empty set.
void ExpectWalksAgree(const ProductionGraph& pg,
                      const std::vector<const ViewLabel*>& labels) {
  const ViewLabel& se = *labels[0];
  for (const ViewLabel* other : {labels[1], labels[2]}) {
    for (int s = 0; s < pg.num_cycles(); ++s) {
      for (int t = 0; t < pg.cycle(s).length(); ++t) {
        for (int iteration : {1, 2, 3, 5, 9, 40, 1000}) {
          for (PortSide side : {PortSide::kInputs, PortSide::kOutputs}) {
            const bool defined = WalkDefined(se, side, s, t, iteration);
            ASSERT_EQ(defined, WalkDefined(*other, side, s, t, iteration))
                << ToString(other->mode()) << " side "
                << static_cast<int>(side) << " s=" << s << " t=" << t
                << " i=" << iteration;
            for (int p = 0; p < WalkPorts(pg, side, s, t, iteration); ++p) {
              const uint64_t reached =
                  se.ReachWalk(side, s, t, iteration, uint64_t{1} << p);
              ASSERT_EQ(reached, other->ReachWalk(side, s, t, iteration,
                                                  uint64_t{1} << p))
                  << ToString(other->mode()) << " side "
                  << static_cast<int>(side) << " s=" << s << " t=" << t
                  << " i=" << iteration << " p=" << p;
              if (!defined) {
                ASSERT_EQ(reached, 0u) << "p=" << p;
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(ViewLabelTest, WalksAgreeAcrossVariantsAndIterations) {
  const ProductionGraph& pg = service_->production_graph();
  std::vector<const ViewLabel*> u1 = AllModes(*service_, u1_);
  // Every walk is defined in the default view.
  for (int s = 0; s < pg.num_cycles(); ++s) {
    for (int t = 0; t < pg.cycle(s).length(); ++t) {
      for (PortSide side : {PortSide::kInputs, PortSide::kOutputs}) {
        ASSERT_TRUE(StepwiseWalk(*u1[0], side, s, t, 1000).has_value());
      }
    }
  }
  ExpectWalksAgree(pg, u1);
  ExpectWalksAgree(pg, AllModes(*service_, Example18()));
  BioAidView bio;
  ExpectWalksAgree(bio.service->production_graph(),
                   AllModes(*bio.service, bio.view));
}

// Walks of up to seven full cycles, including at least two (the
// divide-and-conquer branch on a fully active cycle), whose remainder
// total % l is 0, 1 or l - 1, map every unit set as the stepwise product
// does, in every mode.
void ExpectLongWalksMatchStepwise(const ProductionGraph& pg,
                                  const std::vector<const ViewLabel*>& labels) {
  for (const ViewLabel* label : labels) {
    for (int s = 0; s < pg.num_cycles(); ++s) {
      const int l = pg.cycle(s).length();
      for (int t = 0; t < l; ++t) {
        for (int cycles : {0, 1, 2, 3, 7}) {
          for (int remainder : {0, 1 % l, l - 1}) {
            const int iteration = cycles * l + remainder + 1;
            for (PortSide side : {PortSide::kInputs, PortSide::kOutputs}) {
              std::optional<BoolMatrix> product =
                  StepwiseWalk(*label, side, s, t, iteration);
              for (int p = 0; p < WalkPorts(pg, side, s, t, iteration); ++p) {
                ASSERT_EQ(label->ReachWalk(side, s, t, iteration,
                                           uint64_t{1} << p),
                          UnitImage(product, side, p))
                    << ToString(label->mode()) << " side "
                    << static_cast<int>(side) << " s=" << s << " t=" << t
                    << " i=" << iteration << " p=" << p;
              }
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
  ASSERT_TRUE(StepwiseWalk(*u1[0], PortSide::kInputs, 0, 0, 1000).has_value());
  ExpectLongWalksMatchStepwise(pg, u1);
  ExpectLongWalksMatchStepwise(pg, AllModes(*service_, u2_));
  ExpectLongWalksMatchStepwise(pg, AllModes(*service_, Example18()));
  BioAidView bio;
  ExpectLongWalksMatchStepwise(bio.service->production_graph(),
                               AllModes(*bio.service, bio.view));
  // A cycle whose factors do not commute pins the order of each walk.
  auto twisted = ProvenanceService::Create(TwistedRingSpecification()).value();
  ASSERT_EQ(twisted->production_graph().num_cycles(), 1);
  ASSERT_EQ(twisted->production_graph().cycle(0).length(), 2);
  ExpectLongWalksMatchStepwise(
      twisted->production_graph(),
      AllModes(*twisted,
               *twisted->CompiledRegularView(twisted->default_view()).value()));
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
  // Cycle 1 (the D self-loop) is severed: its one edge has no I or O
  // factor, so its walk is undefined beyond the first member and maps
  // every unit set to the empty set on both sides...
  const ProductionGraph& pg = service_->production_graph();
  const PgEdge severed = pg.CycleEdgeAt(1, 0);
  EXPECT_FALSE(label.I(severed.production, severed.position).has_value());
  EXPECT_FALSE(label.O(severed.production, severed.position).has_value());
  for (PortSide side : {PortSide::kInputs, PortSide::kOutputs}) {
    EXPECT_FALSE(WalkDefined(label, side, 1, 0, 2));
    ASSERT_GT(WalkPorts(pg, side, 1, 0, 2), 0);
    for (int p = 0; p < WalkPorts(pg, side, 1, 0, 2); ++p) {
      EXPECT_EQ(label.ReachWalk(side, 1, 0, 2, uint64_t{1} << p), 0u)
          << "side " << static_cast<int>(side) << " p=" << p;
      // ...but the trivial walk (identity) is still defined.
      EXPECT_EQ(label.ReachWalk(side, 1, 0, 1, uint64_t{1} << p),
                uint64_t{1} << p)
          << "side " << static_cast<int>(side) << " p=" << p;
    }
  }
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
