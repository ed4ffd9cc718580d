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

  PaperExample ex_;
  std::shared_ptr<ProvenanceService> service_;
  CompiledView u1_, u2_;
};

TEST_F(ViewLabelTest, VariantsAgreeOnAllFunctions) {
  for (const auto* view : {&u1_, &u2_}) {
    const ViewLabel& se =
        RegisteredLabel(*service_, *view, ViewLabelMode::kSpaceEfficient);
    const ViewLabel& def =
        RegisteredLabel(*service_, *view, ViewLabelMode::kDefault);
    const ViewLabel& qe =
        RegisteredLabel(*service_, *view, ViewLabelMode::kQueryEfficient);
    const Grammar& g = ex_.spec.grammar;
    for (ProductionId k = 0; k < g.num_productions(); ++k) {
      int members = g.production(k).rhs.num_members();
      for (int pos = 0; pos < members; ++pos) {
        auto i_se = se.I(k, pos);
        auto i_def = def.I(k, pos);
        auto i_qe = qe.I(k, pos);
        ASSERT_EQ(i_se.has_value(), i_def.has_value());
        ASSERT_EQ(i_se.has_value(), i_qe.has_value());
        if (i_se.has_value()) {
          ASSERT_EQ(*i_se, *i_def) << "I(" << k << "," << pos << ")";
          ASSERT_EQ(*i_se, *i_qe);
          ASSERT_EQ(*se.O(k, pos), *def.O(k, pos));
          ASSERT_EQ(*se.O(k, pos), *qe.O(k, pos));
        }
        for (int j = 0; j < members; ++j) {
          auto z_se = se.Z(k, pos, j);
          auto z_def = def.Z(k, pos, j);
          if (z_se.has_value() && z_def.has_value()) {
            ASSERT_EQ(*z_se, *z_def) << "Z(" << k << "," << pos << "," << j
                                     << ")";
          }
        }
      }
    }
  }
}

TEST_F(ViewLabelTest, WalksAgreeAcrossVariantsAndIterations) {
  const ViewLabel& se =
      RegisteredLabel(*service_, u1_, ViewLabelMode::kSpaceEfficient);
  const ViewLabel& def =
      RegisteredLabel(*service_, u1_, ViewLabelMode::kDefault);
  const ViewLabel& qe =
      RegisteredLabel(*service_, u1_, ViewLabelMode::kQueryEfficient);
  const ProductionGraph& pg = service_->production_graph();
  for (int s = 0; s < pg.num_cycles(); ++s) {
    for (int t = 0; t < pg.cycle(s).length(); ++t) {
      for (int iteration : {1, 2, 3, 5, 9, 40, 1000}) {
        auto a = se.InputsWalk(s, t, iteration);
        auto b = def.InputsWalk(s, t, iteration);
        auto c = qe.InputsWalk(s, t, iteration);
        ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
        ASSERT_EQ(*a, *b) << "s=" << s << " t=" << t << " i=" << iteration;
        ASSERT_EQ(*a, *c);
        auto oa = se.OutputsWalk(s, t, iteration);
        auto ob = def.OutputsWalk(s, t, iteration);
        auto oc = qe.OutputsWalk(s, t, iteration);
        ASSERT_EQ(*oa, *ob);
        ASSERT_EQ(*oa, *oc);
      }
    }
  }
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
  EXPECT_FALSE(label.InputsWalk(1, 0, 2).has_value());
  // ...but the trivial walk (identity) is still defined.
  EXPECT_TRUE(label.InputsWalk(1, 0, 1).has_value());
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
