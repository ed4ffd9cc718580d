// Construction and labeling contracts of the service path: checked creation
// owns its specification, generated runs are labeled completely, the
// default-view session query is the Thm.-8 basic dynamic labeling scheme,
// and data labels are O(log n) and immutable once assigned.

#include <gtest/gtest.h>

#include "fvl/run/provenance_oracle.h"
#include "fvl/service/provenance_service.h"
#include "fvl/workload/paper_example.h"
#include "test_util.h"

namespace fvl {
namespace {

TEST(ServiceCreate, SucceedsOnPaperExampleAndOwnsTheSpecification) {
  PaperExample ex = MakePaperExample();
  Result<std::shared_ptr<ProvenanceService>> service =
      ProvenanceService::Create(ex.spec);
  ASSERT_TRUE(service.has_value()) << service.status().ToString();
  EXPECT_NE(&(*service)->grammar(), &ex.spec.grammar);
  EXPECT_EQ((*service)->grammar().num_modules(), ex.spec.grammar.num_modules());
  EXPECT_TRUE((*service)->true_full().IsDefined(ex.S));
}

TEST(ServiceCreate, GenerateLabeledRunLabelsEverything) {
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  RunGeneratorOptions options;
  options.target_items = 300;
  auto session = service->GenerateLabeledRun(options);
  EXPECT_TRUE(session->complete());
  EXPECT_EQ(session->labeler().num_labels(), session->num_items());
}

TEST(DefaultViewAdapter, Theorem8) {
  // Thm. 8: the view-adaptive scheme yields a basic dynamic labeling scheme
  // for the default view: φ'(d) = (φr(d), φv(U_default)), so a session's
  // Depends on default_view() answers white-box reachability.
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  auto session = service->BeginRun();

  // Terminate every frontier instance along its cheapest completion.
  const Grammar& g = service->grammar();
  std::vector<int64_t> cost = MinCompletionItems(g);
  while (!session->complete()) {
    int inst = session->run().Frontier().front();
    ModuleId type = session->run().instance(inst).type;
    ProductionId best = -1;
    int64_t best_cost = -1;
    for (ProductionId k : g.ProductionsOf(type)) {
      const Production& p = g.production(k);
      int64_t total = static_cast<int64_t>(p.rhs.edges.size());
      for (ModuleId member : p.rhs.members) total += cost[member];
      if (best == -1 || total < best_cost) {
        best = k;
        best_cost = total;
      }
    }
    ASSERT_TRUE(session->Apply(inst, best).ok());
  }

  auto default_view =
      *CompiledView::Compile(ex.spec.grammar, ex.default_view);
  ProvenanceOracle oracle(session->run(), default_view);
  for (int d1 = 0; d1 < session->num_items(); ++d1) {
    for (int d2 = 0; d2 < session->num_items(); ++d2) {
      ASSERT_EQ(session->Depends(service->default_view(), d1, d2).value(),
                oracle.Depends(d1, d2))
          << "d1=" << d1 << " d2=" << d2;
    }
  }
}

TEST(LabelLength, LogarithmicGrowth) {
  // Thm. 10 part 1: data labels are O(log n) bits. Doubling the run size
  // must increase the maximum label length by only a constant.
  auto service = ProvenanceService::Create(MakePaperExample().spec).value();
  std::vector<double> max_bits;
  for (int target : {1000, 2000, 4000, 8000}) {
    RunGeneratorOptions options;
    options.target_items = target;
    options.seed = 3;
    auto session = service->GenerateLabeledRun(options);
    int64_t run_max = 0;
    for (int item = 0; item < session->num_items(); ++item) {
      run_max = std::max(run_max, session->LabelBits(item));
    }
    max_bits.push_back(static_cast<double>(run_max));
  }
  for (size_t i = 1; i < max_bits.size(); ++i) {
    EXPECT_LE(max_bits[i] - max_bits[i - 1], 10.0)
        << "doubling added too many bits at step " << i;
  }
  // And the absolute size is far below linear (a 8000-item run would need
  // thousands of bits if labels were linear).
  EXPECT_LT(max_bits.back(), 120.0);
}

TEST(LabelImmutability, LabelsNeverChangeAfterAssignment) {
  // Def. 10: labels are assigned when items appear and cannot be modified.
  // Snapshot every label right after its creation step and compare at the
  // end of the derivation.
  PaperExample ex = MakePaperExample();
  auto service = ProvenanceService::Create(ex.spec).value();
  RunLabeler labeler = service->MakeRunLabeler();
  std::vector<DataLabel> snapshots;

  RunGeneratorOptions options;
  options.target_items = 400;
  ::fvl::Run run = GenerateRandomRun(
      service->grammar(), options,
      [&](const ::fvl::Run& current, const DerivationStep* step) {
        if (step == nullptr) {
          labeler.OnStart(current);
        } else {
          labeler.OnApply(current, *step);
        }
        for (int item = static_cast<int>(snapshots.size());
             item < labeler.num_labels(); ++item) {
          snapshots.push_back(labeler.Label(item));
        }
      });
  ASSERT_EQ(static_cast<int>(snapshots.size()), run.num_items());
  for (int item = 0; item < run.num_items(); ++item) {
    ASSERT_EQ(labeler.Label(item), snapshots[item]) << "item " << item;
  }
}

}  // namespace
}  // namespace fvl
