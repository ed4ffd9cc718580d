// End-to-end smoke test for the ProvenanceService front door: create a
// service from the paper-example specification, label a generated run
// online, register both paper views, and check the session's Depends under
// every ViewLabelMode against the white-box ProvenanceOracle.

#include <gtest/gtest.h>

#include <string>

#include "fvl/run/provenance_oracle.h"
#include "fvl/service/provenance_service.h"
#include "fvl/workload/paper_example.h"

namespace fvl {
namespace {

TEST(Smoke, ServiceEndToEnd) {
  PaperExample ex = MakePaperExample();

  // Checked construction succeeds on the paper grammar.
  Result<std::shared_ptr<ProvenanceService>> service =
      ProvenanceService::Create(ex.spec);
  ASSERT_TRUE(service.has_value()) << service.status().ToString();

  // Label a run online while it derives.
  RunGeneratorOptions options;
  options.target_items = 200;
  options.seed = 17;
  auto session = (*service)->GenerateLabeledRun(options);
  ASSERT_TRUE(session->complete());
  ASSERT_EQ(session->labeler().num_labels(), session->num_items());

  // Every view x mode combination must agree with the white-box oracle.
  for (const View* view : {&ex.default_view, &ex.grey_view}) {
    Result<ViewHandle> handle = (*service)->RegisterView(*view);
    ASSERT_TRUE(handle.has_value()) << handle.status().ToString();
    Result<CompiledView> compiled =
        CompiledView::Compile(ex.spec.grammar, *view);
    ASSERT_TRUE(compiled.has_value()) << compiled.status().ToString();
    ProvenanceOracle oracle(session->run(), *compiled);
    for (ViewLabelMode mode :
         {ViewLabelMode::kSpaceEfficient, ViewLabelMode::kDefault,
          ViewLabelMode::kQueryEfficient}) {
      int n = session->num_items();
      for (int d1 = 0; d1 < n; ++d1) {
        if (!oracle.ItemVisible(d1)) continue;
        for (int d2 = 0; d2 < n; ++d2) {
          if (!oracle.ItemVisible(d2)) continue;
          Result<bool> answer = session->Depends(*handle, d1, d2, mode);
          ASSERT_TRUE(answer.has_value()) << answer.status().ToString();
          ASSERT_EQ(*answer, oracle.Depends(d1, d2))
              << "mode=" << ToString(mode) << " d1=" << d1 << " d2=" << d2;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fvl
