// Property-based correctness sweeps (Thm. 9): for random workloads, random
// runs and random safe views, the decoding predicate π must agree with the
// ground-truth provenance oracle on every sampled query, in all three view
// label variants; the Matrix-Free specialization must agree on black-box
// views; visibility checks must agree with the projection.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fvl/core/decoder.h"
#include "fvl/core/visibility.h"
#include "fvl/run/provenance_oracle.h"
#include "fvl/service/provenance_service.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/paper_example.h"
#include "fvl/workload/query_generator.h"
#include "fvl/workload/synthetic.h"
#include "fvl/workload/view_generator.h"
#include "test_util.h"

namespace fvl {
namespace {

Workload MakeWorkloadByName(const std::string& name) {
  if (name == "bioaid") return MakeBioAid(2012);
  if (name == "paper") {
    PaperExample ex = MakePaperExample();
    return Workload{"paper", std::move(ex.spec), {}};
  }
  if (name == "twisted") {
    return Workload{"twisted", testing::TwistedRingSpecification(), {}};
  }
  SyntheticOptions options;
  options.seed = 7;
  if (name == "synthetic-small") {
    options.workflow_size = 5;
    options.module_degree = 2;
    options.nesting_depth = 2;
    options.recursion_length = 2;
  } else if (name == "synthetic-ring3") {
    options.workflow_size = 7;
    options.module_degree = 3;
    options.nesting_depth = 3;
    options.recursion_length = 3;
  } else {
    FVL_CHECK(name == "synthetic-deep");
    options.workflow_size = 5;
    options.module_degree = 2;
    options.nesting_depth = 5;
    options.recursion_length = 1;
  }
  return MakeSynthetic(options);
}

struct SweepParam {
  std::string workload;
  PerceivedDeps deps;
  int num_expandable;  // -1 = all
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string deps = info.param.deps == PerceivedDeps::kWhiteBox  ? "white"
                     : info.param.deps == PerceivedDeps::kGreyBox ? "grey"
                                                                  : "black";
  std::string expand = info.param.num_expandable < 0
                           ? "all"
                           : std::to_string(info.param.num_expandable);
  std::string name = info.param.workload + "_" + deps + "_" + expand + "_s" +
                     std::to_string(info.param.seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class DecoderSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DecoderSweep, PiAgreesWithOracle) {
  const SweepParam& param = GetParam();
  Workload workload = MakeWorkloadByName(param.workload);
  auto service = ProvenanceService::Create(workload.spec).value();

  RunGeneratorOptions run_options;
  run_options.target_items = 600;
  run_options.seed = param.seed;
  auto session = service->GenerateLabeledRun(run_options);

  ViewGeneratorOptions view_options;
  view_options.deps = param.deps;
  view_options.num_expandable = param.num_expandable;
  view_options.seed = param.seed * 31 + 5;
  CompiledView view = GenerateSafeView(workload, view_options);

  ProvenanceOracle oracle(session->run(), view);

  ViewHandle handle = service->RegisterView(view.view()).value();
  const ViewLabelMode modes[3] = {ViewLabelMode::kSpaceEfficient,
                                  ViewLabelMode::kDefault,
                                  ViewLabelMode::kQueryEfficient};
  const ViewLabel* labels[3];
  const Decoder* decoders[3];
  for (int mode = 0; mode < 3; ++mode) {
    labels[mode] = service->LabelOf(handle, modes[mode]).value();
    decoders[mode] = service->DecoderOf(handle, modes[mode]).value();
  }

  // Visibility must agree with the projection for every item.
  for (int item = 0; item < session->num_items(); ++item) {
    ASSERT_EQ(IsItemVisible(session->Label(item), *labels[1]),
              oracle.ItemVisible(item))
        << "item " << item << " label " << session->Label(item).ToString();
  }

  auto queries = GenerateVisibleQueries(session->run(), session->labeler(),
                                        *labels[1], 1500, param.seed * 7 + 1);
  int positives = 0;
  for (const auto& [d1, d2] : queries) {
    bool expected = oracle.Depends(d1, d2);
    positives += expected ? 1 : 0;
    const DataLabel& l1 = session->Label(d1);
    const DataLabel& l2 = session->Label(d2);
    for (int mode = 0; mode < 3; ++mode) {
      ASSERT_EQ(decoders[mode]->Depends(l1, l2), expected)
          << "mode=" << ToString(labels[mode]->mode()) << " d1=" << d1
          << " d2=" << d2 << "\n l1=" << l1.ToString()
          << "\n l2=" << l2.ToString();
    }
  }
  // Sanity: the sample must exercise both answers.
  EXPECT_GT(positives, 0);
  EXPECT_LT(positives, static_cast<int>(queries.size()));

  // Matrix-free decoding agrees on black-box views.
  if (param.deps == PerceivedDeps::kBlackBox) {
    ASSERT_TRUE(view.IsBlackBox());
    MatrixFreeDecoder matrix_free(&service->production_graph(), labels[2]);
    for (const auto& [d1, d2] : queries) {
      ASSERT_EQ(matrix_free.Depends(session->Label(d1), session->Label(d2)),
                oracle.Depends(d1, d2))
          << "matrix-free d1=" << d1 << " d2=" << d2;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DecoderSweep,
    ::testing::Values(
        SweepParam{"paper", PerceivedDeps::kWhiteBox, -1, 1},
        SweepParam{"paper", PerceivedDeps::kGreyBox, 3, 2},
        SweepParam{"paper", PerceivedDeps::kGreyBox, 3, 3},
        SweepParam{"bioaid", PerceivedDeps::kWhiteBox, -1, 1},
        SweepParam{"bioaid", PerceivedDeps::kWhiteBox, 8, 2},
        SweepParam{"bioaid", PerceivedDeps::kGreyBox, -1, 3},
        SweepParam{"bioaid", PerceivedDeps::kGreyBox, 8, 4},
        SweepParam{"bioaid", PerceivedDeps::kGreyBox, 4, 5},
        SweepParam{"bioaid", PerceivedDeps::kBlackBox, 8, 6},
        SweepParam{"bioaid", PerceivedDeps::kBlackBox, -1, 7},
        SweepParam{"synthetic-small", PerceivedDeps::kWhiteBox, -1, 1},
        SweepParam{"synthetic-small", PerceivedDeps::kGreyBox, -1, 2},
        SweepParam{"synthetic-small", PerceivedDeps::kGreyBox, 3, 3},
        SweepParam{"synthetic-ring3", PerceivedDeps::kGreyBox, -1, 4},
        SweepParam{"synthetic-ring3", PerceivedDeps::kGreyBox, 4, 5},
        SweepParam{"synthetic-deep", PerceivedDeps::kGreyBox, -1, 6},
        SweepParam{"synthetic-deep", PerceivedDeps::kWhiteBox, 3, 7},
        SweepParam{"twisted", PerceivedDeps::kWhiteBox, -1, 1},
        SweepParam{"twisted", PerceivedDeps::kGreyBox, -1, 2}),
    ParamName);

}  // namespace
}  // namespace fvl
