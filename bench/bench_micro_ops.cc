// Google-benchmark micro-benchmarks for the core operations on the query
// path: boolean matrix products, matrix-power oracles, label encode/decode,
// and the decoding predicate in its three variants plus DRL.

#include <benchmark/benchmark.h>

#include "fvl/core/decoder.h"
#include "fvl/drl/drl_scheme.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/random.h"
#include "fvl/workload/bioaid.h"
#include "fvl/workload/query_generator.h"
#include "fvl/workload/view_generator.h"

namespace fvl {
namespace {

BoolMatrix RandomMatrix(int n, uint64_t seed) {
  Rng rng(seed);
  BoolMatrix m(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (rng.NextBool(0.4)) m.Set(r, c);
    }
  }
  return m;
}

void BM_BoolMatrixMultiply(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  BoolMatrix a = RandomMatrix(n, 1);
  BoolMatrix b = RandomMatrix(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Multiply(b));
  }
}
BENCHMARK(BM_BoolMatrixMultiply)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_MatrixPowerOracle(benchmark::State& state) {
  MatrixPowerOracle oracle(RandomMatrix(4, 3));
  int64_t q = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Power(q));
    q = (q * 7 + 1) % 100000;
  }
}
BENCHMARK(BM_MatrixPowerOracle);

void BM_BoolMatrixPowerLog(benchmark::State& state) {
  BoolMatrix x = RandomMatrix(4, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoolMatrixPower(x, 100000));
  }
}
BENCHMARK(BM_BoolMatrixPowerLog);

struct QueryFixture {
  QueryFixture()
      : workload(MakeBioAid(2012)),
        service(ProvenanceService::Create(workload.spec).value()),
        session(service->GenerateLabeledRun([] {
          RunGeneratorOptions options;
          options.target_items = 8000;
          options.seed = 5;
          return options;
        }())),
        view(GenerateSafeView(workload, [] {
          ViewGeneratorOptions options;
          options.num_expandable = 8;
          options.deps = PerceivedDeps::kGreyBox;
          options.seed = 9;
          return options;
        }())),
        label_se(Label(ViewLabelMode::kSpaceEfficient)),
        label_def(Label(ViewLabelMode::kDefault)),
        label_qe(Label(ViewLabelMode::kQueryEfficient)),
        queries(GenerateVisibleQueries(session->run(), session->labeler(),
                                       label_qe, 10000, 3)) {}

  static QueryFixture& Get() {
    static QueryFixture* fixture = new QueryFixture();
    return *fixture;
  }

  ViewLabel Label(ViewLabelMode mode) const {
    return ViewLabeler(&service->grammar(), &service->production_graph())
        .Label(view, mode);
  }

  Workload workload;
  std::shared_ptr<ProvenanceService> service;
  std::shared_ptr<ProvenanceSession> session;
  CompiledView view;
  ViewLabel label_se, label_def, label_qe;
  std::vector<std::pair<int, int>> queries;
};

void RunQueryBench(benchmark::State& state, const ViewLabel& label) {
  QueryFixture& fixture = QueryFixture::Get();
  Decoder pi(&label);
  size_t q = 0;
  for (auto _ : state) {
    const auto& [d1, d2] = fixture.queries[q];
    benchmark::DoNotOptimize(pi.Depends(fixture.session->Label(d1),
                                        fixture.session->Label(d2)));
    q = (q + 1) % fixture.queries.size();
  }
}

void BM_DecoderQueryEfficient(benchmark::State& state) {
  RunQueryBench(state, QueryFixture::Get().label_qe);
}
BENCHMARK(BM_DecoderQueryEfficient);

void BM_DecoderDefault(benchmark::State& state) {
  RunQueryBench(state, QueryFixture::Get().label_def);
}
BENCHMARK(BM_DecoderDefault);

void BM_DecoderSpaceEfficient(benchmark::State& state) {
  RunQueryBench(state, QueryFixture::Get().label_se);
}
BENCHMARK(BM_DecoderSpaceEfficient);

void BM_LabelEncode(benchmark::State& state) {
  QueryFixture& fixture = QueryFixture::Get();
  const LabelCodec& codec = fixture.session->labeler().codec();
  size_t item = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.Encode(fixture.session->Label(
        static_cast<int>(item % fixture.session->num_items()))));
    ++item;
  }
}
BENCHMARK(BM_LabelEncode);

void BM_LabelDecode(benchmark::State& state) {
  QueryFixture& fixture = QueryFixture::Get();
  const LabelCodec& codec = fixture.session->labeler().codec();
  BitWriter encoded = codec.Encode(fixture.session->Label(0));
  for (auto _ : state) {
    BitReader reader(encoded);
    benchmark::DoNotOptimize(codec.Decode(&reader));
  }
}
BENCHMARK(BM_LabelDecode);

void BM_DrlQuery(benchmark::State& state) {
  Workload workload = MakeBioAid(2012);
  ViewGeneratorOptions options;
  options.num_expandable = 8;
  options.deps = PerceivedDeps::kBlackBox;
  options.seed = 9;
  CompiledView view = GenerateSafeView(workload, options);
  DrlViewIndex index(&workload.spec.grammar, &view);
  RunGeneratorOptions run_options;
  run_options.target_items = 8000;
  Run run = GenerateRandomRun(workload.spec.grammar, run_options);
  DrlRunLabeler labeler = DrlLabelRun(run, index);
  std::vector<int> visible;
  for (int item = 0; item < run.num_items(); ++item) {
    if (labeler.HasLabel(item)) visible.push_back(item);
  }
  Rng rng(4);
  size_t q = 0;
  std::vector<std::pair<int, int>> queries;
  for (int i = 0; i < 10000; ++i) {
    queries.emplace_back(visible[rng.NextBounded(visible.size())],
                         visible[rng.NextBounded(visible.size())]);
  }
  for (auto _ : state) {
    const auto& [d1, d2] = queries[q];
    benchmark::DoNotOptimize(
        DrlDepends(index, labeler.Label(d1), labeler.Label(d2)));
    q = (q + 1) % queries.size();
  }
}
BENCHMARK(BM_DrlQuery);

}  // namespace
}  // namespace fvl

BENCHMARK_MAIN();
