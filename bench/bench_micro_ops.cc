// Google-benchmark micro-benchmarks for the core operations on the query
// path: boolean matrix products, matrix-power oracles, label encode/decode,
// the decoding predicate in its three variants plus DRL, and the bit
// kernels under them (gamma read, the span cursor's forward walk, bulk bit
// copy), each reported per unit of work.

#include <benchmark/benchmark.h>

#include <vector>

#include "fvl/core/decoder.h"
#include "fvl/core/label_store.h"
#include "fvl/drl/drl_scheme.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/bitstream.h"
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

// Every label of the fixture run, pre-encoded and decoded in turn: the
// mix of path lengths and gamma-coded iterations the decode kernels see.
// Each decode reuses one label, as the store walks (VisibilitySweep, the
// archive decode check) do.
void BM_LabelDecode(benchmark::State& state) {
  QueryFixture& fixture = QueryFixture::Get();
  const LabelCodec& codec = fixture.session->labeler().codec();
  std::vector<BitWriter> encoded;
  for (int item = 0; item < fixture.session->num_items(); ++item) {
    encoded.push_back(codec.Encode(fixture.session->Label(item)));
  }
  DataLabel label;
  size_t item = 0;
  for (auto _ : state) {
    BitReader reader(encoded[item]);
    codec.Decode(&reader, &label);
    benchmark::DoNotOptimize(label);
    item = (item + 1) % encoded.size();
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

// Time per one of the `units` of work each iteration does (printed with an
// SI prefix, e.g. "2.1ns").
benchmark::Counter TimePer(double units) {
  return benchmark::Counter(units,
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

void BM_GammaRead(benchmark::State& state) {
  // 64K codes of values 1 to 2^16 - 1, uniform in bit width: label lengths
  // and iteration indices both live in this range.
  constexpr int kCodes = 1 << 16;
  Rng rng(21);
  BitWriter writer;
  for (int i = 0; i < kCodes; ++i) {
    const int width = static_cast<int>(1 + rng.NextBounded(16));
    writer.WriteGamma((uint64_t{1} << (width - 1)) |
                      rng.NextBounded(uint64_t{1} << (width - 1)));
  }
  for (auto _ : state) {
    BitReader reader(writer);
    uint64_t sum = 0;
    for (int i = 0; i < kCodes; ++i) sum += reader.ReadGamma();
    benchmark::DoNotOptimize(sum);
  }
  state.counters["per_code"] = TimePer(kCodes);
}
BENCHMARK(BM_GammaRead);

void BM_SpanCursorForwardWalk(benchmark::State& state) {
  // A fresh cursor finds item 0 through the skip table, then walks the
  // length stream forward to the last item: one meta record per item.
  Workload workload = MakeBioAid(2012);
  auto service = ProvenanceService::Create(workload.spec).value();
  RunGeneratorOptions options;
  options.target_items = 1 << 16;
  options.seed = 5;
  auto session = service->GenerateLabeledRun(options);
  const LabelStore& store = session->labeler().store();
  const int last = store.total_items() - 1;
  for (auto _ : state) {
    LabelStore::SpanCursor cursor(store);
    benchmark::DoNotOptimize(cursor.SpanAt(0).remaining());
    benchmark::DoNotOptimize(cursor.SpanAt(last).remaining());
  }
  state.counters["items"] = store.total_items();
  state.counters["per_record"] = TimePer(last - 1);
}
BENCHMARK(BM_SpanCursorForwardWalk);

void BM_AppendBits(benchmark::State& state) {
  // 4096 words from source bit 5 to destination bit 3: every output word
  // straddles two source words.
  constexpr int64_t kWords = 4096;
  Rng rng(8);
  std::vector<uint64_t> source(kWords + 1);
  for (uint64_t& word : source) word = rng.Next();
  for (auto _ : state) {
    BitReader reader(&source, 5, 5 + 64 * kWords);
    BitWriter out;
    out.WriteFixed(0, 3);
    out.AppendBits(&reader, 64 * kWords);
    benchmark::DoNotOptimize(out.words().data());
    benchmark::ClobberMemory();
  }
  state.counters["per_word"] = TimePer(kWords);
}
BENCHMARK(BM_AppendBits);

}  // namespace
}  // namespace fvl

BENCHMARK_MAIN();
