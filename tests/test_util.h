// Shared helpers for the FVL test suite.

#ifndef FVL_TESTS_TEST_UTIL_H_
#define FVL_TESTS_TEST_UTIL_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fvl/core/data_label.h"
#include "fvl/core/visibility.h"
#include "fvl/run/run.h"
#include "fvl/run/run_generator.h"
#include "fvl/service/provenance_service.h"
#include "fvl/util/boolean_matrix.h"
#include "fvl/util/check.h"
#include "fvl/workflow/grammar_builder.h"

namespace fvl::testing {

// Builds a matrix from rows like Mat({"101", "010"}).
inline BoolMatrix Mat(const std::vector<std::string>& rows) {
  int r = static_cast<int>(rows.size());
  int c = r > 0 ? static_cast<int>(rows[0].size()) : 0;
  BoolMatrix m(r, c);
  for (int i = 0; i < r; ++i) {
    FVL_CHECK(static_cast<int>(rows[i].size()) == c);
    for (int j = 0; j < c; ++j) {
      if (rows[i][j] == '1') m.Set(i, j);
    }
  }
  return m;
}

// A two-member recursion A -> B -> A whose walk factors do not commute. A
// expands to [n, B, m]: n (λ lower triangular) feeds B, which feeds m (λ
// upper triangular). B expands to [A] with both its inputs and its outputs
// swapped. The atomic a and b end the recursion with complete λ. The cycles
// of the library's workloads happen to commute, so a walk that takes its
// factors in the wrong order answers correctly there, but not here.
inline Specification TwistedRingSpecification() {
  GrammarBuilder b;
  ModuleId s = b.AddComposite("S", 2, 2);
  ModuleId ring_a = b.AddComposite("A", 2, 2);
  ModuleId ring_b = b.AddComposite("B", 2, 2);
  ModuleId n = b.AddAtomic("n", 2, 2);
  ModuleId m = b.AddAtomic("m", 2, 2);
  ModuleId a = b.AddAtomic("a", 2, 2);
  ModuleId end_b = b.AddAtomic("b", 2, 2);
  b.SetStart(s);
  // lhs -> [member], port p to port p, or to port 1 - p when `swap`.
  auto single = [&](ModuleId lhs, ModuleId member, bool swap) {
    auto p = b.NewProduction(lhs);
    int x = p.AddMember(member);
    for (int port = 0; port < 2; ++port) {
      const int inner = swap ? 1 - port : port;
      p.MapInput(port, x, inner).MapOutput(port, x, inner);
    }
    p.Build();
  };
  single(s, ring_a, false);
  auto p = b.NewProduction(ring_a);
  const int pn = p.AddMember(n), pb = p.AddMember(ring_b), pm = p.AddMember(m);
  for (int port = 0; port < 2; ++port) {
    p.MapInput(port, pn, port).MapOutput(port, pm, port);
    p.Edge(pn, port, pb, port).Edge(pb, port, pm, port);
  }
  p.Build();
  single(ring_a, a, false);
  single(ring_b, ring_a, true);
  single(ring_b, end_b, false);
  b.SetDeps(n, Mat({"10", "11"}));
  b.SetDeps(m, Mat({"11", "01"}));
  b.SetCompleteDeps(a);
  b.SetCompleteDeps(end_b);
  return b.BuildSpecification();
}

// Expands every remaining frontier instance with its cheapest terminating
// production (deterministic).
inline void CompleteRun(Run& run) {
  const Grammar& g = run.grammar();
  std::vector<int64_t> cost = MinCompletionItems(g);
  while (!run.IsComplete()) {
    int inst = run.Frontier().front();
    ModuleId type = run.instance(inst).type;
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
    run.Apply(inst, best);
  }
}

// φv(U) through the service's registry: registers the view (a regular view
// that is already registered keeps its handle; grouped views are not
// deduplicated) and returns the cached label for `mode`.
inline const ViewLabel& RegisteredLabel(ProvenanceService& service,
                                        const CompiledView& view,
                                        ViewLabelMode mode) {
  return *service.LabelOf(service.RegisterView(view.view()).value(), mode)
              .value();
}
inline const ViewLabel& RegisteredLabel(ProvenanceService& service,
                                        const GroupedView& view,
                                        ViewLabelMode mode) {
  return *service
              .LabelOf(service
                           .RegisterGroupedView(view.base().view(),
                                                view.groups())
                           .value(),
                       mode)
              .value();
}

// The reference for DependsMany differentials: one query at a time, each
// side decoded straight from the index (Label never caches) and fed to
// the service's decoder. A pair across two runs is false by definition.
inline std::vector<bool> ReferenceDepends(
    ProvenanceService& service, ViewHandle view, const ProvenanceIndex& index,
    std::span<const std::pair<int, int>> queries,
    ViewLabelMode mode = ViewLabelMode::kQueryEfficient) {
  const Decoder& decoder = *service.DecoderOf(view, mode).value();
  std::vector<bool> answers;
  answers.reserve(queries.size());
  for (const auto& [a, b] : queries) {
    answers.push_back(index.RunOf(a) == index.RunOf(b) &&
                      decoder.Depends(index.Label(a), index.Label(b)));
  }
  return answers;
}

// The reference for VisibilitySweep differentials: IsItemVisible per item.
inline std::vector<bool> ReferenceVisibility(
    ProvenanceService& service, ViewHandle view, const ProvenanceIndex& index,
    ViewLabelMode mode = ViewLabelMode::kQueryEfficient) {
  const ViewLabel& label = *service.LabelOf(view, mode).value();
  std::vector<bool> visible;
  visible.reserve(index.total_items());
  for (int item = 0; item < index.total_items(); ++item) {
    visible.push_back(IsItemVisible(index.Label(item), label));
  }
  return visible;
}

// A label that is a pure function of the item, for cache tests: a hit can
// be checked to carry exactly the value inserted for its own key.
inline DataLabel CacheLabelFor(int item) {
  DataLabel label;
  label.producer.emplace();
  label.producer->port = 2 * item + 1;
  return label;
}

}  // namespace fvl::testing

#endif  // FVL_TESTS_TEST_UTIL_H_
