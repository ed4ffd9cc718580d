#include "fvl/workload/view_generator.h"

#include <deque>
#include <vector>

#include "fvl/util/check.h"
#include "fvl/util/random.h"
#include "fvl/workflow/production_graph.h"
#include "fvl/workflow/safety.h"

namespace fvl {

namespace {

// Recursion-closed selection groups: every P(G) cycle is one group; every
// non-recursive composite is its own group.
std::vector<std::vector<ModuleId>> SelectionGroups(const Grammar& grammar,
                                                   const ProductionGraph& pg) {
  std::vector<std::vector<ModuleId>> groups;
  std::vector<bool> seen(grammar.num_modules(), false);
  for (ModuleId m : grammar.CompositeModules()) {
    if (seen[m]) continue;
    if (pg.IsRecursive(m)) {
      const auto& cycle = pg.cycle(pg.CycleOf(m));
      groups.push_back(cycle.members);
      for (ModuleId member : cycle.members) seen[member] = true;
    } else {
      groups.push_back({m});
      seen[m] = true;
    }
  }
  return groups;
}

std::vector<bool> PickExpandable(const Workload& workload,
                                 const ProductionGraph& pg, int target,
                                 Rng& rng) {
  const Grammar& grammar = workload.spec.grammar;
  std::vector<bool> expandable(grammar.num_modules(), false);
  if (target < 0) {
    for (ModuleId m : grammar.CompositeModules()) expandable[m] = true;
    return expandable;
  }

  std::vector<std::vector<ModuleId>> groups = SelectionGroups(grammar, pg);
  std::vector<bool> chosen(groups.size(), false);
  int count = 0;

  auto choose = [&](size_t g) {
    chosen[g] = true;
    for (ModuleId m : groups[g]) {
      expandable[m] = true;
      ++count;
    }
  };
  // The start module's group is mandatory (proper views expand S).
  for (size_t g = 0; g < groups.size(); ++g) {
    for (ModuleId m : groups[g]) {
      if (m == grammar.start()) choose(g);
    }
  }

  while (count < target) {
    // Candidates: unchosen groups with a member derivable under the current
    // Δ' (so the grown view stays proper).
    std::vector<bool> derivable(grammar.num_modules(), false);
    std::deque<ModuleId> queue = {grammar.start()};
    derivable[grammar.start()] = true;
    while (!queue.empty()) {
      ModuleId m = queue.front();
      queue.pop_front();
      if (!expandable[m]) continue;
      for (ProductionId k : grammar.ProductionsOf(m)) {
        for (ModuleId member : grammar.production(k).rhs.members) {
          if (!derivable[member]) {
            derivable[member] = true;
            queue.push_back(member);
          }
        }
      }
    }
    std::vector<size_t> candidates;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (chosen[g]) continue;
      for (ModuleId m : groups[g]) {
        if (derivable[m]) {
          candidates.push_back(g);
          break;
        }
      }
    }
    if (candidates.empty()) break;
    choose(candidates[rng.NextBounded(candidates.size())]);
  }
  return expandable;
}

}  // namespace

CompiledView GenerateSafeView(const Workload& workload,
                              const ViewGeneratorOptions& options) {
  const Grammar& grammar = workload.spec.grammar;
  ProductionGraph pg(&grammar);
  // Group-closed selection needs the cycle index.
  FVL_CHECK(pg.strictly_linear());

  // True full assignment λ* — the white-box baseline for perceived deps.
  Result<DependencyAssignment> true_safety =
      CheckSafety(grammar, workload.spec.deps);
  FVL_CHECK(true_safety.ok());

  Rng rng(options.seed);
  for (int attempt = 0; attempt < options.max_attempts + 1; ++attempt) {
    // Last attempt falls back to white-box dependencies (always safe).
    PerceivedDeps kind =
        attempt == options.max_attempts ? PerceivedDeps::kWhiteBox : options.deps;

    View view;
    view.expandable = PickExpandable(workload, pg, options.num_expandable, rng);

    view.perceived = DependencyAssignment(grammar.num_modules());
    for (ModuleId m = 0; m < grammar.num_modules(); ++m) {
      if (view.expandable[m]) continue;
      if (!true_safety->IsDefined(m)) continue;
      const Module& module = grammar.module(m);
      BoolMatrix deps = true_safety->Get(m);
      switch (kind) {
        case PerceivedDeps::kWhiteBox:
          break;
        case PerceivedDeps::kBlackBox:
          deps = BoolMatrix::Full(module.num_inputs, module.num_outputs);
          break;
        case PerceivedDeps::kGreyBox:
          if (!workload.constraints.IsPinned(m)) {
            for (int i = 0; i < deps.rows(); ++i) {
              for (int o = 0; o < deps.cols(); ++o) {
                if (!deps.Get(i, o) && rng.NextBool(options.add_probability)) {
                  deps.Set(i, o);
                }
              }
            }
          }
          break;
      }
      view.perceived.Set(m, std::move(deps));
    }

    Result<CompiledView> compiled =
        CompiledView::Compile(grammar, std::move(view));
    if (compiled.ok()) return std::move(compiled).value();
  }
  internal::CheckFailed(__FILE__, __LINE__, "view sampling failed even with "
                                            "white-box dependencies");
}

}  // namespace fvl
