#include "fvl/workload/synthetic.h"

#include <string>
#include <vector>

#include "fvl/util/check.h"
#include "fvl/util/random.h"
#include "fvl/workflow/grammar_builder.h"
#include "fvl/workflow/safety.h"

namespace fvl {

namespace {

BoolMatrix RandomDeps(Rng& rng, int rows, int cols, double density = 0.35) {
  BoolMatrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (rng.NextBool(density)) m.Set(r, c);
    }
  }
  for (int r = 0; r < rows; ++r) {
    if (!m.RowAny(r)) m.Set(r, rng.NextInt(0, cols - 1));
  }
  for (int c = 0; c < cols; ++c) {
    if (!m.ColAny(c)) m.Set(rng.NextInt(0, rows - 1), c);
  }
  return m;
}

// d-wide chain production lhs -> [members...].
void ChainProduction(GrammarBuilder& builder, ModuleId lhs,
                     const std::vector<ModuleId>& members, int degree) {
  auto p = builder.NewProduction(lhs);
  std::vector<int> idx;
  for (ModuleId m : members) idx.push_back(p.AddMember(m));
  for (int port = 0; port < degree; ++port) {
    p.MapInput(port, idx.front(), port);
  }
  for (size_t i = 0; i + 1 < idx.size(); ++i) {
    for (int port = 0; port < degree; ++port) {
      p.Edge(idx[i], port, idx[i + 1], port);
    }
  }
  for (int port = 0; port < degree; ++port) {
    p.MapOutput(port, idx.back(), port);
  }
  p.Build();
}

}  // namespace

Workload MakeSynthetic(const SyntheticOptions& options) {
  FVL_CHECK(options.workflow_size >= 3);
  FVL_CHECK(options.module_degree >= 1);
  FVL_CHECK(options.nesting_depth >= 1);
  FVL_CHECK(options.recursion_length >= 1);
  const int w = options.workflow_size;
  const int d = options.module_degree;
  const int h = options.nesting_depth;
  const int r = options.recursion_length;

  Rng rng(options.seed);
  GrammarBuilder builder;
  Workload workload;
  workload.name = "synthetic(w=" + std::to_string(w) + ",d=" +
                  std::to_string(d) + ",h=" + std::to_string(h) + ",r=" +
                  std::to_string(r) + ")";

  // Shared pinned identity carry stage.
  ModuleId carry = builder.AddAtomic("carry", d, d);
  builder.SetIdentityDeps(carry);
  workload.constraints.pinned.push_back(carry);

  // Ring composites per level.
  std::vector<std::vector<ModuleId>> ring(h);
  for (int level = 0; level < h; ++level) {
    for (int j = 0; j < r; ++j) {
      std::string name = "C";
      name += std::to_string(level + 1);
      name += "_";
      name += std::to_string(j + 1);
      ring[level].push_back(builder.AddComposite(name, d, d));
    }
  }
  builder.SetStart(ring[0][0]);

  // Base chain atoms per level (shared across the ring so that every ring
  // member's base production computes the same dependencies — the
  // consistency requirement of the safety fixed point).
  std::vector<std::vector<ModuleId>> level_atoms(h);
  for (int level = 0; level < h; ++level) {
    int atoms = level + 1 < h ? w - 1 : w;
    for (int pos = 0; pos < atoms; ++pos) {
      std::string name = "t";
      name += std::to_string(level + 1);
      name += "_";
      name += std::to_string(pos + 1);
      ModuleId m = builder.AddAtomic(name, d, d);
      builder.SetDeps(m, RandomDeps(rng, d, d));
      level_atoms[level].push_back(m);
    }
  }

  for (int level = 0; level < h; ++level) {
    // Base production members: the level's chain with the next level's ring
    // entry spliced into the middle.
    std::vector<ModuleId> base = level_atoms[level];
    if (level + 1 < h) {
      base.insert(base.begin() + static_cast<int>(base.size()) / 2,
                  ring[level + 1][0]);
    }
    // Recursive production members: identity carries around the successor.
    for (int j = 0; j < r; ++j) {
      ChainProduction(builder, ring[level][j], base, d);
      std::vector<ModuleId> rec;
      int pads = w - 1;
      int pre = pads / 2;
      for (int q = 0; q < pre; ++q) rec.push_back(carry);
      rec.push_back(ring[level][(j + 1) % r]);
      for (int q = pre; q < pads; ++q) rec.push_back(carry);
      ChainProduction(builder, ring[level][j], rec, d);
    }
  }

  workload.spec = builder.BuildSpecification();
  Result<DependencyAssignment> safety =
      CheckSafety(workload.spec.grammar, workload.spec.deps);
  FVL_CHECK(safety.ok());
  return workload;
}

}  // namespace fvl
