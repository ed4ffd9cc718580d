#include "fvl/workload/bioaid.h"

#include <string>
#include <vector>

#include "fvl/util/check.h"
#include "fvl/util/random.h"
#include "fvl/workflow/grammar_builder.h"
#include "fvl/workflow/safety.h"

namespace fvl {

namespace {

// Random dependency matrix with every row and column non-empty (Def. 6).
BoolMatrix RandomDeps(Rng& rng, int rows, int cols, double density = 0.4) {
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

// Builds a 2-wide chain production lhs -> [members...] where every member is
// 2-in/2-out; initial inputs feed the first member, finals come from the
// last.
void ChainProduction(GrammarBuilder& builder, ModuleId lhs,
                     const std::vector<ModuleId>& members) {
  auto p = builder.NewProduction(lhs);
  std::vector<int> idx;
  for (ModuleId m : members) idx.push_back(p.AddMember(m));
  p.MapInput(0, idx.front(), 0).MapInput(1, idx.front(), 1);
  for (size_t i = 0; i + 1 < idx.size(); ++i) {
    p.Edge(idx[i], 0, idx[i + 1], 0).Edge(idx[i], 1, idx[i + 1], 1);
  }
  p.MapOutput(0, idx.back(), 0).MapOutput(1, idx.back(), 1);
  p.Build();
}

}  // namespace

Workload MakeBioAid(uint64_t seed) {
  Rng rng(seed);
  GrammarBuilder builder;
  Workload workload;
  workload.name = "BioAID";

  // --- Composite modules (16): S, eight pipeline stages, a two-module
  // loop {L1, L1b}, a self-loop L2, and four forks F1..F4. All 2-in/2-out.
  ModuleId S = builder.AddComposite("S", 2, 2);
  std::vector<ModuleId> stages;
  for (int i = 1; i <= 8; ++i) {
    std::string name = "P";
    name += std::to_string(i);
    stages.push_back(builder.AddComposite(name, 2, 2));
  }
  ModuleId L1 = builder.AddComposite("L1", 2, 2);
  ModuleId L1b = builder.AddComposite("L1b", 2, 2);
  ModuleId L2 = builder.AddComposite("L2", 2, 2);
  std::vector<ModuleId> forks;
  for (int i = 1; i <= 4; ++i) {
    forks.push_back(builder.AddComposite("F" + std::to_string(i), 2, 2));
  }
  builder.SetStart(S);

  // --- Atomic modules (96) and productions (23 = 16 base + 7 recursive).
  std::vector<ModuleId> random_atoms;  // get random dependencies
  auto atom = [&](const std::string& name, int in, int out) {
    ModuleId m = builder.AddAtomic(name, in, out);
    random_atoms.push_back(m);
    return m;
  };
  auto pinned_identity = [&](const std::string& name) {
    ModuleId m = builder.AddAtomic(name, 2, 2);
    builder.SetIdentityDeps(m);
    workload.constraints.pinned.push_back(m);
    return m;
  };

  ModuleId g_src = atom("stage_in", 2, 2);
  ModuleId g_snk = atom("collect", 2, 2);

  // S's pipeline: 16 members (<= 19).
  {
    std::vector<ModuleId> members = {g_src};
    for (int i = 0; i < 4; ++i) members.push_back(stages[i]);
    members.push_back(L1);
    members.push_back(stages[4]);
    members.push_back(L2);
    members.push_back(stages[5]);
    members.push_back(forks[0]);
    members.push_back(forks[1]);
    members.push_back(stages[6]);
    members.push_back(forks[2]);
    members.push_back(stages[7]);
    members.push_back(forks[3]);
    members.push_back(g_snk);
    FVL_CHECK(members.size() == 16);
    ChainProduction(builder, S, members);
  }

  // Pipeline stages: single-source/sink diamonds exercising the 4-in/7-out
  // port bounds. Stages 1..6 have 7 atomic steps, stages 7..8 have 6.
  for (int i = 0; i < 8; ++i) {
    std::string prefix = "P";
    prefix += std::to_string(i + 1);
    prefix += "_";
    bool wide = i < 6;  // two entry pads instead of one
    ModuleId pad_a = atom(prefix + "prepare", 2, 2);
    ModuleId pad_b = wide ? atom(prefix + "normalize", 2, 2) : kInvalidModule;
    ModuleId fan = atom(prefix + "expand", 2, 7);
    ModuleId left = atom(prefix + "left", 4, 2);
    ModuleId right = atom(prefix + "right", 3, 2);
    ModuleId merge = atom(prefix + "merge", 4, 2);
    ModuleId pad_c = atom(prefix + "finish", 2, 2);

    auto p = builder.NewProduction(stages[i]);
    int ma = p.AddMember(pad_a);
    int mb = wide ? p.AddMember(pad_b) : -1;
    int mf = p.AddMember(fan);
    int ml = p.AddMember(left);
    int mr = p.AddMember(right);
    int mm = p.AddMember(merge);
    int mc = p.AddMember(pad_c);
    p.MapInput(0, ma, 0).MapInput(1, ma, 1);
    int before_fan = wide ? mb : ma;
    if (wide) p.Edge(ma, 0, mb, 0).Edge(ma, 1, mb, 1);
    p.Edge(before_fan, 0, mf, 0).Edge(before_fan, 1, mf, 1);
    p.Edge(mf, 0, ml, 0).Edge(mf, 1, ml, 1).Edge(mf, 2, ml, 2).Edge(mf, 3, ml, 3);
    p.Edge(mf, 4, mr, 0).Edge(mf, 5, mr, 1).Edge(mf, 6, mr, 2);
    p.Edge(ml, 0, mm, 0).Edge(ml, 1, mm, 1);
    p.Edge(mr, 0, mm, 2).Edge(mr, 1, mm, 3);
    p.Edge(mm, 0, mc, 0).Edge(mm, 1, mc, 1);
    p.MapOutput(0, mc, 0).MapOutput(1, mc, 1);
    p.Build();
  }

  // Loop {L1, L1b}: recursive productions carry data through pinned identity
  // stages, so any base-case assignment is a consistent fixed point; the two
  // base productions are structurally identical, so the cycle members agree.
  ModuleId pre1 = pinned_identity("L1_iter_in");
  ModuleId post1 = pinned_identity("L1_iter_out");
  ModuleId pre1b = pinned_identity("L1b_iter_in");
  ModuleId post1b = pinned_identity("L1b_iter_out");
  std::vector<ModuleId> u_chain = {atom("L1_step1", 2, 2),
                                   atom("L1_step2", 2, 2),
                                   atom("L1_step3", 2, 2)};
  ChainProduction(builder, L1, u_chain);             // base (p. id order fixes
  ChainProduction(builder, L1, {pre1, L1b, post1});  //  base before recursive)
  ChainProduction(builder, L1b, u_chain);
  ChainProduction(builder, L1b, {pre1b, L1, post1b});

  // Self-loop L2.
  ModuleId pre2 = pinned_identity("L2_iter_in");
  ModuleId post2 = pinned_identity("L2_iter_out");
  ChainProduction(builder, L2, {atom("L2_step1", 2, 2), atom("L2_step2", 2, 2),
                                atom("L2_step3", 2, 2)});
  ChainProduction(builder, L2, {pre2, L2, post2});

  // Forks F1..F4: the recursive production splits off a two-step body whose
  // contribution is routed from input 0 to output 0; the base chain keeps
  // the (0,0) dependency set so the recursion is consistent for any body
  // assignment.
  for (int i = 0; i < 4; ++i) {
    std::string prefix = "F" + std::to_string(i + 1) + "_";
    ModuleId split = builder.AddAtomic(prefix + "split", 2, 4);
    {
      BoolMatrix deps(2, 4);
      deps.Set(0, 0);  // carry 0
      deps.Set(1, 1);  // carry 1
      deps.Set(0, 2);  // body channels draw from input 0 only
      deps.Set(0, 3);
      builder.SetDeps(split, deps);
      workload.constraints.pinned.push_back(split);
    }
    ModuleId join = builder.AddAtomic(prefix + "join", 4, 2);
    {
      BoolMatrix deps(4, 2);
      deps.Set(0, 0);  // carry 0
      deps.Set(1, 1);  // carry 1
      deps.Set(2, 0);  // body feeds output 0 only
      deps.Set(3, 0);
      builder.SetDeps(join, deps);
      workload.constraints.pinned.push_back(join);
    }
    ModuleId w1 = atom(prefix + "map", 2, 2);
    ModuleId w2 = atom(prefix + "fold", 2, 2);
    std::vector<ModuleId> base = {atom(prefix + "base1", 2, 2),
                                  atom(prefix + "base2", 2, 2),
                                  atom(prefix + "base3", 2, 2)};
    for (ModuleId x : base) {
      workload.constraints.forced_bits.push_back({x, 0, 0});
    }
    ChainProduction(builder, forks[i], base);
    {
      auto p = builder.NewProduction(forks[i]);
      int ms = p.AddMember(split);
      int m1 = p.AddMember(w1);
      int m2 = p.AddMember(w2);
      int mF = p.AddMember(forks[i]);
      int mj = p.AddMember(join);
      p.MapInput(0, ms, 0).MapInput(1, ms, 1);
      p.Edge(ms, 0, mF, 0).Edge(ms, 1, mF, 1);
      p.Edge(ms, 2, m1, 0).Edge(ms, 3, m1, 1);
      p.Edge(m1, 0, m2, 0).Edge(m1, 1, m2, 1);
      p.Edge(mF, 0, mj, 0).Edge(mF, 1, mj, 1);
      p.Edge(m2, 0, mj, 2).Edge(m2, 1, mj, 3);
      p.MapOutput(0, mj, 0).MapOutput(1, mj, 1);
      p.Build();
    }
  }

  // Random fine-grained dependencies for the unconstrained atoms, then the
  // forced fork-base bits.
  for (ModuleId m : random_atoms) {
    const Module& module = builder.module(m);
    builder.SetDeps(m,
                    RandomDeps(rng, module.num_inputs, module.num_outputs));
  }
  workload.spec = builder.BuildSpecification();
  for (const SafeDepConstraints::Bit& bit : workload.constraints.forced_bits) {
    BoolMatrix deps = workload.spec.deps.Get(bit.module);
    deps.Set(bit.in, bit.out);
    workload.spec.deps.Set(bit.module, std::move(deps));
  }

  // Published shape parameters.
  FVL_CHECK(workload.spec.grammar.num_modules() == 112);
  FVL_CHECK(static_cast<int>(workload.spec.grammar.CompositeModules().size()) ==
            16);
  FVL_CHECK(workload.spec.grammar.num_productions() == 23);

  // Safety by construction — verified.
  Result<DependencyAssignment> safety =
      CheckSafety(workload.spec.grammar, workload.spec.deps);
  FVL_CHECK(safety.ok());
  return workload;
}

}  // namespace fvl
