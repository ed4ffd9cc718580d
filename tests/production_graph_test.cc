// Crafted recursion topologies for the production graph's cycle extraction
// and the strict-linearity decision procedures (Defs. 14-16, Thm. 7),
// cross-checking the SCC-based route against the paper's BFS algorithm.

#include <gtest/gtest.h>

#include "fvl/util/random.h"
#include "fvl/workflow/grammar_builder.h"
#include "fvl/workflow/production_graph.h"
#include "fvl/workflow/recursion_analysis.h"
#include "test_util.h"

namespace fvl {
namespace {

// Helper: 1-in/1-out modules chained; every composite gets a base production
// [x] plus the given recursive chain production.
class TopologyBuilder {
 public:
  TopologyBuilder() {
    x_ = builder_.AddAtomic("x", 1, 1);
    builder_.SetCompleteDeps(x_);
  }

  ModuleId Composite(const std::string& name) {
    ModuleId m = builder_.AddComposite(name, 1, 1);
    // Base production: [x].
    auto p = builder_.NewProduction(m);
    int mx = p.AddMember(x_);
    p.MapInput(0, mx, 0).MapOutput(0, mx, 0);
    p.Build();
    return m;
  }

  // lhs -> [x, member] chain (the recursion step).
  void Recurse(ModuleId lhs, ModuleId member) {
    auto p = builder_.NewProduction(lhs);
    int mx = p.AddMember(x_);
    int mm = p.AddMember(member);
    p.MapInput(0, mx, 0);
    p.Edge(mx, 0, mm, 0);
    p.MapOutput(0, mm, 0);
    p.Build();
  }

  void Start(ModuleId m) { builder_.SetStart(m); }
  Grammar Build() { return builder_.BuildGrammar(); }

 private:
  GrammarBuilder builder_;
  ModuleId x_;
};

TEST(ProductionGraphTopology, TwoDisjointSelfLoops) {
  TopologyBuilder t;
  ModuleId s = t.Composite("S");
  ModuleId a = t.Composite("A");
  ModuleId b = t.Composite("B");
  t.Recurse(s, a);
  t.Recurse(s, b);  // S -> A, S -> B (no recursion at S)
  t.Recurse(a, a);  // self-loop A
  t.Recurse(b, b);  // self-loop B
  t.Start(s);
  Grammar g = t.Build();
  ProductionGraph pg(&g);
  EXPECT_TRUE(pg.strictly_linear());
  EXPECT_TRUE(IsStrictlyLinearRecursivePaperAlgorithm(pg));
  EXPECT_TRUE(IsLinearRecursive(pg));
  EXPECT_EQ(pg.num_cycles(), 2);
  EXPECT_FALSE(pg.IsRecursive(s));
  EXPECT_TRUE(pg.IsRecursive(a));
  EXPECT_TRUE(pg.IsRecursive(b));
  EXPECT_NE(pg.CycleOf(a), pg.CycleOf(b));
  EXPECT_EQ(pg.cycle(pg.CycleOf(a)).length(), 1);
}

TEST(ProductionGraphTopology, LongRing) {
  TopologyBuilder t;
  ModuleId a = t.Composite("A");
  ModuleId b = t.Composite("B");
  ModuleId c = t.Composite("C");
  ModuleId d = t.Composite("D");
  t.Recurse(a, b);
  t.Recurse(b, c);
  t.Recurse(c, d);
  t.Recurse(d, a);
  t.Start(a);
  Grammar g = t.Build();
  ProductionGraph pg(&g);
  ASSERT_TRUE(pg.strictly_linear());
  EXPECT_TRUE(IsStrictlyLinearRecursivePaperAlgorithm(pg));
  ASSERT_EQ(pg.num_cycles(), 1);
  const auto& cycle = pg.cycle(0);
  EXPECT_EQ(cycle.length(), 4);
  // The walk starts at the smallest module id and follows successors.
  EXPECT_EQ(cycle.members, (std::vector<ModuleId>{a, b, c, d}));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pg.CycleStartIndex(cycle.members[i]), i);
    // The cycle edge at index i leaves members[i].
    EXPECT_EQ(pg.EdgeSource(pg.CycleEdgeAt(0, i)), cycle.members[i]);
    EXPECT_EQ(pg.EdgeTarget(pg.CycleEdgeAt(0, i)), cycle.members[(i + 1) % 4]);
  }
  // Wrapping.
  EXPECT_EQ(pg.CycleEdgeAt(0, 5), pg.CycleEdgeAt(0, 1));
}

TEST(ProductionGraphTopology, TwoCyclesSharingAVertexIsNotStrict) {
  TopologyBuilder t;
  ModuleId a = t.Composite("A");
  ModuleId b = t.Composite("B");
  ModuleId c = t.Composite("C");
  t.Recurse(a, b);
  t.Recurse(b, a);  // cycle A-B
  t.Recurse(a, c);
  t.Recurse(c, a);  // cycle A-C shares A
  t.Start(a);
  Grammar g = t.Build();
  ProductionGraph pg(&g);
  EXPECT_FALSE(pg.strictly_linear());
  EXPECT_FALSE(IsStrictlyLinearRecursivePaperAlgorithm(pg));
  // Still linear: every production has at most one member reaching its lhs.
  EXPECT_TRUE(IsLinearRecursive(pg));
  EXPECT_TRUE(pg.IsRecursive(a));
  EXPECT_TRUE(pg.IsRecursiveGrammar());
}

TEST(ProductionGraphTopology, DoubleSelfLoopIsNotStrict) {
  TopologyBuilder t;
  ModuleId a = t.Composite("A");
  t.Recurse(a, a);
  t.Recurse(a, a);  // two parallel self-loop edges
  t.Start(a);
  Grammar g = t.Build();
  ProductionGraph pg(&g);
  EXPECT_FALSE(pg.strictly_linear());
  EXPECT_FALSE(IsStrictlyLinearRecursivePaperAlgorithm(pg));
}

TEST(ProductionGraphTopology, NonLinearViaTwoInstances) {
  // A production whose rhs contains the recursive module twice: nonlinear.
  GrammarBuilder b;
  ModuleId x = b.AddAtomic("x", 1, 2);
  ModuleId j = b.AddAtomic("j", 2, 1);
  ModuleId a = b.AddComposite("A", 1, 1);
  b.SetStart(a);
  b.SetCompleteDeps(x);
  b.SetCompleteDeps(j);
  {
    auto p = b.NewProduction(a);
    int mx = p.AddMember(x);
    int m1 = p.AddMember(a);
    int m2 = p.AddMember(a);
    int mj = p.AddMember(j);
    p.MapInput(0, mx, 0);
    p.Edge(mx, 0, m1, 0).Edge(mx, 1, m2, 0);
    p.Edge(m1, 0, mj, 0).Edge(m2, 0, mj, 1);
    p.MapOutput(0, mj, 0);
    p.Build();
  }
  {
    auto p = b.NewProduction(a);
    int mx = p.AddMember(x);
    int mj = p.AddMember(j);
    p.MapInput(0, mx, 0);
    p.Edge(mx, 0, mj, 0).Edge(mx, 1, mj, 1);
    p.MapOutput(0, mj, 0);
    p.Build();
  }
  Grammar g = b.BuildGrammar();
  ProductionGraph pg(&g);
  EXPECT_FALSE(IsLinearRecursive(pg));
  EXPECT_FALSE(pg.strictly_linear());
  EXPECT_FALSE(IsStrictlyLinearRecursivePaperAlgorithm(pg));
}

TEST(ProductionGraphTopology, AlgorithmsAgreeOnRandomTopologies) {
  // Cross-check the SCC-based and the paper's BFS-based strictness deciders
  // over random small derivation topologies.
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    TopologyBuilder t;
    int n = rng.NextInt(2, 6);
    std::vector<ModuleId> modules;
    for (int i = 0; i < n; ++i) {
      std::string name = "M";
      name += std::to_string(i);
      modules.push_back(t.Composite(name));
    }
    int edges = rng.NextInt(1, 2 * n);
    for (int e = 0; e < edges; ++e) {
      t.Recurse(modules[rng.NextInt(0, n - 1)], modules[rng.NextInt(0, n - 1)]);
    }
    t.Start(modules[0]);
    Grammar g = t.Build();
    ProductionGraph pg(&g);
    ASSERT_EQ(pg.strictly_linear(),
              IsStrictlyLinearRecursivePaperAlgorithm(pg))
        << "trial " << trial;
    // Strict implies linear (the paper's inclusion).
    if (pg.strictly_linear()) {
      ASSERT_TRUE(IsLinearRecursive(pg)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace fvl
