#include <gtest/gtest.h>

#include "fvl/workflow/grammar_builder.h"
#include "fvl/workflow/port_graph.h"
#include "test_util.h"

namespace fvl {
namespace {

using ::fvl::testing::Mat;

std::vector<Module> TwoModules() {
  return {{"x", 1, 1}, {"y", 2, 2}};
}

TEST(SimpleWorkflow, ValidChain) {
  SimpleWorkflow w;
  w.members = {0, 0};  // x -> x
  w.edges = {{{0, 0}, {1, 0}}};
  w.initial_inputs = {{0, 0}};
  w.final_outputs = {{1, 0}};
  EXPECT_FALSE(w.Validate(TwoModules()).has_value());
  EXPECT_EQ(w.TotalPorts(TwoModules()), 4);
}

TEST(SimpleWorkflow, RejectsEmpty) {
  SimpleWorkflow w;
  EXPECT_TRUE(w.Validate(TwoModules()).has_value());
}

TEST(SimpleWorkflow, RejectsUnfedInput) {
  SimpleWorkflow w;
  w.members = {1};
  w.initial_inputs = {{0, 0}};  // input 1 unfed
  w.final_outputs = {{0, 0}, {0, 1}};
  auto error = w.Validate(TwoModules());
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("never fed"), std::string::npos);
}

TEST(SimpleWorkflow, RejectsDoublyFedInput) {
  SimpleWorkflow w;
  w.members = {0, 0};
  w.edges = {{{0, 0}, {1, 0}}};
  w.initial_inputs = {{0, 0}, {1, 0}};  // port fed by edge AND initial
  w.final_outputs = {{1, 0}};
  auto error = w.Validate(TwoModules());
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("more than once"), std::string::npos);
}

TEST(SimpleWorkflow, RejectsDanglingOutput) {
  SimpleWorkflow w;
  w.members = {1};
  w.initial_inputs = {{0, 0}, {0, 1}};
  w.final_outputs = {{0, 0}};  // output 1 unconsumed
  auto error = w.Validate(TwoModules());
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("never consumed"), std::string::npos);
}

TEST(SimpleWorkflow, RejectsBackwardEdge) {
  SimpleWorkflow w;
  w.members = {0, 0};
  w.edges = {{{1, 0}, {0, 0}}};  // member 1 -> member 0
  w.initial_inputs = {{1, 0}};
  w.final_outputs = {{0, 0}};
  auto error = w.Validate(TwoModules());
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("topological"), std::string::npos);
}

TEST(DependencyAssignment, SetGetClear) {
  DependencyAssignment deps(2);
  EXPECT_FALSE(deps.IsDefined(0));
  deps.Set(0, Mat({"1"}));
  EXPECT_TRUE(deps.IsDefined(0));
  EXPECT_EQ(deps.Get(0), Mat({"1"}));
  deps.Clear(0);
  EXPECT_FALSE(deps.IsDefined(0));
}

TEST(DependencyAssignment, ValidateProperDef6) {
  Module m{"m", 2, 2};
  EXPECT_FALSE(
      DependencyAssignment::ValidateProper(m, Mat({"10", "01"})).has_value());
  // Input 1 contributes nothing.
  auto error = DependencyAssignment::ValidateProper(m, Mat({"11", "00"}));
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("contributes to no output"), std::string::npos);
  // Output 0 depends on nothing.
  error = DependencyAssignment::ValidateProper(m, Mat({"01", "01"}));
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("depends on no input"), std::string::npos);
  // Shape mismatch.
  error = DependencyAssignment::ValidateProper(m, Mat({"1"}));
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("shape"), std::string::npos);
}

TEST(GrammarBuilder, BuildsValidGrammar) {
  GrammarBuilder b;
  ModuleId s = b.AddComposite("S", 1, 1);
  ModuleId x = b.AddAtomic("x", 1, 1);
  b.SetStart(s);
  auto p = b.NewProduction(s);
  int m = p.AddMember(x);
  p.MapInput(0, m, 0).MapOutput(0, m, 0);
  ProductionId k = p.Build();
  b.SetCompleteDeps(x);
  Specification spec = b.BuildSpecification();
  EXPECT_EQ(spec.grammar.num_modules(), 2);
  EXPECT_EQ(spec.grammar.num_productions(), 1);
  EXPECT_EQ(spec.grammar.production(k).lhs, s);
  EXPECT_TRUE(spec.grammar.is_composite(s));
  EXPECT_FALSE(spec.grammar.is_composite(x));
  EXPECT_EQ(spec.grammar.FindModule("x"), x);
  EXPECT_EQ(spec.grammar.FindModule("nope"), kInvalidModule);
  EXPECT_EQ(spec.grammar.AtomicModules(), std::vector<ModuleId>{x});
  EXPECT_EQ(spec.grammar.CompositeModules(), std::vector<ModuleId>{s});
}

TEST(Grammar, ValidateRejectsAtomicLhs) {
  std::vector<Module> modules = {{"S", 1, 1}, {"x", 1, 1}};
  SimpleWorkflow w;
  w.members = {1};
  w.initial_inputs = {{0, 0}};
  w.final_outputs = {{0, 0}};
  Grammar g(modules, {true, false}, 0, {{1, w}});  // lhs = atomic x
  auto error = g.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("atomic"), std::string::npos);
}

TEST(Grammar, ValidateRejectsArityMismatch) {
  std::vector<Module> modules = {{"S", 2, 1}, {"x", 1, 1}};
  SimpleWorkflow w;
  w.members = {1};
  w.initial_inputs = {{0, 0}};  // S has 2 inputs, only 1 mapped
  w.final_outputs = {{0, 0}};
  Grammar g(modules, {true, false}, 0, {{0, w}});
  auto error = g.Validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("biject"), std::string::npos);
}

TEST(WorkflowPortGraph, ReachabilityThroughDeps) {
  // x(1/1) -> y(2/2) with y's second input initial.
  GrammarBuilder b;
  ModuleId s = b.AddComposite("S", 2, 2);
  ModuleId x = b.AddAtomic("x", 1, 1);
  ModuleId y = b.AddAtomic("y", 2, 2);
  b.SetStart(s);
  auto p = b.NewProduction(s);
  int mx = p.AddMember(x);
  int my = p.AddMember(y);
  p.MapInput(0, mx, 0).MapInput(1, my, 1);
  p.Edge(mx, 0, my, 0);
  p.MapOutput(0, my, 0).MapOutput(1, my, 1);
  p.Build();
  b.SetCompleteDeps(x);
  b.SetDeps(y, Mat({"10", "01"}));  // identity
  Specification spec = b.BuildSpecification();

  WorkflowPortGraph graph(spec.grammar, spec.grammar.production(0).rhs,
                          spec.deps);
  // S.in0 -> x -> y.in0 -> y.out0; not to y.out1.
  EXPECT_EQ(graph.InitialToFinal(), Mat({"10", "01"}));
  EXPECT_EQ(graph.InitialToMemberInputs(1), Mat({"10", "01"}));
  EXPECT_EQ(graph.MemberOutputsToFinalReversed(0), Mat({"1", "0"}));
  EXPECT_EQ(graph.MemberOutputsToMemberInputs(0, 1), Mat({"10"}));
  // Reflexivity: initial input 1 is y.in1 itself.
  EXPECT_TRUE(graph.InitialToMemberInputs(1).Get(1, 1));
}

TEST(WorkflowPortGraph, OverlaySuppressesAndInjects) {
  GrammarBuilder b;
  ModuleId s = b.AddComposite("S", 1, 1);
  ModuleId x = b.AddAtomic("x", 1, 1);
  ModuleId y = b.AddAtomic("y", 1, 1);
  b.SetStart(s);
  auto p = b.NewProduction(s);
  int mx = p.AddMember(x);
  int my = p.AddMember(y);
  p.MapInput(0, mx, 0);
  p.Edge(mx, 0, my, 0);
  p.MapOutput(0, my, 0);
  p.Build();
  b.SetCompleteDeps(x);
  b.SetCompleteDeps(y);
  Specification spec = b.BuildSpecification();

  // Suppress both members and the internal edge; inject a direct dependency
  // from x.in0 to y.out0 (as a grouped module F would).
  PortGraphOverlay overlay;
  overlay.suppress_member = {true, true};
  overlay.suppressed_edges = {0};
  overlay.extra_deps.push_back({{0, 0}, {1, 0}});
  WorkflowPortGraph graph(spec.grammar, spec.grammar.production(0).rhs,
                          spec.deps, &overlay);
  EXPECT_EQ(graph.InitialToFinal(), Mat({"1"}));
  // Without the extra dep, nothing would be reachable.
  PortGraphOverlay no_extra;
  no_extra.suppress_member = {true, true};
  no_extra.suppressed_edges = {0};
  WorkflowPortGraph cut(spec.grammar, spec.grammar.production(0).rhs,
                        spec.deps, &no_extra);
  EXPECT_EQ(cut.InitialToFinal(), Mat({"0"}));
}

}  // namespace
}  // namespace fvl
