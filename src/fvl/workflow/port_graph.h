// Port-level reachability inside one simple workflow W^λ*.
//
// Nodes are the input/output ports of W's members; edges are the members'
// internal dependency edges (per the supplied assignment, which must cover
// every member's module) plus W's data edges. Reachability is reflexive.
//
// This is the library's one port-level reachability: the safety check
// (Thm. 2: consistency of M ->f W requires reach(f(x), f(y)) ==
// λ*(M)[x, y]) and the view label functions I, O, Z (§4.3), whether a label
// materializes them (Default, Query-Efficient) or computes one per access
// (Space-Efficient), all read their matrices off it.
//
// The graph is kept as adjacency lists. A port's reachable set is found by
// one graph search the first time a matrix needs that port as a source, and
// is kept, so every port is searched at most once per instance. The matrix
// accessors are const but fill that memo: an instance must not be shared
// across threads.

#ifndef FVL_WORKFLOW_PORT_GRAPH_H_
#define FVL_WORKFLOW_PORT_GRAPH_H_

#include <vector>

#include "fvl/util/boolean_matrix.h"
#include "fvl/workflow/dependency.h"
#include "fvl/workflow/grammar.h"

namespace fvl {

// Structural modifications applied while building a port graph; used by
// user-defined views (§5) to replace a group of members with the perceived
// dependencies of the grouping module F.
struct PortGraphOverlay {
  // Per member: drop its internal dependency edges (its deps need not be
  // defined in the assignment then).
  std::vector<bool> suppress_member;
  // Indices into w.edges to drop (group-internal data edges).
  std::vector<int> suppressed_edges;
  // Extra dependency edges from an input port to an output port, possibly
  // across members (λ'(F) edges between group boundary ports).
  struct CrossDep {
    PortRef from_input;
    PortRef to_output;
  };
  std::vector<CrossDep> extra_deps;
};

class WorkflowPortGraph {
 public:
  // `deps` must define a matrix for the module of every member of `w`
  // (except members suppressed by the overlay). `grammar` and `w` must
  // outlive the graph.
  WorkflowPortGraph(const Grammar& grammar, const SimpleWorkflow& w,
                    const DependencyAssignment& deps,
                    const PortGraphOverlay* overlay = nullptr);

  // λ*(M) of the owning production: [x][y] = initial input x reaches final
  // output y.
  BoolMatrix InitialToFinal() const;
  // I(k, i): [x][y] = initial input x reaches input y of member i.
  BoolMatrix InitialToMemberInputs(int member) const;
  // O(k, i), reversed per §4.3: [x][y] = output y of member i reaches final
  // output x.
  BoolMatrix MemberOutputsToFinalReversed(int member) const;
  // Z(k, i, j): [x][y] = output x of member i reaches input y of member j.
  BoolMatrix MemberOutputsToMemberInputs(int i, int j) const;

 private:
  int InputNode(PortRef p) const { return input_base_[p.member] + p.port; }
  int OutputNode(PortRef p) const { return output_base_[p.member] + p.port; }
  // The nodes reachable from `source`, searched on first use.
  const std::vector<bool>& ReachableFrom(int source) const;
  // [r][c] = node target(c) is reachable from node source(r).
  template <typename Source, typename Target>
  BoolMatrix Matrix(int rows, int cols, Source source, Target target) const;

  const Grammar* grammar_;
  const SimpleWorkflow* workflow_;
  std::vector<int> input_base_;
  std::vector<int> output_base_;
  std::vector<std::vector<int>> adjacency_;
  // reach_[node] is empty until ReachableFrom(node) first runs.
  mutable std::vector<std::vector<bool>> reach_;
};

}  // namespace fvl

#endif  // FVL_WORKFLOW_PORT_GRAPH_H_
