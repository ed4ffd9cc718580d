#include "fvl/workflow/port_graph.h"

#include "fvl/util/check.h"

namespace fvl {

WorkflowPortGraph::WorkflowPortGraph(const Grammar& grammar,
                                     const SimpleWorkflow& w,
                                     const DependencyAssignment& deps,
                                     const PortGraphOverlay* overlay)
    : grammar_(&grammar), workflow_(&w) {
  const int n = w.num_members();
  input_base_.resize(n);
  output_base_.resize(n);
  int next = 0;
  for (int m = 0; m < n; ++m) {
    const Module& module = grammar.module(w.members[m]);
    input_base_[m] = next;
    next += module.num_inputs;
    output_base_[m] = next;
    next += module.num_outputs;
  }
  adjacency_.resize(next);
  reach_.resize(next);

  for (int m = 0; m < n; ++m) {
    if (overlay != nullptr &&
        m < static_cast<int>(overlay->suppress_member.size()) &&
        overlay->suppress_member[m]) {
      continue;
    }
    ModuleId type = w.members[m];
    FVL_CHECK(deps.IsDefined(type));
    const BoolMatrix& matrix = deps.Get(type);
    const Module& module = grammar.module(type);
    FVL_CHECK(matrix.rows() == module.num_inputs &&
              matrix.cols() == module.num_outputs);
    for (int i = 0; i < matrix.rows(); ++i) {
      for (int o = 0; o < matrix.cols(); ++o) {
        if (matrix.Get(i, o)) {
          adjacency_[input_base_[m] + i].push_back(output_base_[m] + o);
        }
      }
    }
  }
  std::vector<bool> edge_suppressed(w.edges.size(), false);
  if (overlay != nullptr) {
    for (int index : overlay->suppressed_edges) {
      FVL_CHECK(index >= 0 && index < static_cast<int>(w.edges.size()));
      edge_suppressed[index] = true;
    }
  }
  for (size_t i = 0; i < w.edges.size(); ++i) {
    if (edge_suppressed[i]) continue;
    const DataEdge& e = w.edges[i];
    adjacency_[OutputNode(e.src)].push_back(InputNode(e.dst));
  }
  if (overlay != nullptr) {
    for (const PortGraphOverlay::CrossDep& dep : overlay->extra_deps) {
      adjacency_[InputNode(dep.from_input)].push_back(
          OutputNode(dep.to_output));
    }
  }
}

const std::vector<bool>& WorkflowPortGraph::ReachableFrom(int source) const {
  std::vector<bool>& reached = reach_[source];
  if (!reached.empty()) return reached;
  reached.assign(adjacency_.size(), false);
  reached[source] = true;
  std::vector<int> pending;  // each node enters at most once
  pending.reserve(adjacency_.size());
  pending.push_back(source);
  while (!pending.empty()) {
    const int node = pending.back();
    pending.pop_back();
    for (int next : adjacency_[node]) {
      if (!reached[next]) {
        reached[next] = true;
        pending.push_back(next);
      }
    }
  }
  return reached;
}

template <typename Source, typename Target>
BoolMatrix WorkflowPortGraph::Matrix(int rows, int cols, Source source,
                                     Target target) const {
  BoolMatrix result(rows, cols);
  for (int r = 0; r < rows; ++r) {
    const std::vector<bool>& reached = ReachableFrom(source(r));
    for (int c = 0; c < cols; ++c) {
      if (reached[target(c)]) result.Set(r, c);
    }
  }
  return result;
}

BoolMatrix WorkflowPortGraph::InitialToFinal() const {
  const auto& inits = workflow_->initial_inputs;
  const auto& finals = workflow_->final_outputs;
  return Matrix(
      static_cast<int>(inits.size()), static_cast<int>(finals.size()),
      [&](int x) { return InputNode(inits[x]); },
      [&](int y) { return OutputNode(finals[y]); });
}

BoolMatrix WorkflowPortGraph::InitialToMemberInputs(int member) const {
  const auto& inits = workflow_->initial_inputs;
  const Module& module = grammar_->module(workflow_->members[member]);
  return Matrix(
      static_cast<int>(inits.size()), module.num_inputs,
      [&](int x) { return InputNode(inits[x]); },
      [&](int y) { return input_base_[member] + y; });
}

BoolMatrix WorkflowPortGraph::MemberOutputsToFinalReversed(int member) const {
  const auto& finals = workflow_->final_outputs;
  const Module& module = grammar_->module(workflow_->members[member]);
  return Matrix(
             module.num_outputs, static_cast<int>(finals.size()),
             [&](int y) { return output_base_[member] + y; },
             [&](int x) { return OutputNode(finals[x]); })
      .Transpose();
}

BoolMatrix WorkflowPortGraph::MemberOutputsToMemberInputs(int i, int j) const {
  const Module& from = grammar_->module(workflow_->members[i]);
  const Module& to = grammar_->module(workflow_->members[j]);
  return Matrix(
      from.num_outputs, to.num_inputs,
      [&](int x) { return output_base_[i] + x; },
      [&](int y) { return input_base_[j] + y; });
}

}  // namespace fvl
