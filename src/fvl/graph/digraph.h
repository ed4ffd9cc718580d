// Directed multigraph with stable edge ids.
//
// Used as the substrate for production graphs (which need parallel edges —
// a workflow with two instances of the same module induces two edges) and
// for the port-level provenance graphs.

#ifndef FVL_GRAPH_DIGRAPH_H_
#define FVL_GRAPH_DIGRAPH_H_

#include <vector>

namespace fvl {

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(int num_nodes);

  // Adds an edge; returns its id. Parallel edges and self-loops are allowed.
  int AddEdge(int from, int to);

  int num_nodes() const { return static_cast<int>(out_edges_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  struct Edge {
    int from;
    int to;
  };
  const Edge& edge(int edge_id) const { return edges_[edge_id]; }

  // Ids of edges leaving a node, in insertion order.
  const std::vector<int>& OutEdges(int node) const { return out_edges_[node]; }

  int OutDegree(int node) const {
    return static_cast<int>(out_edges_[node].size());
  }
  int InDegree(int node) const {
    return static_cast<int>(in_edges_[node].size());
  }

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> out_edges_;
  std::vector<std::vector<int>> in_edges_;
};

}  // namespace fvl

#endif  // FVL_GRAPH_DIGRAPH_H_
