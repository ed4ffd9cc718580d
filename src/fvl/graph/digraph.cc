#include "fvl/graph/digraph.h"

#include "fvl/util/check.h"

namespace fvl {

Digraph::Digraph(int num_nodes)
    : out_edges_(num_nodes), in_edges_(num_nodes) {
  FVL_CHECK(num_nodes >= 0);
}

int Digraph::AddEdge(int from, int to) {
  FVL_CHECK(from >= 0 && from < num_nodes());
  FVL_CHECK(to >= 0 && to < num_nodes());
  int id = num_edges();
  edges_.push_back({from, to});
  out_edges_[from].push_back(id);
  in_edges_[to].push_back(id);
  return id;
}

}  // namespace fvl
