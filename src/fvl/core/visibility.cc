#include "fvl/core/visibility.h"

#include <algorithm>

namespace fvl {

namespace {

bool PathVisible(const std::vector<EdgeLabel>& path, const ViewLabel& view) {
  const ProductionGraph& pg = view.production_graph();
  for (const EdgeLabel& edge : path) {
    if (edge.kind == EdgeLabel::Kind::kProduction) {
      if (!view.ProductionActive(edge.production)) return false;
    } else {
      // Unfolding i members of cycle s uses the productions of cycle edges
      // t .. t+i-2; checking min(i-1, cycle length) suffices (they repeat).
      int length = pg.cycle(edge.cycle).length();
      int needed = std::min(edge.iteration - 1, length);
      for (int a = 0; a < needed; ++a) {
        PgEdge cycle_edge = pg.CycleEdgeAt(edge.cycle, edge.start + a);
        if (!view.ProductionActive(cycle_edge.production)) return false;
      }
    }
  }
  return true;
}

// One end of a label: its path is visible and, for a §5 grouped view, the
// port it sits on (an output for the producer, an input for the consumer)
// is a group-boundary port.
bool EndVisible(PortSide side, const std::optional<PortLabel>& end,
                const ViewLabel& view) {
  if (!end.has_value()) return true;
  const std::vector<EdgeLabel>& path = end->path;
  return PathVisible(path, view) &&
         (path.empty() || path.back().kind != EdgeLabel::Kind::kProduction ||
          view.PortVisible(side, path.back().production,
                           path.back().position, end->port));
}

}  // namespace

bool IsItemVisible(const DataLabel& label, const ViewLabel& view) {
  return EndVisible(PortSide::kOutputs, label.producer, view) &&
         EndVisible(PortSide::kInputs, label.consumer, view);
}

}  // namespace fvl
