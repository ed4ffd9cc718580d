// Static view labels φv(U) = {λ*(S), I, O, Z} (§4.3) in three variants:
//
//  * kSpaceEfficient — stores only the full assignment λ'^* and the active
//    production set; every I/O/Z access performs a graph search over the
//    view of the specification at query time (§4.3, "Space-Efficient View
//    Labeling").
//  * kDefault — materializes all I/O/Z reachability matrices.
//  * kQueryEfficient — additionally materializes, per recursion and start
//    edge, the cycle-walk prefix products and the matrix-power oracles of
//    §4.4.3, so cycle walks are O(1).
//
// Every I/O/Z matrix, materialized or computed on access, is read off the
// production's WorkflowPortGraph (workflow/port_graph.h).
//
// A lookup that is undefined in the view (inactive production, §5-hidden
// port) reports as such; the decoder maps this to "item not visible in this
// view", which is exactly the §5 data-visibility check.

#ifndef FVL_CORE_VIEW_LABEL_H_
#define FVL_CORE_VIEW_LABEL_H_

#include <array>
#include <optional>
#include <vector>

#include "fvl/core/matrix_power.h"
#include "fvl/workflow/port_graph.h"
#include "fvl/workflow/production_graph.h"
#include "fvl/workflow/user_defined_view.h"
#include "fvl/workflow/view.h"

namespace fvl {

enum class ViewLabelMode { kSpaceEfficient, kDefault, kQueryEfficient };

const char* ToString(ViewLabelMode mode);

// Which side of a port, path or walk: kInputs multiplies I matrices (the
// paper's Inputs, Algorithm 1), kOutputs O matrices (its Outputs twin).
enum class PortSide { kInputs, kOutputs };

class ViewLabel {
 public:
  ViewLabelMode mode() const { return mode_; }
  const ProductionGraph& production_graph() const { return *pg_; }

  // λ'^*(S).
  const BoolMatrix& StartMatrix() const { return start_matrix_; }
  bool ProductionActive(ProductionId k) const { return active_[k]; }
  // λ'^* (per derivable module).
  const DependencyAssignment& full() const { return full_; }

  // §4.3 functions; std::nullopt when undefined in this view.
  std::optional<BoolMatrix> I(ProductionId k, int pos) const;
  std::optional<BoolMatrix> O(ProductionId k, int pos) const;
  std::optional<BoolMatrix> Z(ProductionId k, int i, int j) const;

  // The ports a set of ports (bit p = port p) reaches along data flow, read
  // off stored matrices in place; 0 when undefined in this view.
  //   Reach(kInputs):  lhs inputs -> member pos's inputs, ports · I(k, pos)
  //   Reach(kOutputs): member pos's outputs -> lhs outputs, O(k, pos) · ports
  //   ReachZ:          member i's outputs -> member j's inputs, ports · Z
  //   ReachWalk:       ports · Walk (kInputs) or Walk · ports (kOutputs),
  //                    Walk being Algorithm 1 or its Outputs twin: the
  //                    product of iteration - 1 I (or O) matrices along
  //                    cycle s from edge t (1-based; 1 is the identity).
  uint64_t Reach(PortSide side, ProductionId k, int pos, uint64_t ports) const;
  uint64_t ReachZ(ProductionId k, int i, int j, uint64_t ports) const;
  uint64_t ReachWalk(PortSide side, int s, int t, int iteration,
                     uint64_t ports) const;

  // §5 visibility of a member's port (true for regular views).
  bool PortVisible(PortSide side, ProductionId k, int member, int port) const;

  // Exact storage accounting (bits) for the Fig.-19 comparison.
  int64_t SizeBits() const;

 private:
  friend class ViewLabeler;

  // Production k's port graph in this view (with its §5 overlay, if any).
  WorkflowPortGraph PortGraph(ProductionId k) const;
  // [r] = the product of the first r factors of a walk along cycle s from
  // edge t, for r = 0 .. l; [l] is the full-cycle product X. The cycle must
  // be fully active.
  std::vector<BoolMatrix> CyclePrefixes(PortSide side, int s, int t) const;
  bool CycleFullyActive(int s) const;

  ViewLabelMode mode_ = ViewLabelMode::kDefault;
  const Grammar* grammar_ = nullptr;
  const ProductionGraph* pg_ = nullptr;
  std::vector<bool> active_;
  DependencyAssignment full_;
  BoolMatrix start_matrix_;

  // kDefault / kQueryEfficient storage.
  bool materialized_ = false;
  std::vector<std::vector<BoolMatrix>> i_mats_;  // [k][pos]
  std::vector<std::vector<BoolMatrix>> o_mats_;  // [k][pos]
  std::vector<std::vector<BoolMatrix>> z_mats_;  // [k][i * members + j], i < j

  // kQueryEfficient walk caches, indexed [side][cycle][start]; a cache
  // without powers is absent (the cycle is not fully active).
  struct WalkCache {
    std::vector<BoolMatrix> prefix;  // [r] = first r factors
    std::optional<MatrixPowerOracle> powers;  // of the full-cycle product
  };
  std::array<std::vector<std::vector<WalkCache>>, 2> walk_caches_;

  // §5 hidden-port masks, sparse by production (-1 = nothing hidden).
  using HiddenPorts = std::array<std::vector<std::vector<bool>>, 2>;
  std::vector<int> hidden_index_;     // per production
  std::vector<HiddenPorts> hidden_;  // [side][member][port]
  // Overlays for on-demand computation in grouped space-efficient labels.
  std::vector<int> overlay_index_;  // per production
  std::vector<PortGraphOverlay> overlays_;
};

class ViewLabeler {
 public:
  ViewLabeler(const Grammar* grammar, const ProductionGraph* pg)
      : grammar_(grammar), pg_(pg) {}

  ViewLabel Label(const CompiledView& view, ViewLabelMode mode) const;
  ViewLabel Label(const GroupedView& view, ViewLabelMode mode) const;

 private:
  ViewLabel Build(const std::vector<bool>& active,
                  const DependencyAssignment& full, ViewLabelMode mode,
                  const GroupedView* grouped) const;

  const Grammar* grammar_;
  const ProductionGraph* pg_;
};

}  // namespace fvl

#endif  // FVL_CORE_VIEW_LABEL_H_
