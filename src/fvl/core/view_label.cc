#include "fvl/core/view_label.h"

#include "fvl/util/check.h"

namespace fvl {

const char* ToString(ViewLabelMode mode) {
  switch (mode) {
    case ViewLabelMode::kSpaceEfficient:
      return "Space-Efficient";
    case ViewLabelMode::kDefault:
      return "Default";
    case ViewLabelMode::kQueryEfficient:
      return "Query-Efficient";
  }
  return "?";
}

WorkflowPortGraph ViewLabel::PortGraph(ProductionId k) const {
  const int overlay = overlay_index_[k];
  return WorkflowPortGraph(*grammar_, grammar_->production(k).rhs, full_,
                           overlay >= 0 ? &overlays_[overlay] : nullptr);
}

std::optional<BoolMatrix> ViewLabel::I(ProductionId k, int pos) const {
  if (!active_[k]) return std::nullopt;
  if (materialized_) return i_mats_[k][pos];
  return PortGraph(k).InitialToMemberInputs(pos);
}

std::optional<BoolMatrix> ViewLabel::O(ProductionId k, int pos) const {
  if (!active_[k]) return std::nullopt;
  if (materialized_) return o_mats_[k][pos];
  return PortGraph(k).MemberOutputsToFinalReversed(pos);
}

std::optional<BoolMatrix> ViewLabel::Z(ProductionId k, int i, int j) const {
  if (!active_[k]) return std::nullopt;
  const Module& from = grammar_->module(grammar_->production(k).rhs.members[i]);
  const Module& to = grammar_->module(grammar_->production(k).rhs.members[j]);
  if (i >= j) {
    // Members are topologically ordered: the matrix is empty (§4.3).
    return BoolMatrix(from.num_outputs, to.num_inputs);
  }
  if (materialized_) {
    int members = grammar_->production(k).rhs.num_members();
    return z_mats_[k][i * members + j];
  }
  return PortGraph(k).MemberOutputsToMemberInputs(i, j);
}

bool ViewLabel::CycleFullyActive(int s) const {
  const ProductionGraph::Cycle& cycle = pg_->cycle(s);
  for (const PgEdge& edge : cycle.edges) {
    if (!active_[edge.production]) return false;
  }
  return true;
}

std::vector<BoolMatrix> ViewLabel::CyclePrefixes(PortSide side, int s,
                                                 int t) const {
  // [0] is the identity on the ports of the member the walk starts at.
  const Module& first =
      pg_->grammar().module(pg_->EdgeSource(pg_->CycleEdgeAt(s, t)));
  std::vector<BoolMatrix> prefixes = {BoolMatrix::Identity(
      side == PortSide::kInputs ? first.num_inputs : first.num_outputs)};
  for (int a = 0; a < pg_->cycle(s).length(); ++a) {
    PgEdge edge = pg_->CycleEdgeAt(s, t + a);
    prefixes.push_back(prefixes.back().Multiply(
        *(side == PortSide::kInputs ? I(edge.production, edge.position)
                                    : O(edge.production, edge.position))));
  }
  return prefixes;
}

uint64_t ViewLabel::Reach(PortSide side, ProductionId k, int pos,
                          uint64_t ports) const {
  // Along data flow: ports · I, or O · ports.
  auto apply = [&](const BoolMatrix& factor) {
    return side == PortSide::kInputs ? factor.Push(ports) : factor.Pull(ports);
  };
  if (materialized_ && active_[k]) {
    return apply((side == PortSide::kInputs ? i_mats_ : o_mats_)[k][pos]);
  }
  std::optional<BoolMatrix> factor =
      side == PortSide::kInputs ? I(k, pos) : O(k, pos);
  return factor.has_value() ? apply(*factor) : 0;
}

uint64_t ViewLabel::ReachZ(ProductionId k, int i, int j,
                           uint64_t ports) const {
  if (materialized_ && active_[k]) {
    const int members = grammar_->production(k).rhs.num_members();
    return z_mats_[k][i * members + j].Push(ports);
  }
  std::optional<BoolMatrix> z = Z(k, i, j);
  return z.has_value() ? z->Push(ports) : 0;
}

uint64_t ViewLabel::ReachWalk(PortSide side, int s, int t, int iteration,
                              uint64_t ports) const {
  FVL_CHECK(iteration >= 1);
  // Callers pass unwrapped start offsets (e.g. t+i from Algorithm 2).
  const int l = pg_->cycle(s).length();
  t %= l;
  const int total = iteration - 1;
  // The walk is X^(total / l) · P, X the full-cycle product and P the
  // product of the first total % l factors: a push goes through the power
  // first, a pull through P first.
  auto through = [&](const BoolMatrix& power, const BoolMatrix& prefix) {
    return side == PortSide::kInputs ? prefix.Push(power.Push(ports))
                                     : power.Pull(prefix.Pull(ports));
  };
  if (mode_ == ViewLabelMode::kQueryEfficient) {
    const WalkCache& cache = walk_caches_[static_cast<int>(side)][s][t];
    if (cache.powers.has_value()) {
      return through(cache.powers->Power(total / l), cache.prefix[total % l]);
    }
  }
  if (total >= 2 * l && CycleFullyActive(s)) {
    // Lemma 5's O(log i) without the cache: one pass over the cycle
    // computes each factor once (for Space-Efficient labels, one bounded
    // batch of graph searches), then X is powered by repeated squaring.
    const std::vector<BoolMatrix> prefixes = CyclePrefixes(side, s, t);
    return through(BoolMatrixPower(prefixes[l], total / l),
                   prefixes[total % l]);
  }
  // Factor a is cycle edge t + a; a pull takes the factors last first.
  for (int a = 0; a < total && ports != 0; ++a) {
    const int factor = side == PortSide::kInputs ? a : total - 1 - a;
    PgEdge edge = pg_->CycleEdgeAt(s, t + factor);
    ports = Reach(side, edge.production, edge.position, ports);
  }
  return ports;
}

bool ViewLabel::PortVisible(PortSide side, ProductionId k, int member,
                            int port) const {
  return hidden_index_[k] < 0 ||
         !hidden_[hidden_index_[k]][static_cast<int>(side)][member][port];
}

int64_t ViewLabel::SizeBits() const {
  int64_t bits = static_cast<int64_t>(active_.size());  // active flags
  for (ModuleId m = 0; m < grammar_->num_modules(); ++m) {
    if (full_.IsDefined(m)) bits += full_.Get(m).SizeBits();
  }
  if (materialized_) {
    for (ProductionId k = 0; k < grammar_->num_productions(); ++k) {
      for (const BoolMatrix& m : i_mats_[k]) bits += m.SizeBits();
      for (const BoolMatrix& m : o_mats_[k]) bits += m.SizeBits();
      for (const BoolMatrix& m : z_mats_[k]) bits += m.SizeBits();
    }
  }
  for (const auto& per_side : walk_caches_) {
    for (const auto& per_cycle : per_side) {
      for (const WalkCache& cache : per_cycle) {
        if (!cache.powers.has_value()) continue;
        for (const BoolMatrix& m : cache.prefix) bits += m.SizeBits();
        bits += cache.powers->SizeBits();
      }
    }
  }
  return bits;
}

ViewLabel ViewLabeler::Label(const CompiledView& view,
                             ViewLabelMode mode) const {
  std::vector<bool> active(grammar_->num_productions(), false);
  for (ProductionId k = 0; k < grammar_->num_productions(); ++k) {
    active[k] = view.IsActiveProduction(k);
  }
  return Build(active, view.full(), mode, nullptr);
}

ViewLabel ViewLabeler::Label(const GroupedView& view,
                             ViewLabelMode mode) const {
  std::vector<bool> active(grammar_->num_productions(), false);
  for (ProductionId k = 0; k < grammar_->num_productions(); ++k) {
    active[k] = view.IsActiveProduction(k);
  }
  return Build(active, view.base().full(), mode, &view);
}

ViewLabel ViewLabeler::Build(const std::vector<bool>& active,
                             const DependencyAssignment& full,
                             ViewLabelMode mode,
                             const GroupedView* grouped) const {
  ViewLabel label;
  label.mode_ = mode;
  label.grammar_ = grammar_;
  label.pg_ = pg_;
  label.active_ = active;
  label.full_ = full;
  FVL_CHECK(full.IsDefined(grammar_->start()));
  label.start_matrix_ = full.Get(grammar_->start());

  label.hidden_index_.assign(grammar_->num_productions(), -1);
  label.overlay_index_.assign(grammar_->num_productions(), -1);
  if (grouped != nullptr) {
    for (ProductionId k = 0; k < grammar_->num_productions(); ++k) {
      const PortGraphOverlay* overlay = grouped->OverlayFor(k);
      if (overlay == nullptr) continue;
      label.overlay_index_[k] = static_cast<int>(label.overlays_.size());
      label.overlays_.push_back(*overlay);

      ViewLabel::HiddenPorts hidden;
      auto& inputs = hidden[static_cast<int>(PortSide::kInputs)];
      auto& outputs = hidden[static_cast<int>(PortSide::kOutputs)];
      const SimpleWorkflow& w = grammar_->production(k).rhs;
      for (int m = 0; m < w.num_members(); ++m) {
        const Module& module = grammar_->module(w.members[m]);
        inputs.emplace_back(module.num_inputs);
        outputs.emplace_back(module.num_outputs);
        for (int port = 0; port < module.num_inputs; ++port) {
          inputs[m][port] = !grouped->InputPortVisible(k, m, port);
        }
        for (int port = 0; port < module.num_outputs; ++port) {
          outputs[m][port] = !grouped->OutputPortVisible(k, m, port);
        }
      }
      label.hidden_index_[k] = static_cast<int>(label.hidden_.size());
      label.hidden_.push_back(std::move(hidden));
    }
  }

  if (mode == ViewLabelMode::kSpaceEfficient) return label;

  // Materialize I, O, Z from one port graph per active production, which
  // searches each port at most once across all of them.
  label.materialized_ = true;
  label.i_mats_.resize(grammar_->num_productions());
  label.o_mats_.resize(grammar_->num_productions());
  label.z_mats_.resize(grammar_->num_productions());
  for (ProductionId k = 0; k < grammar_->num_productions(); ++k) {
    if (!active[k]) continue;
    const Production& p = grammar_->production(k);
    WorkflowPortGraph port_graph = label.PortGraph(k);
    int members = p.rhs.num_members();
    label.i_mats_[k].reserve(members);
    label.o_mats_[k].reserve(members);
    for (int pos = 0; pos < members; ++pos) {
      label.i_mats_[k].push_back(port_graph.InitialToMemberInputs(pos));
      label.o_mats_[k].push_back(port_graph.MemberOutputsToFinalReversed(pos));
    }
    label.z_mats_[k].resize(static_cast<size_t>(members) * members);
    for (int i = 0; i < members; ++i) {
      for (int j = 0; j < members; ++j) {
        if (i < j) {
          label.z_mats_[k][i * members + j] =
              port_graph.MemberOutputsToMemberInputs(i, j);
        } else {
          const Module& from = grammar_->module(p.rhs.members[i]);
          const Module& to = grammar_->module(p.rhs.members[j]);
          label.z_mats_[k][i * members + j] =
              BoolMatrix(from.num_outputs, to.num_inputs);
        }
      }
    }
  }

  if (mode != ViewLabelMode::kQueryEfficient) return label;

  // Walk caches per (side, cycle, start edge).
  for (PortSide side : {PortSide::kInputs, PortSide::kOutputs}) {
    auto& caches = label.walk_caches_[static_cast<int>(side)];
    caches.resize(pg_->num_cycles());
    for (int s = 0; s < pg_->num_cycles(); ++s) {
      caches[s].resize(pg_->cycle(s).length());
      if (!label.CycleFullyActive(s)) continue;
      for (int t = 0; t < pg_->cycle(s).length(); ++t) {
        ViewLabel::WalkCache& cache = caches[s][t];
        cache.prefix = label.CyclePrefixes(side, s, t);
        cache.powers.emplace(std::move(cache.prefix.back()));
        cache.prefix.pop_back();
      }
    }
  }
  return label;
}

}  // namespace fvl
