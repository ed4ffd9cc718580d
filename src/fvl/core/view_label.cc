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

namespace {

// The identity a walk along `side` starts from at edge t of cycle s: one row
// and column per port of the cycle member the walk starts at.
BoolMatrix WalkIdentity(const ProductionGraph& pg, PortSide side, int s,
                        int t) {
  const Module& first =
      pg.grammar().module(pg.EdgeSource(pg.CycleEdgeAt(s, t)));
  return BoolMatrix::Identity(side == PortSide::kInputs ? first.num_inputs
                                                        : first.num_outputs);
}

}  // namespace

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

std::optional<BoolMatrix> ViewLabel::WalkStepwise(PortSide side, int s, int t,
                                                  int iteration,
                                                  int split_at,
                                                  BoolMatrix* split) const {
  BoolMatrix result = WalkIdentity(*pg_, side, s, t);
  for (int a = 0; a < iteration - 1; ++a) {
    if (a == split_at) *split = result;
    PgEdge edge = pg_->CycleEdgeAt(s, t + a);
    std::optional<BoolMatrix> factor =
        side == PortSide::kInputs ? I(edge.production, edge.position)
                                  : O(edge.production, edge.position);
    if (!factor.has_value()) return std::nullopt;
    result = result.Multiply(*factor);
  }
  return result;
}

std::optional<BoolMatrix> ViewLabel::Walk(PortSide side, int s, int t,
                                          int iteration) const {
  FVL_CHECK(iteration >= 1);
  // Callers pass unwrapped start offsets (e.g. t+i from Algorithm 2).
  const int l = pg_->cycle(s).length();
  t %= l;
  const int64_t total = iteration - 1;
  if (mode_ == ViewLabelMode::kQueryEfficient) {
    const WalkCache& cache = walk_caches_[static_cast<int>(side)][s][t];
    if (cache.powers.has_value()) {
      return cache.powers->Power(total / l).Multiply(
          cache.prefix[static_cast<size_t>(total % l)]);
    }
  }
  if (total >= 2 * l && CycleFullyActive(s)) {
    // Divide-and-conquer over the full-cycle product (Lemma 5's O(log i)).
    // Also used by the space-efficient variant: the full-cycle product X
    // costs one bounded batch of graph searches, after which powering is
    // logarithmic in the iteration count instead of linear. One pass over
    // the cycle yields both X and the product of its first total % l
    // factors, so each factor is computed once.
    BoolMatrix rest;
    std::optional<BoolMatrix> x = WalkStepwise(
        side, s, t, l + 1, static_cast<int>(total % l), &rest);
    if (!x.has_value()) return std::nullopt;
    return BoolMatrixPower(*x, total / l).Multiply(rest);
  }
  return WalkStepwise(side, s, t, iteration);
}

bool ViewLabel::InputPortVisible(ProductionId k, int member, int port) const {
  if (hidden_index_[k] < 0) return true;
  const HiddenPorts& hidden = hidden_[hidden_index_[k]];
  return !hidden.input_hidden[member][port];
}

bool ViewLabel::OutputPortVisible(ProductionId k, int member, int port) const {
  if (hidden_index_[k] < 0) return true;
  const HiddenPorts& hidden = hidden_[hidden_index_[k]];
  return !hidden.output_hidden[member][port];
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
      const SimpleWorkflow& w = grammar_->production(k).rhs;
      hidden.input_hidden.resize(w.num_members());
      hidden.output_hidden.resize(w.num_members());
      for (int m = 0; m < w.num_members(); ++m) {
        const Module& module = grammar_->module(w.members[m]);
        hidden.input_hidden[m].assign(module.num_inputs, false);
        hidden.output_hidden[m].assign(module.num_outputs, false);
        for (int port = 0; port < module.num_inputs; ++port) {
          hidden.input_hidden[m][port] = !grouped->InputPortVisible(k, m, port);
        }
        for (int port = 0; port < module.num_outputs; ++port) {
          hidden.output_hidden[m][port] =
              !grouped->OutputPortVisible(k, m, port);
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
    const auto& factors =
        side == PortSide::kInputs ? label.i_mats_ : label.o_mats_;
    auto& caches = label.walk_caches_[static_cast<int>(side)];
    caches.resize(pg_->num_cycles());
    for (int s = 0; s < pg_->num_cycles(); ++s) {
      int l = pg_->cycle(s).length();
      caches[s].resize(l);
      if (!label.CycleFullyActive(s)) continue;
      for (int t = 0; t < l; ++t) {
        BoolMatrix acc = WalkIdentity(*pg_, side, s, t);
        ViewLabel::WalkCache& cache = caches[s][t];
        cache.prefix.push_back(acc);
        for (int r = 0; r < l; ++r) {
          PgEdge edge = pg_->CycleEdgeAt(s, t + r);
          acc = acc.Multiply(factors[edge.production][edge.position]);
          if (r + 1 < l) cache.prefix.push_back(acc);
        }
        // acc now holds the full-cycle product X.
        cache.powers.emplace(acc);
      }
    }
  }
  return label;
}

}  // namespace fvl
