#include "fvl/core/decoder.h"

namespace fvl {

std::optional<BoolMatrix> Decoder::Factor(PortSide side,
                                          const EdgeLabel& edge) const {
  if (edge.kind == EdgeLabel::Kind::kRecursion) {
    return view_->Walk(side, edge.cycle, edge.start, edge.iteration);
  }
  return side == PortSide::kInputs ? view_->I(edge.production, edge.position)
                                   : view_->O(edge.production, edge.position);
}

std::optional<BoolMatrix> Decoder::Chain(PortSide side,
                                         const std::vector<EdgeLabel>& path,
                                         size_t from, int identity_dims) const {
  if (from >= path.size()) return BoolMatrix::Identity(identity_dims);
  std::optional<BoolMatrix> result = Factor(side, path[from]);
  if (!result.has_value()) return std::nullopt;
  for (size_t a = from + 1; a < path.size(); ++a) {
    std::optional<BoolMatrix> factor = Factor(side, path[a]);
    if (!factor.has_value()) return std::nullopt;
    result = result->Multiply(*factor);
  }
  return result;
}

bool Decoder::Depends(const DataLabel& d1, const DataLabel& d2) const {
  // Case I: final outputs depend on everything downstream of nothing;
  // initial inputs depend on nothing.
  if (!d1.consumer.has_value() || !d2.producer.has_value()) return false;

  // Case II: initial input -> final output, answered by λ*(S).
  if (!d1.producer.has_value() && !d2.consumer.has_value()) {
    return view_->StartMatrix().Get(d1.consumer->port, d2.producer->port);
  }

  // Case III: initial input -> intermediate item.
  if (!d1.producer.has_value()) {
    std::optional<BoolMatrix> chain = Chain(
        PortSide::kInputs, d2.consumer->path, 0, view_->StartMatrix().rows());
    if (!chain.has_value()) return false;  // d2 invisible in this view
    return chain->Get(d1.consumer->port, d2.consumer->port);
  }

  // Case IV: intermediate item -> final output.
  if (!d2.consumer.has_value()) {
    std::optional<BoolMatrix> chain = Chain(
        PortSide::kOutputs, d1.producer->path, 0, view_->StartMatrix().cols());
    if (!chain.has_value()) return false;
    return chain->Get(d2.producer->port, d1.producer->port);
  }

  // Main cases: both intermediate. l1 locates the producer port of d1 (the
  // paper's o1), l2 the consumer port of d2 (the paper's i2).
  const std::vector<EdgeLabel>& l1 = d1.producer->path;
  const std::vector<EdgeLabel>& l2 = d2.consumer->path;
  const int x = d1.producer->port;
  const int y = d2.consumer->port;

  size_t cp = 0;
  while (cp < l1.size() && cp < l2.size() && l1[cp] == l2[cp]) ++cp;

  // Case 1: equal paths or one a prefix of the other — one module is (an
  // ancestor of) the other; outputs cannot flow back into the expansion.
  if (cp == l1.size() || cp == l2.size()) return false;

  // The checks below that return false at the fork point hold for any two
  // labels of one run; labels of two runs can fail them.
  const EdgeLabel& e1 = l1[cp];
  const EdgeLabel& e2 = l2[cp];
  if (e1.kind != e2.kind) return false;

  if (e1.kind == EdgeLabel::Kind::kProduction) {
    // Case 2a: fork below a module node.
    if (e1.production != e2.production) return false;
    const int i = e1.position;
    const int j = e2.position;
    if (i > j) return false;  // Z(k, i, j) is empty for i >= j
    std::optional<BoolMatrix> z = view_->Z(e1.production, i, j);
    if (!z.has_value()) return false;
    std::optional<BoolMatrix> o =
        Chain(PortSide::kOutputs, l1, cp + 1, z->rows());
    std::optional<BoolMatrix> in =
        Chain(PortSide::kInputs, l2, cp + 1, z->cols());
    if (!o.has_value() || !in.has_value()) return false;
    return o->Transpose().Multiply(*z).Multiply(*in).Get(x, y);
  }

  // Case 2b: fork below a recursive node.
  if (e1.cycle != e2.cycle || e1.start != e2.start) return false;
  const int s = e1.cycle;
  const int t = e1.start;
  const int i = e1.iteration;
  const int j = e2.iteration;
  const ProductionGraph& pg = view_->production_graph();

  if (i < j) {
    // d1 under iteration i, d2 under the deeper iteration j. Data must leave
    // d1's branch, cross into the successor M_{i+1}, walk the cycle to M_j,
    // then descend to d2.
    if (cp + 1 == l1.size()) return false;  // o1 is a port of M_i itself
    const EdgeLabel& branch = l1[cp + 1];
    PgEdge successor = pg.CycleEdgeAt(s, t + i - 1);
    if (branch.kind != EdgeLabel::Kind::kProduction ||
        successor.production != branch.production) {
      return false;
    }
    const int ip = branch.position;
    const int jp = successor.position;
    if (ip > jp) return false;  // branch after the successor: Z empty
    std::optional<BoolMatrix> z = view_->Z(successor.production, ip, jp);
    if (!z.has_value()) return false;
    std::optional<BoolMatrix> o =
        Chain(PortSide::kOutputs, l1, cp + 2, z->rows());
    std::optional<BoolMatrix> walk =
        view_->Walk(PortSide::kInputs, s, t + i, j - i);
    if (!o.has_value() || !walk.has_value()) return false;
    std::optional<BoolMatrix> in =
        Chain(PortSide::kInputs, l2, cp + 1, walk->cols());
    if (!in.has_value()) return false;
    return o->Transpose()
        .Multiply(*z)
        .Multiply(*walk)
        .Multiply(*in)
        .Get(x, y);
  }

  // i > j: d1 under the deeper iteration i, d2 under iteration j. Data flows
  // outward through the enclosing iterations' outputs down to M_{j+1}, then
  // from the successor into d2's branch.
  if (cp + 1 == l2.size()) return false;  // i2 is a port of M_j itself
  const EdgeLabel& branch = l2[cp + 1];
  PgEdge successor = pg.CycleEdgeAt(s, t + j - 1);
  if (branch.kind != EdgeLabel::Kind::kProduction ||
      successor.production != branch.production) {
    return false;
  }
  const int up = branch.position;
  const int succ = successor.position;
  if (succ > up) return false;  // branch before the successor: Z empty
  std::optional<BoolMatrix> z = view_->Z(successor.production, succ, up);
  if (!z.has_value()) return false;
  std::optional<BoolMatrix> walk =
      view_->Walk(PortSide::kOutputs, s, t + j, i - j);
  if (!walk.has_value()) return false;
  std::optional<BoolMatrix> o =
      Chain(PortSide::kOutputs, l1, cp + 1, walk->cols());
  std::optional<BoolMatrix> in =
      Chain(PortSide::kInputs, l2, cp + 2, z->cols());
  if (!o.has_value() || !in.has_value()) return false;
  return walk->Multiply(*o).Transpose().Multiply(*z).Multiply(*in).Get(x, y);
}

MatrixFreeDecoder::MatrixFreeDecoder(const ProductionGraph* pg,
                                     const ViewLabel* view)
    : pg_(pg), view_(view) {
  const Grammar& g = pg->grammar();
  members_.resize(g.num_productions());
  reach_bits_.resize(g.num_productions());
  for (ProductionId k = 0; k < g.num_productions(); ++k) {
    if (!view->ProductionActive(k)) continue;
    const SimpleWorkflow& w = g.production(k).rhs;
    const int n = w.num_members();
    members_[k] = n;
    // Member-level reflexive reachability through data edges.
    std::vector<bool> bits(static_cast<size_t>(n) * n, false);
    for (int m = 0; m < n; ++m) bits[m * n + m] = true;
    // Members are topologically ordered; sweep edges in order.
    for (int j = 0; j < n; ++j) {
      for (const DataEdge& e : w.edges) {
        if (e.dst.member != j) continue;
        for (int i = 0; i < n; ++i) {
          if (bits[i * n + e.src.member]) bits[i * n + j] = true;
        }
      }
    }
    reach_bits_[k] = std::move(bits);
  }
}

int64_t MatrixFreeDecoder::SizeBits() const {
  int64_t bits = 0;
  for (const auto& per_production : reach_bits_) {
    bits += static_cast<int64_t>(per_production.size());
  }
  return bits;
}

bool MatrixFreeDecoder::Depends(const DataLabel& d1, const DataLabel& d2) const {
  // Boundary cases mirror Algorithm 2 under complete dependencies.
  if (!d1.consumer.has_value() || !d2.producer.has_value()) return false;
  // Identical labels mean the same intermediate item, which reaches itself
  // through its own data edge; module-level reachability (port-blind) would
  // miss this, so it is checked on the full labels.
  if (d1 == d2) return true;
  if (!d1.producer.has_value()) return true;  // initial inputs reach everything
  if (!d2.consumer.has_value()) return true;  // everything reaches final outputs

  // Under black-box dependencies, d2 depends on d1 iff the module consuming
  // d1 reaches the module producing d2 (reflexively) at the module level.
  const std::vector<EdgeLabel>& l1 = d1.consumer->path;
  const std::vector<EdgeLabel>& l2 = d2.producer->path;

  size_t cp = 0;
  while (cp < l1.size() && cp < l2.size() && l1[cp] == l2[cp]) ++cp;
  // Equal or ancestor either way: data entering a composite reaches all of
  // its expansion (single source), and every inner module reaches the
  // composite's outputs (single sink).
  if (cp == l1.size() || cp == l2.size()) return true;

  // Labels of two runs can fork at edges of different kinds or productions
  // (a recursion edge carries production -1); the answer is false then.
  const EdgeLabel& e1 = l1[cp];
  const EdgeLabel& e2 = l2[cp];
  if (e1.kind != e2.kind) return false;

  if (e1.kind == EdgeLabel::Kind::kProduction) {
    const int i = e1.position;
    const int j = e2.position;
    return e1.production == e2.production && i < j &&
           MemberReaches(e1.production, i, j);
  }

  const int s = e1.cycle;
  const int t = e1.start;
  const int i = e1.iteration;
  const int j = e2.iteration;
  if (i < j) {
    // d1's consumer branch must reach the successor member at iteration i;
    // descents into deeper iterations are then free.
    if (cp + 1 == l1.size()) return true;  // consumer is M_i itself
    const EdgeLabel& branch = l1[cp + 1];
    PgEdge successor = view_->production_graph().CycleEdgeAt(s, t + i - 1);
    return branch.production == successor.production &&
           branch.position < successor.position &&
           MemberReaches(successor.production, branch.position,
                         successor.position);
  }
  if (i > j) {
    // Exits are free (single sink); the successor at iteration j must reach
    // d2's producer branch.
    if (cp + 1 == l2.size()) return true;  // producer is M_j itself
    const EdgeLabel& branch = l2[cp + 1];
    PgEdge successor = view_->production_graph().CycleEdgeAt(s, t + j - 1);
    return branch.production == successor.production &&
           successor.position < branch.position &&
           MemberReaches(successor.production, successor.position,
                         branch.position);
  }
  return true;  // i == j cannot occur (paths fork)
}

}  // namespace fvl
