#include "fvl/core/decoder.h"

namespace fvl {

namespace {

uint64_t Bit(int port) { return uint64_t{1} << port; }

bool Has(uint64_t ports, int port) { return (ports >> port) & 1; }

// The ports `ports` reach along path[from..]: down it through I factors
// (kInputs, outermost edge first), or up it through O factors (kOutputs,
// deepest edge first).
uint64_t Along(const ViewLabel& view, PortSide side,
               const std::vector<EdgeLabel>& path, size_t from,
               uint64_t ports) {
  for (size_t a = from; a < path.size() && ports != 0; ++a) {
    const EdgeLabel& edge =
        path[side == PortSide::kInputs ? a : path.size() - 1 - (a - from)];
    ports = edge.kind == EdgeLabel::Kind::kRecursion
                ? view.ReachWalk(side, edge.cycle, edge.start, edge.iteration,
                                 ports)
                : view.Reach(side, edge.production, edge.position, ports);
  }
  return ports;
}

}  // namespace

bool Decoder::Depends(const DataLabel& d1, const DataLabel& d2) const {
  // Case I: final outputs depend on everything downstream of nothing;
  // initial inputs depend on nothing.
  if (!d1.consumer.has_value() || !d2.producer.has_value()) return false;

  // Case II: initial input -> final output, answered by λ*(S).
  if (!d1.producer.has_value() && !d2.consumer.has_value()) {
    return view_->StartMatrix().Get(d1.consumer->port, d2.producer->port);
  }

  // Case III: initial input -> intermediate item, pushed down l2.
  if (!d1.producer.has_value()) {
    return Has(Along(*view_, PortSide::kInputs, d2.consumer->path, 0,
                     Bit(d1.consumer->port)),
               d2.consumer->port);
  }

  // Case IV: intermediate item -> final output, pulled up l1.
  if (!d2.consumer.has_value()) {
    return Has(Along(*view_, PortSide::kOutputs, d1.producer->path, 0,
                     Bit(d1.producer->port)),
               d2.producer->port);
  }

  // Main cases: both intermediate. l1 locates the producer port of d1 (the
  // paper's o1), l2 the consumer port of d2 (the paper's i2). Each case
  // pulls o1 up l1 to the fork, crosses it, and pushes down l2 to i2.
  const std::vector<EdgeLabel>& l1 = d1.producer->path;
  const std::vector<EdgeLabel>& l2 = d2.consumer->path;
  auto pull_o1 = [&](size_t from) {
    return Along(*view_, PortSide::kOutputs, l1, from,
                 Bit(d1.producer->port));
  };

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

  uint64_t ports = 0;  // at the fork, then pushed down l2[down..]
  size_t down = cp + 1;
  if (e1.kind == EdgeLabel::Kind::kProduction) {
    // Case 2a: fork below a module node, crossed through Z (empty for
    // i >= j).
    if (e1.production != e2.production || e1.position > e2.position) {
      return false;
    }
    ports = view_->ReachZ(e1.production, e1.position, e2.position,
                          pull_o1(cp + 1));
  } else {
    // Case 2b: fork below a recursive node, with the §4.4.2 cycle
    // bookkeeping — both the paper's i < j case and the symmetric i > j
    // case (elided in the paper). The item in the shallower iteration
    // m = min(i, j) lies in a branch of M_m's expansion, beside the
    // successor member that iteration m + 1 descends from.
    if (e1.cycle != e2.cycle || e1.start != e2.start) return false;
    const int s = e1.cycle;
    const int t = e1.start;
    const int i = e1.iteration;
    const int j = e2.iteration;
    const bool deeper_d2 = i < j;
    const std::vector<EdgeLabel>& shallow = deeper_d2 ? l1 : l2;
    if (cp + 1 == shallow.size()) return false;  // a port of M_m itself
    const EdgeLabel& branch = shallow[cp + 1];
    PgEdge successor = view_->production_graph().CycleEdgeAt(
        s, t + (deeper_d2 ? i : j) - 1);
    if (branch.kind != EdgeLabel::Kind::kProduction ||
        successor.production != branch.production) {
      return false;
    }
    // Z runs from d1's side of the fork to d2's; it is empty backwards.
    const int from = deeper_d2 ? branch.position : successor.position;
    const int to = deeper_d2 ? successor.position : branch.position;
    if (from > to) return false;
    if (deeper_d2) {
      // Leave d1's branch into the successor M_{i+1}, then walk the cycle
      // down to M_j.
      ports = view_->ReachZ(successor.production, from, to, pull_o1(cp + 2));
      ports = view_->ReachWalk(PortSide::kInputs, s, t + i, j - i, ports);
    } else {
      // Walk out through the enclosing iterations' outputs up to M_{j+1},
      // then cross from the successor into d2's branch.
      ports = view_->ReachWalk(PortSide::kOutputs, s, t + j, i - j,
                               pull_o1(cp + 1));
      ports = view_->ReachZ(successor.production, from, to, ports);
      down = cp + 2;
    }
  }
  return Has(Along(*view_, PortSide::kInputs, l2, down, ports),
             d2.consumer->port);
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
