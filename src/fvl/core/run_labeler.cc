#include "fvl/core/run_labeler.h"

#include <algorithm>

#include "fvl/util/check.h"

namespace fvl {

RunLabeler::RunLabeler(const Grammar* grammar, const ProductionGraph* pg)
    : grammar_(grammar), pg_(pg), store_(LabelCodec(*pg)) {
  FVL_CHECK(pg_->strictly_linear() &&
            "frontier paths require a strictly linear-recursive grammar");
  for (ModuleId m = 0; m < grammar_->num_modules(); ++m) {
    stride_ += 2 * grammar_->is_composite(m);
  }
  store_.BeginGroup();
}

void RunLabeler::AddToFrontier(int instance, int parent,
                               const ChildPath& child) {
  const int depth = child.prefix + child.tail_size;
  FVL_CHECK(depth <= stride_ && "a root path longer than 2|Δ| (Lemma 4)");
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<int>(depth_.size()));
    depth_.push_back(0);
    paths_.resize(paths_.size() + stride_);
  }
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  // `parent` is a live slot, so it is never the one just taken.
  auto slot_begin = [&](int s) {
    return paths_.begin() + static_cast<ptrdiff_t>(s) * stride_;
  };
  auto out = slot_begin(slot);
  if (child.prefix > 0) {
    out = std::copy_n(slot_begin(parent), child.prefix, out);
  }
  std::copy_n(child.tail, child.tail_size, out);
  depth_[slot] = depth;
  if (static_cast<int>(slot_of_.size()) <= instance) {
    slot_of_.resize(instance + 1, -1);
  }
  slot_of_[instance] = slot;
}

void RunLabeler::SetPath(int parent, const ChildPath& child,
                         PortLabel* side) const {
  auto from = paths_.begin() + static_cast<ptrdiff_t>(parent) * stride_;
  side->path.assign(from, from + child.prefix);
  side->path.insert(side->path.end(), child.tail,
                    child.tail + child.tail_size);
}

void RunLabeler::OnStart(const Run& run) {
  FVL_CHECK(store_.total_items() == 0 && slot_of_.empty());
  // S:1 is the root, or, when S lies on a cycle, the first child of a
  // recursive root.
  const ModuleId start = grammar_->start();
  ChildPath root;
  if (pg_->IsRecursive(start)) {
    root.tail[root.tail_size++] =
        EdgeLabel::Rec(pg_->CycleOf(start), pg_->CycleStartIndex(start), 1);
  }
  max_depth_ = root.tail_size;
  AddToFrontier(run.start_instance(), -1, root);

  // The start module's boundary items are items [0, inputs + outputs), the
  // inputs first; labeling them in that order keeps the store in item-id
  // order even when replaying an already-completed run.
  const std::vector<EdgeLabel> path(root.tail, root.tail + root.tail_size);
  for (int item : run.InputItems(run.start_instance())) {
    FVL_CHECK(item == store_.total_items());
    store_.Append(DataLabel{std::nullopt,
                            PortLabel{path, run.item(item).consumer_port}});
  }
  for (int item : run.OutputItems(run.start_instance())) {
    FVL_CHECK(item == store_.total_items());
    store_.Append(DataLabel{PortLabel{path, run.item(item).producer_port},
                            std::nullopt});
  }
}

void RunLabeler::OnApply(const Run& /*run*/, const DerivationStep& step) {
  FVL_CHECK(store_.total_items() == step.first_item);
  FVL_CHECK(step.instance >= 0 &&
            step.instance < static_cast<int>(slot_of_.size()));
  const int u = slot_of_[step.instance];
  FVL_CHECK(u >= 0 && "the expanded instance is not on the frontier");
  const int u_depth = depth_[u];
  const Production& p = grammar_->production(step.production);

  children_.clear();
  for (int pos = 0; pos < p.rhs.num_members(); ++pos) {
    const ModuleId member = p.rhs.members[pos];
    ChildPath child;
    if (!pg_->IsRecursive(member)) {
      // Case 1: a plain member, a child of u's node.
      child.prefix = u_depth;
      child.tail[child.tail_size++] = EdgeLabel::Prod(step.production, pos);
    } else if (pg_->IsRecursive(p.lhs) &&
               pg_->CycleOf(member) == pg_->CycleOf(p.lhs)) {
      // Case 2a: the member continues u's own recursion — the next sibling
      // of u under u's recursive parent node.
      FVL_CHECK(u_depth > 0);
      const EdgeLabel& u_edge =
          paths_[static_cast<size_t>(u) * stride_ + u_depth - 1];
      FVL_CHECK(u_edge.kind == EdgeLabel::Kind::kRecursion);
      child.prefix = u_depth - 1;
      child.tail[child.tail_size++] =
          EdgeLabel::Rec(u_edge.cycle, u_edge.start, u_edge.iteration + 1);
    } else {
      // Case 2b: the member starts a new recursion — a recursive node under
      // u, with the member as its first child.
      child.prefix = u_depth;
      child.tail[child.tail_size++] = EdgeLabel::Prod(step.production, pos);
      child.tail[child.tail_size++] = EdgeLabel::Rec(
          pg_->CycleOf(member), pg_->CycleStartIndex(member), 1);
    }
    max_depth_ = std::max(max_depth_, child.prefix + child.tail_size);
    children_.push_back(child);
  }

  // The step's items are the production's data edges, in order, between
  // its new children.
  FVL_CHECK(step.num_items == static_cast<int>(p.rhs.edges.size()));
  for (const DataEdge& e : p.rhs.edges) {
    SetPath(u, children_[e.src.member], &*label_.producer);
    label_.producer->port = e.src.port;
    SetPath(u, children_[e.dst.member], &*label_.consumer);
    label_.consumer->port = e.dst.port;
    store_.Append(label_);
  }

  // Composite children join the frontier; u leaves it, and its slot is
  // reused.
  for (int pos = 0; pos < p.rhs.num_members(); ++pos) {
    if (grammar_->is_composite(p.rhs.members[pos])) {
      AddToFrontier(step.first_child + pos, u, children_[pos]);
    }
  }
  slot_of_[step.instance] = -1;
  free_slots_.push_back(u);
}

RunLabeler LabelEntireRun(const Run& run, const ProductionGraph& pg) {
  RunLabeler labeler(&run.grammar(), &pg);
  labeler.OnStart(run);
  for (int s = 0; s < run.num_steps(); ++s) {
    labeler.OnApply(run, run.step(s));
  }
  return labeler;
}

}  // namespace fvl
