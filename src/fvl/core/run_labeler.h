// Dynamic data labeling φr (§4.2): assigns every data item its label the
// moment it is produced. Labels are immutable once assigned (Def. 10) — the
// labeler never revisits an item.
//
// A label's paths are root paths of the compressed parse tree (Defs.
// 17–18): one edge label per production application, except that the
// members of an unfolded cycle of P(G) become the numbered children of one
// recursive node, so the depth stays within 2·|Δ| (Lemma 4). The tree
// itself is never built. A new item's paths are those of the step's new
// children, and a child's path is the expanded instance's path (or its
// recursive parent's) plus at most two edges. So the labeler keeps the
// root path of each unexpanded composite instance — the frontier — and
// drops an instance's path once the instance is expanded.
//
// Labels are stored encoded, in a live single-group LabelStore: each label
// is appended to the shared bit arena when its item appears, so a labeled
// run costs arena bits (tens of bits per item), not DataLabel structs, and
// freezing a snapshot (ProvenanceIndex(labeler.store())) copies the arena
// instead of re-encoding every label. Label(item) decodes on demand.
//
// Only strictly linear-recursive grammars are supported (Thm. 8's premise).

#ifndef FVL_CORE_RUN_LABELER_H_
#define FVL_CORE_RUN_LABELER_H_

#include <vector>

#include "fvl/core/data_label.h"
#include "fvl/core/label_store.h"
#include "fvl/run/run.h"

namespace fvl {

class RunLabeler {
 public:
  RunLabeler(const Grammar* grammar, const ProductionGraph* pg);

  // Must be called once, before any OnApply, with a fresh run.
  void OnStart(const Run& run);
  // Must be called after each Run::Apply, in order. Reads only the step:
  // the production's data edges give the new items' endpoints.
  void OnApply(const Run& run, const DerivationStep& step);

  int num_labels() const { return store_.total_items(); }
  // Decoded on demand from the store (a few hundred ns per call).
  DataLabel Label(int item) const { return store_.DecodeLabel(item); }
  // The longest root path given to an instance so far, in edges; at most
  // 2|Δ| (Lemma 4).
  int max_depth() const { return max_depth_; }

  // The live label store behind this run (one group, append-only).
  const LabelStore& store() const { return store_; }

  // --- Incremental freezes (O(delta) checkpointing, §2.3) -----------------

  // Items already extracted by FreezeDelta — the freeze watermark.
  int frozen_items() const { return store_.watermark_items(); }
  // Extracts the labels appended since the last FreezeDelta as a fresh
  // single-group store and advances the watermark: one bit copy of the new
  // arena range, O(delta) where a full snapshot copy is O(run).
  LabelStore FreezeDelta() { return store_.ExtractDelta(); }

  // Exact encoded size of an item's label, in bits.
  int64_t LabelBits(int item) const { return store_.LabelBits(item); }
  const LabelCodec& codec() const { return store_.codec(); }

 private:
  // A new child's root path: the first `prefix` edges of the expanded
  // instance's path, then `tail`.
  struct ChildPath {
    int prefix = 0;
    int tail_size = 0;
    EdgeLabel tail[2];
  };

  // Gives `instance` a frontier slot holding `child`, read against the
  // path in slot `parent`.
  void AddToFrontier(int instance, int parent, const ChildPath& child);
  // Overwrites side->path with `child` (no allocation once it has grown).
  void SetPath(int parent, const ChildPath& child, PortLabel* side) const;

  const Grammar* grammar_;
  const ProductionGraph* pg_;
  LabelStore store_;
  // Lemma 4's bound 2|Δ|: every slot holds this many edges.
  int stride_ = 0;
  // Slot s holds a frontier instance's root path: depth_[s] edges from
  // paths_[s * stride_]. Freed slots are reused.
  std::vector<EdgeLabel> paths_;
  std::vector<int> depth_;
  std::vector<int> free_slots_;
  // Per instance: its slot while it is on the frontier, else -1.
  std::vector<int> slot_of_;
  // OnApply's scratch: the step's children's paths, by member position.
  std::vector<ChildPath> children_;
  int max_depth_ = 0;
  // OnApply's label, both sides always present: each item's paths are
  // copied into storage this label already has, not into a fresh one.
  DataLabel label_{PortLabel{}, PortLabel{}};
};

// Convenience: derive nothing, just label an already-derived run by
// replaying its steps (used by tests and per-view baselines).
RunLabeler LabelEntireRun(const Run& run, const ProductionGraph& pg);

}  // namespace fvl

#endif  // FVL_CORE_RUN_LABELER_H_
