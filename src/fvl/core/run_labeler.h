// Dynamic data labeling φr (§4.2): assigns every data item its label the
// moment it is produced, using only the compressed parse tree built so far.
// Labels are immutable once assigned (Def. 10) — the labeler never revisits
// an item.
//
// Labels are stored encoded, in a live single-group LabelStore: each label
// is appended to the shared bit arena when its item appears, so a labeled
// run costs arena bits (tens of bits per item), not DataLabel structs, and
// freezing a snapshot (ProvenanceIndex(labeler.store())) copies the arena
// instead of re-encoding every label. Label(item) decodes on demand.

#ifndef FVL_CORE_RUN_LABELER_H_
#define FVL_CORE_RUN_LABELER_H_

#include "fvl/core/data_label.h"
#include "fvl/core/label_store.h"
#include "fvl/core/parse_tree.h"
#include "fvl/run/run.h"

namespace fvl {

class RunLabeler {
 public:
  RunLabeler(const Grammar* grammar, const ProductionGraph* pg);

  // Event hooks, mirroring CompressedParseTree.
  void OnStart(const Run& run);
  void OnApply(const Run& run, const DerivationStep& step);

  int num_labels() const { return store_.total_items(); }
  // Decoded on demand from the store (a few hundred ns per call).
  DataLabel Label(int item) const { return store_.DecodeLabel(item); }
  const CompressedParseTree& tree() const { return tree_; }

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
  CompressedParseTree tree_;
  LabelStore store_;
  // OnApply's label, both sides always present: each item's paths are
  // copied into storage this label already has, not into a fresh one.
  DataLabel label_{PortLabel{}, PortLabel{}};
};

// Convenience: derive nothing, just label an already-derived run by
// replaying its steps (used by tests and per-view baselines).
RunLabeler LabelEntireRun(const Run& run, const ProductionGraph& pg);

}  // namespace fvl

#endif  // FVL_CORE_RUN_LABELER_H_
