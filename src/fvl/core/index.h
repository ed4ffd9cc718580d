// Persistent provenance index: the downstream-adoption layer around the
// labeling scheme.
//
// The index is a thin, immutable wrapper over a frozen fvl::LabelStore
// (core/label_store.h) — one contiguous bit arena plus grouped offsets,
// one group per run. A snapshot wraps a copy of a labeled run's live store
// (ProvenanceSession::Snapshot, or ProvenanceIndex(labeler.store())); the
// resulting ProvenanceIndex is a position-independent blob that can be
// serialized, mapped back, and queried without the Run or the labeler:
//
//   ProvenanceIndex index = session->Snapshot();
//   std::string blob = index.Serialize();
//   ProvenanceIndex restored = ProvenanceIndex::Deserialize(blob).value();
//   Decoder pi(&view_label);
//   pi.Depends(restored.Label(d1), restored.Label(d2));
//
// The blob is self-describing: the codec's field widths travel in the
// header, so deserialization needs no grammar or external LabelCodec.
//
// Labels decode on demand (queries pay one decode per side, a few hundred
// ns); Label(i) never caches. ProvenanceService::DependsMany decodes
// through the index's serving cache instead, so a hot item decodes once
// per snapshot.

#ifndef FVL_CORE_INDEX_H_
#define FVL_CORE_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fvl/core/label_store.h"
#include "fvl/core/serving_cache.h"
#include "fvl/util/blob_source.h"
#include "fvl/util/check.h"
#include "fvl/util/status.h"

namespace fvl {

// Provenance of N >= 0 runs of one specification, frozen into a single
// position-independent artifact: a LabelStore with one group per run. A
// snapshot is the one-run case (N = 1); Merge and CompactStream combine
// indexes into many-run ones. Items are addressed by flat id (the run's
// group base + local item, in arena order — for one run the flat id *is*
// the item id; GlobalId maps a (run, item) pair to it), so cross-run batch
// sweeps walk one contiguous arena. Copies share the frozen contents and
// one serving cache.
class ProvenanceIndex {
 public:
  ProvenanceIndex() = default;  // zero runs, zero items
  // Wraps a frozen store (a labeler's live store copied at snapshot time, a
  // merge, or a deserialized blob).
  explicit ProvenanceIndex(LabelStore store)
      : store_(std::move(store)),
        cache_(store_.total_items() > 0
                   ? std::make_shared<ServingCache>(store_.total_items())
                   : nullptr) {}

  int num_runs() const { return store_.num_groups(); }
  int num_items(int run) const { return store_.num_items(run); }
  // Items across all runs; bounded to int range by every producer.
  int total_items() const { return store_.total_items(); }
  // Same count, the spelling single-run callers use.
  int num_items() const { return total_items(); }
  // The codec the labels are encoded with (all-zero widths for zero runs);
  // consumers can compare it against their grammar's codec before decoding
  // (ProvenanceService does).
  const LabelCodec& codec() const { return store_.codec(); }
  // The underlying frozen store (zero-copy span access for batch decode).
  const LabelStore& store() const { return store_; }
  // Total index size in bits: the canonical span representation, plus a
  // per-run base table at minimal width when there is more than one run.
  int64_t SizeBits() const;

  // Flat id of (run, item) in arena order.
  int GlobalId(int run, int item) const { return store_.GlobalId(run, item); }
  // Inverse direction: the run a flat id belongs to. Queries use this to
  // keep run boundaries meaningful — items of different runs never depend
  // on each other (separate executions share no data flow), and the
  // decoding predicate is only defined over labels of one parse tree.
  int RunOf(int global) const { return store_.GroupOf(global); }

  // Decodes the label of one item, by flat id.
  DataLabel Label(int global) const { return store_.DecodeLabel(global); }
  // Exact encoded size of one item's label.
  int64_t LabelBits(int global) const { return store_.LabelBits(global); }

  // The snapshot-lifetime serving cache (core/serving_cache.h): decoded
  // labels by flat id plus the admission record, shared by copies of this
  // index and freed with the last one (invalidation is the destructor);
  // null only for an index without items. The store is frozen, so entries
  // never go stale. ProvenanceIndex(index.store()) is a fresh index over
  // the same store with a cold, unadmitted cache.
  ServingCache* serving_cache() const { return cache_.get(); }

  // Stable little-endian binary format, self-describing (codec widths in
  // the header), so Deserialize needs only the blob. The header follows
  // the run count: exactly one run writes FVLIDX3 (item count, arena
  // bits), any other count writes FVLMRG2 (run count, item count, arena
  // bits, per-run item counts). Both share the store's tail.
  std::string Serialize() const;
  // Parses either format. Fails with kMalformedBlob on any parse error,
  // including blobs whose label spans do not decode exactly under the
  // embedded codec — a returned index never aborts in its accessors. The
  // blob is only read during the call (the index owns its storage), so
  // borrowed buffers can be streamed through without copying.
  [[nodiscard]] static Result<ProvenanceIndex> Deserialize(std::string_view blob);

  // Serves the index straight out of an archive file of either format:
  // opens and mmaps `path`, validates it exactly as Deserialize would, and
  // returns an index whose label arena still lives in the mapping — zero
  // arena copy (store().arena_borrowed() is true for any index with
  // labels). The store keeps the mapping alive (copies of the index
  // or of its store share it; the file unmaps with the last one), so the
  // returned value is self-contained. kIo/kMapFailed for file-level
  // failures, kMalformedBlob for content ones.
  [[nodiscard]] static Result<ProvenanceIndex> Map(const std::string& path);

  // Reassembles incremental snapshots (ProvenanceSession::SnapshotDelta)
  // into the index one full Snapshot() would have produced at the same
  // point — bit-identical, serialization included (golden test in
  // tests/merge_test.cc). Deltas must be single-run indexes passed in
  // freeze order and share one codec; a codec mismatch, a delta of any
  // other run count, an empty span (no codec to infer), an item-count
  // overflow, or an internally inconsistent delta store is
  // kInvalidArgument.
  [[nodiscard]] static Result<ProvenanceIndex> FromDeltas(
      std::span<const ProvenanceIndex> deltas);

  // Combines indexes of the *same* specification into one queryable
  // artifact through a CompactStream: every run of every input, in order,
  // becomes a run of the result — a grouped append into one shared arena,
  // and no label is re-encoded. Inputs whose codecs disagree (i.e. indexes
  // of structurally different grammars) are rejected with
  // kInvalidArgument; an empty span yields an empty index rather than an
  // error.
  [[nodiscard]] static Result<ProvenanceIndex> Merge(
      std::span<const ProvenanceIndex> runs);

 private:
  friend class CompactStream;  // parses mapped inputs in place

  // Deserialize/Map core; `source` is ParseTail's (the mapping `blob` lies
  // in, or null for an in-memory blob).
  [[nodiscard]] static Result<ProvenanceIndex> Parse(std::string_view blob,
                                                     const BlobSource* source);

  LabelStore store_;
  // Shared (not deep-copied) by index copies: every copy wraps the same
  // frozen contents, so they legitimately pool one cache.
  std::shared_ptr<ServingCache> cache_;
};

// The name multi-run callers used before the index types were unified.
using MergedProvenanceIndex = ProvenanceIndex;

// Memory-bounded k-way merge, the one builder behind ProvenanceIndex::Merge,
// ProvenanceService::MergeRunsStreamed and CompactFiles, and the server's
// kMergeRuns: folds indexes of any run count — in memory, or serialized
// as FVLIDX3/FVLMRG2 — into one, appending each input's runs in stored
// order with one bulk bit copy per input, never flattening them back into
// per-run blobs. This is the LSM-style maintenance step of the on-disk
// tier too, where L0 run files and earlier compaction outputs collapse
// into a new archive. A serialized input is parsed on its own and
// destroyed before Append returns, so merging N blobs peaks at
// O(largest input + output) memory instead of O(sum of inputs) (asserted
// against internal::StoreCountProbe in tests/merge_test.cc and
// tests/disk_tier_test.cc), and the BlobSource overload reads a mapped
// input's arena in place, so its payload bits are never copied into the
// temporary at all. The output is bit-identical to a from-scratch Merge of
// the flattened run sequence (AppendTail is canonical whatever the
// grouping history).
//
//   CompactStream stream;
//   for (const BlobSource& source : sources) {
//     if (Status status = stream.Append(source); !status.ok()) return status;
//   }
//   ProvenanceIndex compacted = std::move(stream).Finish().value();
class CompactStream {
 public:
  CompactStream() = default;

  // Appends every run of one index in its stored order. An input without
  // runs contributes nothing (and pins no codec). kInvalidArgument on a
  // codec mismatch with earlier inputs or item-count overflow. On error
  // the stream is unchanged and may keep appending other inputs.
  [[nodiscard]] Status Append(const ProvenanceIndex& index);

  // Same, for one serialized index of either format; kMalformedBlob if the
  // blob does not parse (an unrecognized magic included).
  [[nodiscard]] Status Append(std::string_view blob);

  // Same, for one mapped archive: the input's label arena is read in place
  // and its pages are released (DontNeed) once appended — the streaming
  // path the service-level compaction uses.
  [[nodiscard]] Status Append(const BlobSource& source);

  // Runs / items appended so far, across all inputs.
  int num_runs() const { return store_.num_groups(); }
  int total_items() const { return store_.total_items(); }
  // The shared codec every appended run is pinned to (that of the first
  // input appended with runs; an input that fails to append pins
  // nothing); all-zero widths before that. Lets callers vet a batch
  // against their own grammar after its first input instead of after the
  // full merge (ProvenanceService::MergeRunsStreamed fails fast on it).
  const LabelCodec& codec() const { return store_.codec(); }

  // Freezes the appended runs (an empty stream yields an empty index); the
  // stream is consumed.
  [[nodiscard]] Result<ProvenanceIndex> Finish() &&;

 private:
  size_t inputs_ = 0;  // inputs appended (for error attribution)
  LabelStore store_;
};

}  // namespace fvl

#endif  // FVL_CORE_INDEX_H_
