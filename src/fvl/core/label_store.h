// Shared-arena label storage — the one representation behind every place
// the library keeps encoded data labels (in the spirit of poplar-trie's
// grouped compact label stores; see SNIPPETS.md §2–3).
//
// Layout (tail format v3): instead of one fixed-width offset per label
// (v1's `int64` table, ~20 bits of pure overhead per label in the paper's
// compact-label regime), a store keeps two bit streams plus a small skip
// table:
//
//   meta_   per item, in flat-id order: the label's encoded length as an
//           Elias-gamma code, and nothing else;
//   arena_  every label's encoded payload, in the same flat-id order;
//   skips_  {first_item, meta_start, arena_start} checkpoints at most
//           kSkipInterval items apart (plus one at every bulk-append
//           seam), so locating an arbitrary flat id is one binary search
//           plus a forward scan of at most kSkipInterval gamma codes.
//
// Both streams are position-independent (gamma codes and payloads carry no
// absolute offsets), which is what keeps the bulk lifecycle ops bulk:
//
//   * live sessions append labels as items are created (RunLabeler);
//   * snapshots freeze the store by copying it — no re-encode
//     (ProvenanceIndex is a frozen store of one group per run); the streams
//     are append-only, so the labels added since the last freeze are one
//     contiguous range of each stream and ExtractDelta freezes
//     *incrementally* in O(delta) (the §2.3 mid-run checkpointing path);
//   * multi-run merging appends whole stores group-by-group with two bulk
//     bit copies and per-skip integer fixups — no label is re-encoded or
//     even re-delimited (CompactStream stays memory-bounded);
//   * both the FVLIDX3 and FVLMRG2 blob formats share the store's
//     serialized tail and its hardened ParseTail. Every parse
//     bounds-checks every field and verifies that every span decodes under
//     the embedded codec before a store is returned — accessors of a
//     parsed store never abort.
//
// Serialization is *canonical*: AppendTail re-chunks the length sequence
// into fixed blocks of kBlockItems labels (vbyte block-minimum length +
// fixed-width per-item deltas), then writes the arena, so the serialized
// tail is a pure function of the logical label sequence — independent of
// how the store was assembled. That is what keeps FromDeltas reassembly
// bit-identical to a monolithic snapshot.
//
// Span access is zero-copy, and one walker finds every label: SpanCursor
// returns a BitReader over the label's arena bits. DecodeLabel and
// LabelBits run a fresh cursor (one skip-table seek); batch decode loops
// (DependsMany / VisibilitySweep) keep one cursor, which amortizes the
// per-item scan to O(1) for non-decreasing ids, and decode into storage
// they reuse, so a walk allocates nothing per label.

#ifndef FVL_CORE_LABEL_STORE_H_
#define FVL_CORE_LABEL_STORE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "fvl/core/data_label.h"
#include "fvl/util/bitstream.h"
#include "fvl/util/blob_source.h"
#include "fvl/util/check.h"
#include "fvl/util/status.h"

namespace fvl {

class LabelStoreTestPeer;

namespace internal {

// Process-wide census of live LabelStore instances (relaxed atomics; a
// member of every store, so construction, copies, and destruction are all
// counted — moved-from stores still exist and still count). CompactStream's
// memory-boundedness contract — at most one deserialized input store alive
// at a time on top of the output — is asserted against this probe by
// tests/merge_test.cc and reported by bench_merge_query as a peak-RSS
// proxy.
class StoreCountProbe {
 public:
  StoreCountProbe() { Add(1); }
  StoreCountProbe(const StoreCountProbe&) { Add(1); }
  StoreCountProbe& operator=(const StoreCountProbe&) = default;
  ~StoreCountProbe() { Add(-1); }

  // Stores alive right now.
  static int live();
  // High-water mark of live() since the last ResetPeak.
  static int peak();
  static void ResetPeak();

 private:
  static void Add(int delta);
};

}  // namespace internal

class LabelStore {
 public:
  // Version byte embedded in the serialized tail; the parser dispatches on
  // it, not on the FVLIDX3/FVLMRG2 magics. Bump together with any layout
  // change to AppendTail/ParseTail — tools/fvl_lint.py's tail-format rule
  // enforces that a layout diff cannot land without touching this
  // constant, the golden-blob test and docs/MIGRATION.md.
  static constexpr int kTailFormatVersion = 3;
  // Serialized block granularity: AppendTail re-chunks the label sequence
  // into blocks of exactly this many labels (the last block may be short).
  static constexpr int kBlockItems = 64;
  // In-memory skip-table granularity (not serialized): consecutive
  // checkpoints, and the tail after the last one, are at most this many
  // items apart, which bounds a cursor's scan after a skip-table seek.
  // Finer than kBlockItems because the scan reads gamma codes, not
  // fixed-width deltas.
  static constexpr int kSkipInterval = 16;

  // Empty store with all-zero codec widths (the state of an empty merge);
  // use the codec constructor for anything that will hold labels.
  LabelStore() = default;
  explicit LabelStore(LabelCodec codec) : codec_(std::move(codec)) {}

  const LabelCodec& codec() const { return codec_; }

  int num_groups() const { return static_cast<int>(group_base_.size()) - 1; }
  int num_items(int group) const {
    FVL_CHECK(group >= 0 && group < num_groups());
    return static_cast<int>(group_base_[group + 1] - group_base_[group]);
  }
  // Items across all groups; bounded to int range by appenders/ParseTail.
  int total_items() const { return static_cast<int>(group_base_.back()); }
  // Total encoded label content — the sum of every label's exact encoded
  // size, which is the arena's size, excluding all storage metadata. This
  // is the `arena_bits` quantity the blob headers carry, and the
  // denominator-free "label bits" the paper's space figures measure.
  int64_t arena_bits() const { return total_label_bits_; }
  // True when the arena is read in place from a mapped blob (a
  // ParseTail given the blob's BlobSource) rather than held in owned words.
  // The store, and every copy of it, keeps that mapping alive. A borrowed
  // store is frozen: every mutator aborts on it. Observability for the
  // mmap-serving tests and stats — not serialized state.
  bool arena_borrowed() const { return borrowed_arena_ != nullptr; }

  // Flat id of (group, item) in arena order: group_base_[group] + item.
  int GlobalId(int group, int item) const {
    FVL_CHECK(group >= 0 && group < num_groups());
    FVL_CHECK(item >= 0 && item < num_items(group));
    return static_cast<int>(group_base_[group] + item);
  }
  // Inverse direction: the group a flat id belongs to. Zero-item groups
  // (repeated bases) are skipped correctly — no flat id maps into them.
  int GroupOf(int global) const;

  // --- Append (live sessions, builders) -----------------------------------

  // Opens a new, empty group at the end; subsequent Append calls fill it.
  void BeginGroup() { group_base_.push_back(group_base_.back()); }

  // Encodes `label` at the end of the store, as the next item of the last
  // group (BeginGroup must have been called at least once). Like every
  // mutator, aborts on a store whose arena is borrowed.
  void Append(const DataLabel& label);

  // Appends every group of `other` as new groups of this store: two bulk
  // bit copies (meta + arena) plus integer skip-table rebasing —
  // no label is decoded, re-encoded, or re-delimited. Codecs must match
  // (callers report mismatches as recoverable errors before calling).
  // Fails with kInvalidArgument — and leaves this store untouched — when
  // `other`'s spans do not cover its whole streams: rebasing such a store
  // would silently graft the uncovered bits onto the next appended span
  // (live and parsed stores satisfy the invariant by construction; the
  // check guards hand-assembled or corrupted ones in release builds too).
  [[nodiscard]] Status AppendGroups(const LabelStore& other);

  // Appends every item of `other` into this store's current *last* group
  // (BeginGroup must have been called at least once) — the reassembly step
  // of incremental snapshots (ProvenanceIndex::FromDeltas). Same bulk
  // copy, codec precondition, and span-coverage error as AppendGroups.
  [[nodiscard]] Status AppendItems(const LabelStore& other);

  // --- Incremental freezes (O(delta) snapshots) ---------------------------
  //
  // The streams are append-only, so everything added since the last freeze
  // is one contiguous range at the end of each. The store tracks that
  // freeze point as a watermark: items [0, watermark_items()) have already
  // been extracted. The watermark is live-session state — it is not
  // serialized, and a parsed store starts with watermark 0.

  // Items frozen by previous ExtractDelta calls.
  int watermark_items() const { return watermark_items_; }

  // Returns a new single-group store holding exactly the labels appended
  // since the last ExtractDelta (streams rebased to start at bit 0) and
  // advances the watermark to the current end. Cost is O(delta) — one bit
  // copy of each new range — never O(total). Appending the extracted
  // deltas back together (AppendItems) reproduces this store's streams bit
  // for bit, so the canonical serialization of the reassembly matches a
  // monolithic snapshot's exactly.
  LabelStore ExtractDelta();

  // --- Span access (zero-copy) --------------------------------------------

  // Decodes one label; spans are validated at construction/ParseTail, so
  // decode never aborts on a store obtained through the public paths.
  // Runs a fresh SpanCursor: a skip-table lookup plus a <= kSkipInterval
  // item scan. Use one SpanCursor, and one reused label, for walks over
  // many ids.
  DataLabel DecodeLabel(int global) const {
    return SpanCursor(*this).DecodeAt(global);
  }
  // Exact encoded size of one label, found the same way.
  int64_t LabelBits(int global) const {
    return SpanCursor(*this).SpanAt(global).remaining();
  }

  // The one walker over the length stream: remembers its stream positions
  // between calls, so walking ids in non-decreasing order costs amortized
  // O(1) per item. A fresh cursor is unpositioned; its first seek, like
  // any backward jump, goes through the skip table. The cursor borrows the
  // store — it must not outlive it or span mutations.
  class SpanCursor {
   public:
    explicit SpanCursor(const LabelStore& store) : store_(&store) {}

    // Reader over exactly item `global`'s span.
    BitReader SpanAt(int global);
    // Decodes item `global` into `label`, reusing its storage
    // (LabelCodec::Decode): a walk that decodes into one label allocates
    // only while its paths grow.
    void DecodeAt(int global, DataLabel* label);
    DataLabel DecodeAt(int global) {
      DataLabel label;
      DecodeAt(global, &label);
      return label;
    }

   private:
    // Positions the cursor at item `global`'s gamma length, with arena_pos_
    // at its payload: every length scanned on the way adds to arena_pos_.
    void SeekTo(int global);

    const LabelStore* store_;
    // Item the cursor is positioned at; past every id until the first seek.
    int item_ = std::numeric_limits<int>::max();
    int64_t meta_pos_ = 0;    // bit position of item_'s gamma length
    int64_t arena_pos_ = 0;   // arena bits consumed by items [0, item_)
  };

  // --- Serialization ------------------------------------------------------
  //
  // The store serializes as the tail shared by the FVLIDX3 and FVLMRG2
  // blob formats: codec field widths, the tail-format version byte, the
  // canonical block-compressed length stream, and the arena.
  // Group structure is the *header's* business (the single-run format has
  // one implicit group; the merged format writes a run table), so callers
  // pass group bases to ParseTail.

  // Appends the tail, reserving its exact size first: a blob reserved for
  // its header grows once, and every field goes in as whole u64 words.
  void AppendTail(std::string* blob) const;

  // Exact size in bits of the canonical serialized span representation
  // (block headers + per-item length deltas + all label content), i.e. the
  // tail minus codec self-description and word-alignment framing — the
  // analogue of v1's "arena + minimal-width offset per item" and the
  // quantity the space benches report.
  int64_t SerializedSpanBits() const;

  // Parses and validates the tail starting at *pos; on success the blob is
  // fully consumed and every label span is known to decode exactly under
  // the embedded codec. A tail whose version byte is not
  // kTailFormatVersion is kMalformedBlob. `group_base` and `arena_bits`
  // (total label content bits) come from the caller's header and must
  // already be bounded by the blob size (counts within int range, bases
  // monotone); the tail's own stored arena size must equal `arena_bits`.
  // The arena — the dominant bit range of a large store — is validated
  // in place. With `source` (the mapping `blob` lies
  // in), it stays there: the store serves arena reads from the mapped
  // bytes and keeps a copy of `source`, so the mapping lives as long as
  // the store or any copy of it. Without one, the validated arena is
  // copied into owned words once, and the blob is only read during the
  // call. The meta stream is re-encoded and owned either way. The number
  // of heap allocations does not grow with the item count: the meta
  // stream and skip table are reserved up front, and the decode check
  // runs every label through one reused DataLabel.
  [[nodiscard]] static Result<LabelStore> ParseTail(
      std::string_view blob, size_t* pos, std::vector<int64_t> group_base,
      uint64_t arena_bits, const BlobSource* source = nullptr);

  // Little-endian u64 helpers shared with the format headers. ReadU64
  // tolerates any `pos`, including values near SIZE_MAX: a position that
  // does not leave 8 readable bytes returns false (no wraparound, no
  // out-of-bounds read) and leaves *pos unchanged.
  static void AppendU64(std::string* out, uint64_t value);
  static bool ReadU64(std::string_view blob, size_t* pos, uint64_t* value);

 private:
  friend class ::fvl::LabelStoreTestPeer;

  // Skip-table checkpoint: stream positions of item `first_item`'s gamma
  // length and of its payload.
  struct Skip {
    int64_t first_item;
    int64_t meta_start;
    int64_t arena_start;
  };

  // Appends a skip entry if the last one is >= kSkipInterval items old.
  // Call immediately before appending a span.
  void MaybePushSkip();
  // Shared span-append core of Append and ParseTail: pushes a skip entry
  // when due, writes the gamma length and advances every counter for a
  // label of `length` bits. Append then encodes the payload into arena_; a
  // parsed arena is already in place. Does not touch group bookkeeping.
  void AppendSpan(int64_t length);

  // Arena size, whichever memory holds it.
  int64_t arena_size_bits() const {
    return arena_borrowed() ? borrowed_arena_bits_ : arena_.size_bits();
  }
  // Reader over the bit range [start_bit, end_bit) of the arena, borrowed
  // or owned.
  BitReader ArenaReader(int64_t start_bit, int64_t end_bit) const {
    if (arena_borrowed()) return BitReader(borrowed_arena_, start_bit, end_bit);
    return BitReader(&arena_.words(), start_bit, end_bit);
  }
  // Shared bulk-append core: coverage check, two stream bit copies, skip
  // rebasing. Group bookkeeping is the callers' business.
  [[nodiscard]] Status AppendArena(const LabelStore& other);

  // Walks the label lengths and invokes fn(block_first_item, count,
  // base_len, delta_width) for every canonical kBlockItems chunk — the one
  // chunking used by AppendTail and SerializedSpanBits.
  template <typename Fn>
  void ForEachCanonicalBlock(Fn&& fn) const;

  LabelCodec codec_;
  std::vector<int64_t> group_base_{0};  // size num_groups + 1; [0] = 0
  std::vector<Skip> skips_{{0, 0, 0}};  // sorted by first_item; [0] = origin
  BitWriter meta_;   // per item: gamma(length)
  BitWriter arena_;  // every label's payload, in item order (owned mode)
  // Borrowed-arena mode (ParseTail with a source): the payloads live in
  // the serialized arena words inside the mapped blob, which
  // arena_source_ keeps alive, and arena_ stays empty. The range is
  // unaligned; readers load words unaligned (BitReader byte mode).
  const uint8_t* borrowed_arena_ = nullptr;
  int64_t borrowed_arena_bits_ = 0;
  BlobSource arena_source_;
  int64_t num_spans_ = 0;         // spans appended (== total_items() when
                                  //   group bookkeeping is complete)
  // Stream bits accounted for by appended spans: the gamma codes in meta_,
  // and the sum of all label lengths in the arena. Always equal to the
  // stream sizes for stores built through the public paths; AppendArena
  // checks the equality so a hand-assembled or corrupted store surfaces
  // recoverably instead of grafting uncovered bits onto the next span.
  int64_t meta_covered_bits_ = 0;
  int64_t total_label_bits_ = 0;
  // ExtractDelta freeze point (not serialized).
  int watermark_items_ = 0;
  int64_t watermark_meta_bits_ = 0;
  int64_t watermark_arena_bits_ = 0;
  internal::StoreCountProbe probe_;
};

}  // namespace fvl

#endif  // FVL_CORE_LABEL_STORE_H_
