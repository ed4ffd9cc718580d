// Shared-arena label storage — the one representation behind every place
// the library keeps encoded data labels (in the spirit of poplar-trie's
// grouped compact label stores; see SNIPPETS.md §2–3).
//
// Layout (v2 — "compact label store"): instead of one fixed-width offset
// per label (v1's `int64` table, ~20 bits of pure overhead per label in
// the paper's compact-label regime), a store keeps two bit streams plus a
// small skip table:
//
//   meta_   per item, in flat-id order: the label's encoded length as an
//           Elias-gamma code, immediately followed by the encoded label
//           itself when it is short (length <= the codec-derived inline
//           threshold) — short labels cost ~their content, exactly the
//           poplar-trie inlining idiom;
//   arena_  the encoded payloads of the remaining (long) labels, in the
//           same flat-id order;
//   skips_  {first_item, meta_start, arena_start} checkpoints every
//           kSkipInterval items (plus one at every bulk-append seam), so
//           locating an arbitrary flat id is one binary search plus a
//           bounded forward scan — O(1)-ish group-local rank.
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
// fixed-width per-item deltas + inline payloads, then the long-label
// arena), so the serialized tail is a pure function of the logical label
// sequence — independent of how the store was assembled. That is what
// keeps FromDeltas reassembly bit-identical to a monolithic snapshot.
//
// Span access is zero-copy: SpanReader returns a BitReader over whichever
// stream holds the label. Batch decode loops (DependsMany /
// VisibilitySweep) should walk a SpanCursor, which amortizes the per-item
// scan to O(1) for non-decreasing ids.

#ifndef FVL_CORE_LABEL_STORE_H_
#define FVL_CORE_LABEL_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fvl/core/data_label.h"
#include "fvl/util/bitstream.h"
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
  // Version byte embedded in the v2 serialized tail (and implied by the
  // FVLIDX3/FVLMRG2 magics). Bump together with any layout change to
  // AppendTail/ParseTail — tools/fvl_lint.py's tail-format rule enforces
  // that a layout diff cannot land without touching this constant and the
  // golden-blob test.
  static constexpr int kTailFormatVersion = 2;
  // Serialized block granularity: AppendTail re-chunks the label sequence
  // into blocks of exactly this many labels (the last block may be short).
  static constexpr int kBlockItems = 64;
  // In-memory skip-table granularity (not serialized): bounds the forward
  // scan of a random Locate. Finer than kBlockItems because the scan reads
  // gamma codes, not fixed-width deltas.
  static constexpr int kSkipInterval = 16;

  // Labels of at most this many bits are inlined into the meta stream. A
  // pure function of the codec (so stores with equal codecs — the merge
  // precondition — always agree on placement): it admits a label whose two
  // present sides are each one production edge deep, the shape Thm. 6's
  // strictly linear-recursive sweet spot produces — presence bits, per
  // side two gamma path-length codes of a few bits, one edge, one port.
  static int InlineThresholdBits(const LabelCodec& codec) {
    return 2 + 2 * (6 + 1 + codec.production_bits + codec.position_bits +
                    codec.port_bits);
  }

  // Empty store with all-zero codec widths (the state of an empty merge);
  // use the codec constructor for anything that will hold labels.
  LabelStore() = default;
  explicit LabelStore(LabelCodec codec)
      : codec_(std::move(codec)),
        inline_threshold_(InlineThresholdBits(codec_)) {}

  const LabelCodec& codec() const { return codec_; }
  int inline_threshold_bits() const { return inline_threshold_; }

  int num_groups() const { return static_cast<int>(group_base_.size()) - 1; }
  int num_items(int group) const {
    FVL_CHECK(group >= 0 && group < num_groups());
    return static_cast<int>(group_base_[group + 1] - group_base_[group]);
  }
  // Items across all groups; bounded to int range by appenders/ParseTail.
  int total_items() const { return static_cast<int>(group_base_.back()); }
  // Total encoded label content across both streams — the sum of every
  // label's exact encoded size, excluding all storage metadata. This is
  // the `arena_bits` quantity the blob headers carry (in both format
  // versions), and the denominator-free "label bits" the paper's space
  // figures measure.
  int64_t arena_bits() const { return total_label_bits_; }
  // Labels currently inlined in the meta stream (observability for tests
  // and the space benches; not serialized state).
  int64_t inline_items() const { return inline_items_; }
  // True while the long-label arena is borrowed memory (a ParseTail with
  // borrow_arena over an mmap'ed blob) rather than an owned stream. Reads
  // are served straight from the borrowed bytes; the first mutation thaws
  // (copies) the arena, after which this returns false. Observability for
  // the mmap-serving tests and stats — not serialized state.
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
  // group (BeginGroup must have been called at least once).
  void Append(const DataLabel& label);

  // Appends every group of `other` as new groups of this store: two bulk
  // bit copies (meta + arena streams) plus integer skip-table rebasing —
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

  // Reader over exactly the bit span of one label (whichever stream holds
  // it). Costs a skip-table lookup plus a <= kSkipInterval-item scan; use
  // a SpanCursor for sequential walks.
  BitReader SpanReader(int global) const;
  // Decodes one label; spans are validated at construction/ParseTail, so
  // decode never aborts on a store obtained through the public paths.
  DataLabel DecodeLabel(int global) const;
  // Exact encoded size of one label.
  int64_t LabelBits(int global) const;

  // Stateful sequential reader: remembers its stream positions between
  // calls, so walking ids in non-decreasing order costs amortized O(1) per
  // item instead of a per-item skip-table scan. A backward jump re-seeks
  // through the skip table (correct, just not amortized). The cursor
  // borrows the store — it must not outlive it or span mutations.
  class SpanCursor {
   public:
    explicit SpanCursor(const LabelStore& store) : store_(&store) {}

    // Reader over exactly item `global`'s span.
    BitReader SpanAt(int global);
    DataLabel DecodeAt(int global);
    int64_t LabelBitsAt(int global);

   private:
    // Positions the cursor at the start of item `global`'s meta record.
    void SeekTo(int global);

    const LabelStore* store_;
    int item_ = 0;            // item the cursor is positioned at
    int64_t meta_pos_ = 0;    // bit position of item_'s gamma length
    int64_t arena_pos_ = 0;   // arena bits consumed by items [0, item_)
  };

  // --- Serialization ------------------------------------------------------
  //
  // The store serializes as the tail shared by the FVLIDX3 and FVLMRG2
  // blob formats: codec field widths, the tail-format version byte, the
  // canonical block-compressed span stream, and the long-label arena.
  // Group structure is the *header's* business (the single-run format has
  // one implicit group; the merged format writes a run table), so callers
  // pass group bases to ParseTail.

  void AppendTail(std::string* blob) const;

  // Exact size in bits of the canonical serialized span representation
  // (block headers + per-item length deltas + all label content), i.e. the
  // tail minus codec self-description and word-alignment framing — the
  // v2 analogue of v1's "arena + minimal-width offset per item" and the
  // quantity the space benches report.
  int64_t SerializedSpanBits() const;

  // Parses and validates the tail starting at *pos; on success the blob is
  // fully consumed and every label span is known to decode exactly under
  // the embedded codec. A tail whose version byte is not
  // kTailFormatVersion is kMalformedBlob. `group_base` and `arena_bits`
  // (total label content bits) come from the caller's header and must
  // already be bounded by the blob size (counts within int range, bases
  // monotone). By default the blob is only read during the call — the
  // returned store owns its words, so callers may stream borrowed buffers
  // through without copying them into std::strings. With `borrow_arena`
  // set, the long-label arena — the dominant bit range of a large store —
  // is NOT copied: the store keeps a pointer into `blob` and serves arena
  // reads from it, so the caller must keep the blob bytes alive and
  // unchanged for the store's lifetime (ProvenanceIndex::Map holds the
  // BlobSource alongside the store). The meta stream is re-encoded and
  // owned either way. Any mutation of a borrowed store first thaws the
  // arena into owned words (copy-on-thaw), after which the blob may be
  // released.
  [[nodiscard]] static Result<LabelStore> ParseTail(std::string_view blob,
                                                    size_t* pos,
                                                    std::vector<int64_t> group_base,
                                                    uint64_t arena_bits,
                                                    bool borrow_arena = false);

  // Little-endian u64 helpers shared with the format headers. ReadU64
  // tolerates any `pos`, including values near SIZE_MAX: a position that
  // does not leave 8 readable bytes returns false (no wraparound, no
  // out-of-bounds read) and leaves *pos unchanged.
  static void AppendU64(std::string* out, uint64_t value);
  static bool ReadU64(std::string_view blob, size_t* pos, uint64_t* value);

 private:
  friend class ::fvl::LabelStoreTestPeer;

  // Skip-table checkpoint: stream positions at the start of item
  // `first_item`'s meta record.
  struct Skip {
    int64_t first_item;
    int64_t meta_start;
    int64_t arena_start;
  };

  // Where one label lives: which stream, at which bit, how long.
  struct SpanLoc {
    bool is_inline;
    int64_t start;
    int64_t length;
  };
  // Skip-table lookup + bounded forward scan to item `global`.
  SpanLoc Locate(int global) const;

  // Appends a skip entry if the last one is >= kSkipInterval items old.
  // Call immediately before appending a span.
  void MaybePushSkip();
  // Shared span-append core of Append and the parse paths: writes the
  // gamma length, copies `length` payload bits from `payload` into the
  // meta stream (inline) or the arena (long), and updates every counter.
  // Does not touch group bookkeeping. `payload` must have >= length bits
  // remaining (parse paths check before calling).
  void AppendSpan(BitReader* payload, int64_t length);
  // Accounting-only variant for the borrowed-arena parse: a long label
  // whose payload already sits in the borrowed bytes — writes the gamma
  // length and advances every counter, copies nothing.
  void AppendSpanBorrowed(int64_t length);

  // Long-label arena size, whichever memory holds it.
  int64_t arena_size_bits() const {
    return arena_borrowed() ? borrowed_arena_bits_ : arena_.size_bits();
  }
  // Reader over the bit range [start_bit, end_bit) of the long-label
  // arena, borrowed or owned.
  BitReader ArenaReader(int64_t start_bit, int64_t end_bit) const {
    if (arena_borrowed()) return BitReader(borrowed_arena_, start_bit, end_bit);
    return BitReader(&arena_.words(), start_bit, end_bit);
  }
  // Copy-on-thaw: materializes a borrowed arena into owned words. Called
  // by every mutator, so append paths never write through (or next to)
  // borrowed memory; no-op for owned stores.
  void ThawArena();

  // Shared bulk-append core: coverage check, two stream bit copies, skip
  // rebasing. Group bookkeeping is the callers' business.
  [[nodiscard]] Status AppendArena(const LabelStore& other);

  // Walks the label lengths and invokes fn(block_first_item, count,
  // base_len, delta_width) for every canonical kBlockItems chunk — the one
  // chunking used by AppendTail and SerializedSpanBits.
  template <typename Fn>
  void ForEachCanonicalBlock(Fn&& fn) const;

  LabelCodec codec_;
  int inline_threshold_ = InlineThresholdBits(codec_);
  std::vector<int64_t> group_base_{0};  // size num_groups + 1; [0] = 0
  std::vector<Skip> skips_{{0, 0, 0}};  // sorted by first_item; [0] = origin
  BitWriter meta_;   // per item: gamma(length) [+ inline payload]
  BitWriter arena_;  // payloads of long labels, in item order (owned mode)
  // Borrowed-arena mode (ParseTail with borrow_arena): long-label payloads
  // live in these caller-owned bytes — the serialized arena words inside a
  // mapped blob — and arena_ stays empty until ThawArena. The range is
  // unaligned; readers assemble words byte-wise (BitReader byte mode).
  const uint8_t* borrowed_arena_ = nullptr;
  int64_t borrowed_arena_bits_ = 0;
  int64_t num_spans_ = 0;         // spans appended (== total_items() when
                                  //   group bookkeeping is complete)
  int64_t total_label_bits_ = 0;  // sum of all label lengths
  int64_t inline_items_ = 0;      // labels living in the meta stream
  // Stream bits accounted for by appended spans. Always equal to the
  // stream sizes for stores built through the public paths; AppendArena
  // checks the equality so a hand-assembled or corrupted store surfaces
  // recoverably instead of grafting uncovered bits onto the next span.
  int64_t meta_covered_bits_ = 0;
  int64_t arena_covered_bits_ = 0;
  // ExtractDelta freeze point (not serialized).
  int watermark_items_ = 0;
  int64_t watermark_meta_bits_ = 0;
  int64_t watermark_arena_bits_ = 0;
  int64_t watermark_label_bits_ = 0;
  int64_t watermark_inline_items_ = 0;
  internal::StoreCountProbe probe_;
};

}  // namespace fvl

#endif  // FVL_CORE_LABEL_STORE_H_
