#include "fvl/core/label_store.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <utility>

namespace fvl {

namespace internal {

// Lock-free by design, not by accident: the probe is read from test threads
// while arenas are created/destroyed on others, so it uses relaxed atomics
// with a CAS loop for the peak instead of a mutex. `peak` is monotone
// between ResetPeak calls; concurrent Add/ResetPeak may interleave, which is
// fine — the probe is a test observability hook, not a correctness input.
// (TSan exercises this path via tests/concurrency_stress_test.cc.)
namespace {
std::atomic<int> live_stores{0};
std::atomic<int> peak_stores{0};
}  // namespace

int StoreCountProbe::live() {
  return live_stores.load(std::memory_order_relaxed);
}

int StoreCountProbe::peak() {
  return peak_stores.load(std::memory_order_relaxed);
}

void StoreCountProbe::ResetPeak() {
  peak_stores.store(live_stores.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

void StoreCountProbe::Add(int delta) {
  int now = live_stores.fetch_add(delta, std::memory_order_relaxed) + delta;
  int peak = peak_stores.load(std::memory_order_relaxed);
  while (now > peak && !peak_stores.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

}  // namespace internal

int LabelStore::GroupOf(int global) const {
  FVL_CHECK(global >= 0 && global < total_items());
  // First base strictly above `global`.
  auto it = std::upper_bound(group_base_.begin(), group_base_.end(),
                             static_cast<int64_t>(global));
  return static_cast<int>(it - group_base_.begin()) - 1;
}

void LabelStore::MaybePushSkip() {
  // The covered counters rather than the stream sizes: identical at every
  // span boundary for owned stores, and the only correct positions when
  // the arena is borrowed (arena_ is empty then — the bits live in the
  // mapped blob).
  if (num_spans_ - skips_.back().first_item >= kSkipInterval) {
    skips_.push_back({num_spans_, meta_covered_bits_, total_label_bits_});
  }
}

void LabelStore::AppendSpan(int64_t length) {
  MaybePushSkip();
  meta_.WriteGamma(static_cast<uint64_t>(length));
  meta_covered_bits_ += GammaLength(static_cast<uint64_t>(length));
  total_label_bits_ += length;
  ++num_spans_;
}

void LabelStore::Append(const DataLabel& label) {
  FVL_CHECK(num_groups() > 0);
  FVL_CHECK(!arena_borrowed());
  const int64_t start = arena_.size_bits();
  codec_.EncodeTo(label, &arena_);
  AppendSpan(arena_.size_bits() - start);
  ++group_base_.back();
}

// --- SpanCursor --------------------------------------------------------------

void LabelStore::SpanCursor::SeekTo(int global) {
  if (global < item_) {
    // First seek or backward jump: restart from the skip table.
    const std::vector<Skip>& skips = store_->skips_;
    auto it = std::upper_bound(
        skips.begin(), skips.end(), static_cast<int64_t>(global),
        [](int64_t item, const Skip& skip) { return item < skip.first_item; });
    const Skip& skip = *(it - 1);
    item_ = static_cast<int>(skip.first_item);
    meta_pos_ = skip.meta_start;
    arena_pos_ = skip.arena_start;
  }
  if (item_ == global) return;
  BitReader meta(&store_->meta_.words(), meta_pos_,
                 store_->meta_covered_bits_);
  for (; item_ < global; ++item_) {
    arena_pos_ += static_cast<int64_t>(meta.ReadGamma());
  }
  meta_pos_ = meta.position();
}

BitReader LabelStore::SpanCursor::SpanAt(int global) {
  FVL_CHECK(global >= 0 && global < store_->total_items());
  SeekTo(global);
  BitReader meta(&store_->meta_.words(), meta_pos_,
                 store_->meta_covered_bits_);
  const int64_t start = arena_pos_;
  arena_pos_ += static_cast<int64_t>(meta.ReadGamma());
  meta_pos_ = meta.position();
  ++item_;
  return store_->ArenaReader(start, arena_pos_);
}

void LabelStore::SpanCursor::DecodeAt(int global, DataLabel* label) {
  BitReader reader = SpanAt(global);
  store_->codec_.Decode(&reader, label);
  FVL_CHECK(reader.AtEnd());
}

// --- Bulk appends ------------------------------------------------------------

Status LabelStore::AppendArena(const LabelStore& other) {
  FVL_CHECK(!arena_borrowed());
  FVL_CHECK(other.codec_ == codec_);
  // Rebasing assumes the source spans cover its whole streams — true for
  // live stores by construction and enforced by ParseTail for parsed ones,
  // but a hand-assembled or corrupted store must surface recoverably, not
  // silently graft its uncovered bits onto the next appended span.
  if (other.meta_covered_bits_ != other.meta_.size_bits() ||
      other.total_label_bits_ != other.arena_size_bits()) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        "source store is inconsistent: spans cover " +
            std::to_string(other.meta_covered_bits_ +
                           other.total_label_bits_) +
            " of " +
            std::to_string(other.meta_.size_bits() +
                           other.arena_size_bits()) +
            " stream bits");
  }
  const int64_t item_base = num_spans_;
  const int64_t meta_base = meta_.size_bits();
  const int64_t arena_base = arena_.size_bits();
  BitReader meta_reader(other.meta_);
  meta_.AppendBits(&meta_reader, other.meta_.size_bits());
  // Through the source's arena reader, which serves borrowed (mapped)
  // arenas through unaligned loads — merging a file-served input never
  // materializes it.
  BitReader arena_reader = other.ArenaReader(0, other.arena_size_bits());
  arena_.AppendBits(&arena_reader, other.arena_size_bits());
  // Per-skip integer fixups — never a per-label pass. The rebased origin
  // entry doubles as the seam checkpoint, keeping scans bounded across the
  // append boundary.
  skips_.reserve(skips_.size() + other.skips_.size());
  for (const Skip& skip : other.skips_) {
    skips_.push_back({item_base + skip.first_item, meta_base + skip.meta_start,
                      arena_base + skip.arena_start});
  }
  num_spans_ += other.num_spans_;
  total_label_bits_ += other.total_label_bits_;
  meta_covered_bits_ += other.meta_covered_bits_;
  return Status::Ok();
}

Status LabelStore::AppendGroups(const LabelStore& other) {
  const int64_t item_base = group_base_.back();
  if (Status status = AppendArena(other); !status.ok()) return status;
  group_base_.reserve(group_base_.size() + other.num_groups());
  for (int group = 0; group < other.num_groups(); ++group) {
    group_base_.push_back(item_base + other.group_base_[group + 1]);
  }
  return Status::Ok();
}

Status LabelStore::AppendItems(const LabelStore& other) {
  FVL_CHECK(num_groups() > 0);
  if (Status status = AppendArena(other); !status.ok()) return status;
  group_base_.back() += other.total_items();
  return Status::Ok();
}

LabelStore LabelStore::ExtractDelta() {
  FVL_CHECK(!arena_borrowed());  // live-session state, never a parsed store
  LabelStore delta(codec_);
  delta.BeginGroup();
  BitReader meta(&meta_.words(), watermark_meta_bits_, meta_.size_bits());
  delta.meta_.AppendBits(&meta, meta.remaining());
  BitReader arena(&arena_.words(), watermark_arena_bits_, arena_.size_bits());
  delta.arena_.AppendBits(&arena, arena.remaining());
  // Skip entries past the watermark, rebased to the delta's origin —
  // O(delta / kSkipInterval), keeping the whole extraction O(delta).
  auto it = std::upper_bound(
      skips_.begin(), skips_.end(), static_cast<int64_t>(watermark_items_),
      [](int64_t item, const Skip& skip) { return item < skip.first_item; });
  for (; it != skips_.end(); ++it) {
    delta.skips_.push_back({it->first_item - watermark_items_,
                            it->meta_start - watermark_meta_bits_,
                            it->arena_start - watermark_arena_bits_});
  }
  delta.num_spans_ = num_spans_ - watermark_items_;
  delta.total_label_bits_ = delta.arena_.size_bits();
  delta.meta_covered_bits_ = delta.meta_.size_bits();
  delta.group_base_.back() = delta.num_spans_;
  watermark_items_ = total_items();
  watermark_meta_bits_ = meta_.size_bits();
  watermark_arena_bits_ = arena_.size_bits();
  return delta;
}

// --- Serialization -----------------------------------------------------------

void LabelStore::AppendU64(std::string* out, uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  out->append(bytes, sizeof(bytes));
}

bool LabelStore::ReadU64(std::string_view blob, size_t* pos,
                         uint64_t* value) {
  // Subtraction form: `*pos + 8 > blob.size()` would wrap around for
  // adversarial positions near SIZE_MAX and admit the read.
  if (blob.size() < 8 || *pos > blob.size() - 8) return false;
  *value = 0;
  for (int i = 0; i < 8; ++i) {
    *value |= static_cast<uint64_t>(static_cast<unsigned char>(blob[*pos + i]))
              << (8 * i);
  }
  *pos += 8;
  return true;
}

template <typename Fn>
void LabelStore::ForEachCanonicalBlock(Fn&& fn) const {
  BitReader meta(&meta_.words(), 0, meta_covered_bits_);
  int64_t lens[kBlockItems];
  for (int64_t first = 0; first < num_spans_; first += kBlockItems) {
    const int count = static_cast<int>(
        std::min<int64_t>(kBlockItems, num_spans_ - first));
    int64_t min_len = 0, max_len = 0;
    for (int i = 0; i < count; ++i) {
      lens[i] = static_cast<int64_t>(meta.ReadGamma());
      min_len = i == 0 ? lens[i] : std::min(min_len, lens[i]);
      max_len = std::max(max_len, lens[i]);
    }
    fn(first, count, min_len, BitWidthFor(max_len - min_len + 1), lens);
  }
}

void LabelStore::AppendTail(std::string* blob) const {
  // Span stream: the length sequence re-chunked into canonical blocks of
  // exactly kBlockItems labels (vbyte block-minimum + 6-bit delta width +
  // per-item fixed-width delta). Re-chunking at serialization time —
  // rather than dumping the in-memory skip structure — makes the bytes a
  // pure function of the logical label sequence, which is what keeps
  // FromDeltas reassembly and streamed merges bit-identical to their
  // monolithic counterparts.
  BitWriter span;
  ForEachCanonicalBlock([&](int64_t /*first*/, int count, int64_t base_len,
                            int delta_width, const int64_t* lens) {
    span.WriteVByte(static_cast<uint64_t>(base_len));
    span.WriteFixed(static_cast<uint64_t>(delta_width), 6);
    for (int i = 0; i < count; ++i) {
      span.WriteFixed(static_cast<uint64_t>(lens[i] - base_len), delta_width);
    }
  });
  // The tail's exact size: six width/version bytes, then the span stream
  // and the arena, each a u64 bit count and whole u64 words.
  const size_t arena_words = static_cast<size_t>((arena_size_bits() + 63) / 64);
  blob->reserve(blob->size() + 6 +
                8 * (2 + span.words().size() + arena_words));

  // Codec field widths (self-description).
  for (int width : {codec_.production_bits, codec_.position_bits,
                    codec_.cycle_bits, codec_.start_bits, codec_.port_bits}) {
    blob->push_back(static_cast<char>(width));
  }
  blob->push_back(static_cast<char>(kTailFormatVersion));

  AppendU64(blob, static_cast<uint64_t>(span.size_bits()));
  for (uint64_t word : span.words()) AppendU64(blob, word);

  // The arena in item order, read through ArenaReader so borrowed
  // (mapped) arenas serialize in place. Emitting whole words through
  // the reader also re-zeroes any junk above the final bit, keeping the
  // output canonical whatever backs the store.
  AppendU64(blob, static_cast<uint64_t>(arena_size_bits()));
  BitReader arena = ArenaReader(0, arena_size_bits());
  for (int64_t remaining = arena_size_bits(); remaining > 0; remaining -= 64) {
    const int chunk = remaining < 64 ? static_cast<int>(remaining) : 64;
    AppendU64(blob, arena.ReadFixed(chunk));
  }
}

int64_t LabelStore::SerializedSpanBits() const {
  int64_t bits = 0;
  ForEachCanonicalBlock([&](int64_t /*first*/, int count, int64_t base_len,
                            int delta_width, const int64_t* /*lens*/) {
    bits += VByteLength(static_cast<uint64_t>(base_len)) + 6 +
            static_cast<int64_t>(count) * delta_width;
  });
  return bits + total_label_bits_;
}

Result<LabelStore> LabelStore::ParseTail(std::string_view blob, size_t* pos,
                                         std::vector<int64_t> group_base,
                                         uint64_t arena_bits,
                                         const BlobSource* source) {
  auto fail = [](const std::string& message) -> Status {
    return Status::Error(ErrorCode::kMalformedBlob, message);
  };
  const uint64_t num_items = static_cast<uint64_t>(group_base.back());

  LabelStore store;
  store.group_base_ = std::move(group_base);
  // Subtraction form, as in ReadU64: the additive check would wrap for an
  // (unvalidated) *pos near SIZE_MAX.
  if (blob.size() < 5 || *pos > blob.size() - 5) {
    return fail("truncated codec widths");
  }
  int* widths[5] = {&store.codec_.production_bits,
                    &store.codec_.position_bits, &store.codec_.cycle_bits,
                    &store.codec_.start_bits, &store.codec_.port_bits};
  for (int* width : widths) {
    *width = static_cast<unsigned char>(blob[(*pos)++]);
    if (*width > 64) return fail("codec width out of range");
  }

  // Version byte, canonical span stream, arena.
  if (*pos >= blob.size()) return fail("truncated header");
  const int version = static_cast<unsigned char>(blob[(*pos)++]);
  if (version != kTailFormatVersion) {
    return fail("unsupported tail-format version");
  }

  uint64_t span_bits = 0;
  if (!ReadU64(blob, pos, &span_bits)) return fail("truncated span stream");
  if (span_bits / 8 > blob.size()) return fail("span stream exceeds blob");
  std::vector<uint64_t> span_words;
  span_words.reserve((span_bits + 63) / 64);
  for (uint64_t w = 0; w < (span_bits + 63) / 64; ++w) {
    uint64_t word = 0;
    if (!ReadU64(blob, pos, &word)) return fail("truncated span stream");
    span_words.push_back(word);
  }

  // The tail stores the arena size again, as a cross-check on the header.
  uint64_t stored_arena_bits = 0;
  if (!ReadU64(blob, pos, &stored_arena_bits)) {
    return fail("truncated label arena");
  }
  if (stored_arena_bits != arena_bits) {
    return fail("label arena size disagrees with the header");
  }
  if (arena_bits / 8 > blob.size()) return fail("label arena exceeds blob");
  // The arena is read in place. Same bounds discipline as ReadU64, in word
  // units: the blob must hold all arena words at *pos (subtraction form —
  // no wraparound).
  const uint64_t arena_word_count = (arena_bits + 63) / 64;
  if (blob.size() / 8 < arena_word_count ||
      *pos > blob.size() - 8 * arena_word_count) {
    return fail("truncated label arena");
  }
  // An empty arena has nothing to point at and stays in the owned state.
  if (arena_bits > 0) {
    store.borrowed_arena_ =
        reinterpret_cast<const uint8_t*>(blob.data()) + *pos;
    store.borrowed_arena_bits_ = static_cast<int64_t>(arena_bits);
  }
  *pos += 8 * arena_word_count;

  // Room for the whole skip table and meta stream, so neither reallocates
  // while a valid tail parses: at most one skip entry per kSkipInterval
  // items, and num_items gamma codes of lengths summing to arena_bits. A
  // code costs at most 2*log2(length) + 1 bits and log2 is concave, so the
  // codes take at most num_items * (2*log2(arena_bits / num_items) + 1)
  // bits, which bit_width of the integer mean bounds from above. Both are
  // O(blob size).
  if (num_items > 0) {
    store.skips_.reserve(num_items / kSkipInterval + 1);
    store.meta_.Reserve(static_cast<int64_t>(
        num_items * (2 * std::bit_width(arena_bits / num_items) + 1)));
  }
  BitReader span(&span_words, 0, static_cast<int64_t>(span_bits));
  span.set_permissive();
  uint64_t consumed = 0;  // label content bits accounted for so far
  for (uint64_t first = 0; first < num_items; first += kBlockItems) {
    const int count = static_cast<int>(
        std::min<uint64_t>(kBlockItems, num_items - first));
    const uint64_t base_len = span.ReadVByte();
    const int delta_width = static_cast<int>(span.ReadFixed(6));
    if (span.failed()) return fail("truncated span stream");
    if (base_len > arena_bits) return fail("label lengths exceed the arena");
    for (int i = 0; i < count; ++i) {
      const uint64_t length = base_len + span.ReadFixed(delta_width);
      if (span.failed()) return fail("truncated span stream");
      if (length < 2) return fail("label shorter than its presence bits");
      if (length > arena_bits - consumed) {
        return fail("label lengths exceed the arena");
      }
      consumed += length;
      store.AppendSpan(static_cast<int64_t>(length));  // payload in place
    }
  }
  // Also rejects 0-item blobs claiming a nonzero arena: AppendGroups
  // rebases against the covered counters, so uncovered content would be
  // grafted onto the next appended group's first span.
  if (consumed != arena_bits) {
    return fail("label lengths do not cover the arena");
  }
  if (!span.AtEnd()) return fail("span stream has trailing bits");

  if (*pos != blob.size()) return fail("trailing bytes");

  // The accessors FVL_CHECK that every span decodes exactly under the
  // codec; an inconsistent blob (e.g. a flipped codec-width byte) must be
  // rejected here, recoverably, rather than abort on first DecodeLabel.
  // Every label decodes into one scratch label.
  SpanCursor cursor(store);
  DataLabel scratch;
  for (uint64_t item = 0; item < num_items; ++item) {
    BitReader label_reader = cursor.SpanAt(static_cast<int>(item));
    label_reader.set_permissive();
    store.codec_.Decode(&label_reader, &scratch);
    if (label_reader.failed() || !label_reader.AtEnd()) {
      std::string message = "label ";
      message += std::to_string(item);
      message += " does not decode under the blob's codec";
      return fail(message);
    }
  }
  if (store.arena_borrowed()) {
    if (source != nullptr) {
      store.arena_source_ = *source;
    } else {
      // An in-memory blob: copy the validated arena into owned words once.
      BitReader arena = store.ArenaReader(0, store.borrowed_arena_bits_);
      store.arena_.AppendBits(&arena, store.borrowed_arena_bits_);
      store.borrowed_arena_ = nullptr;
      store.borrowed_arena_bits_ = 0;
    }
  }
  return store;
}

}  // namespace fvl
