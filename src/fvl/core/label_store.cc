#include "fvl/core/label_store.h"

#include <algorithm>
#include <atomic>
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

namespace {

// Appends the relocated bit range [start_bit, end_bit) of `words` to `out`
// in 64-bit chunks (both ends take the word-parallel fast paths).
void CopyBits(const std::vector<uint64_t>& words, int64_t start_bit,
              int64_t end_bit, BitWriter* out) {
  BitReader reader(&words, start_bit, end_bit);
  for (int64_t remaining = end_bit - start_bit; remaining > 0;) {
    int chunk = remaining < 64 ? static_cast<int>(remaining) : 64;
    out->WriteFixed(reader.ReadFixed(chunk), chunk);
    remaining -= chunk;
  }
}

// Same relocation, from a live reader (which the caller has bounds-checked
// to hold at least `bits` more bits).
void CopyBits(BitReader* reader, int64_t bits, BitWriter* out) {
  while (bits > 0) {
    int chunk = bits < 64 ? static_cast<int>(bits) : 64;
    out->WriteFixed(reader->ReadFixed(chunk), chunk);
    bits -= chunk;
  }
}

}  // namespace

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
    skips_.push_back({num_spans_, meta_covered_bits_, arena_covered_bits_});
  }
}

void LabelStore::ThawArena() {
  if (!arena_borrowed()) return;
  BitReader reader(borrowed_arena_, 0, borrowed_arena_bits_);
  BitWriter owned;
  CopyBits(&reader, borrowed_arena_bits_, &owned);
  arena_ = std::move(owned);
  borrowed_arena_ = nullptr;
  borrowed_arena_bits_ = 0;
}

void LabelStore::Append(const DataLabel& label) {
  FVL_CHECK(num_groups() > 0);
  ThawArena();
  MaybePushSkip();
  const int64_t length = codec_.EncodedBits(label);
  meta_.WriteGamma(static_cast<uint64_t>(length));
  meta_covered_bits_ += GammaLength(static_cast<uint64_t>(length));
  if (length <= inline_threshold_) {
    codec_.EncodeTo(label, &meta_);
    meta_covered_bits_ += length;
    ++inline_items_;
  } else {
    codec_.EncodeTo(label, &arena_);
    arena_covered_bits_ += length;
  }
  total_label_bits_ += length;
  ++num_spans_;
  ++group_base_.back();
}

void LabelStore::AppendSpan(BitReader* payload, int64_t length) {
  MaybePushSkip();
  meta_.WriteGamma(static_cast<uint64_t>(length));
  meta_covered_bits_ += GammaLength(static_cast<uint64_t>(length));
  if (length <= inline_threshold_) {
    CopyBits(payload, length, &meta_);
    meta_covered_bits_ += length;
    ++inline_items_;
  } else {
    ThawArena();
    CopyBits(payload, length, &arena_);
    arena_covered_bits_ += length;
  }
  total_label_bits_ += length;
  ++num_spans_;
}

void LabelStore::AppendSpanBorrowed(int64_t length) {
  MaybePushSkip();
  meta_.WriteGamma(static_cast<uint64_t>(length));
  meta_covered_bits_ += GammaLength(static_cast<uint64_t>(length));
  arena_covered_bits_ += length;  // the payload sits in the borrowed bytes
  total_label_bits_ += length;
  ++num_spans_;
}

LabelStore::SpanLoc LabelStore::Locate(int global) const {
  // Last skip entry at or before `global`, then a <= kSkipInterval-item
  // forward scan of the meta stream (plus the seam slack bulk appends can
  // introduce — still O(1)-ish).
  auto it = std::upper_bound(
      skips_.begin(), skips_.end(), static_cast<int64_t>(global),
      [](int64_t item, const Skip& skip) { return item < skip.first_item; });
  const Skip& skip = *(it - 1);
  int64_t item = skip.first_item;
  int64_t arena_pos = skip.arena_start;
  BitReader meta(&meta_.words(), skip.meta_start, meta_covered_bits_);
  for (;; ++item) {
    const int64_t length = static_cast<int64_t>(meta.ReadGamma());
    if (item == global) {
      if (length <= inline_threshold_) return {true, meta.position(), length};
      return {false, arena_pos, length};
    }
    if (length <= inline_threshold_) {
      meta.SkipBits(length);
    } else {
      arena_pos += length;
    }
  }
}

BitReader LabelStore::SpanReader(int global) const {
  FVL_CHECK(global >= 0 && global < total_items());
  const SpanLoc loc = Locate(global);
  if (loc.is_inline) {
    return BitReader(&meta_.words(), loc.start, loc.start + loc.length);
  }
  return ArenaReader(loc.start, loc.start + loc.length);
}

DataLabel LabelStore::DecodeLabel(int global) const {
  BitReader reader = SpanReader(global);
  DataLabel label = codec_.Decode(&reader);
  FVL_CHECK(reader.AtEnd());
  return label;
}

int64_t LabelStore::LabelBits(int global) const {
  FVL_CHECK(global >= 0 && global < total_items());
  return Locate(global).length;
}

// --- SpanCursor --------------------------------------------------------------

void LabelStore::SpanCursor::SeekTo(int global) {
  if (global < item_) {
    // Backward jump: restart from the skip table.
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
  while (item_ < global) {
    const int64_t length = static_cast<int64_t>(meta.ReadGamma());
    if (length <= store_->inline_threshold_) {
      meta.SkipBits(length);
    } else {
      arena_pos_ += length;
    }
    ++item_;
  }
  meta_pos_ = meta.position();
}

BitReader LabelStore::SpanCursor::SpanAt(int global) {
  FVL_CHECK(global >= 0 && global < store_->total_items());
  SeekTo(global);
  BitReader meta(&store_->meta_.words(), meta_pos_,
                 store_->meta_covered_bits_);
  const int64_t length = static_cast<int64_t>(meta.ReadGamma());
  ++item_;
  if (length <= store_->inline_threshold_) {
    const int64_t start = meta.position();
    meta_pos_ = start + length;
    return BitReader(&store_->meta_.words(), start, start + length);
  }
  const int64_t start = arena_pos_;
  meta_pos_ = meta.position();
  arena_pos_ += length;
  return store_->ArenaReader(start, start + length);
}

DataLabel LabelStore::SpanCursor::DecodeAt(int global) {
  BitReader reader = SpanAt(global);
  DataLabel label = store_->codec_.Decode(&reader);
  FVL_CHECK(reader.AtEnd());
  return label;
}

int64_t LabelStore::SpanCursor::LabelBitsAt(int global) {
  FVL_CHECK(global >= 0 && global < store_->total_items());
  SeekTo(global);
  BitReader meta(&store_->meta_.words(), meta_pos_,
                 store_->meta_covered_bits_);
  const int64_t length = static_cast<int64_t>(meta.ReadGamma());
  ++item_;
  if (length <= store_->inline_threshold_) {
    meta_pos_ = meta.position() + length;
  } else {
    meta_pos_ = meta.position();
    arena_pos_ += length;
  }
  return length;
}

// --- Bulk appends ------------------------------------------------------------

Status LabelStore::AppendArena(const LabelStore& other) {
  FVL_CHECK(other.codec_ == codec_);  // implies equal inline thresholds
  // Rebasing assumes the source spans cover its whole streams — true for
  // live stores by construction and enforced by ParseTail for parsed ones,
  // but a hand-assembled or corrupted store must surface recoverably, not
  // silently graft its uncovered bits onto the next appended span.
  if (other.meta_covered_bits_ != other.meta_.size_bits() ||
      other.arena_covered_bits_ != other.arena_size_bits()) {
    return Status::Error(
        ErrorCode::kInvalidArgument,
        "source store is inconsistent: spans cover " +
            std::to_string(other.meta_covered_bits_ +
                           other.arena_covered_bits_) +
            " of " +
            std::to_string(other.meta_.size_bits() +
                           other.arena_size_bits()) +
            " stream bits");
  }
  ThawArena();  // the target's streams are about to grow
  const int64_t item_base = num_spans_;
  const int64_t meta_base = meta_.size_bits();
  const int64_t arena_base = arena_.size_bits();
  CopyBits(other.meta_.words(), 0, other.meta_.size_bits(), &meta_);
  if (other.arena_size_bits() > 0) {
    // Through the source's arena reader, which serves borrowed (mapped)
    // arenas byte-wise — merging a file-served input never materializes it.
    BitReader arena_reader = other.ArenaReader(0, other.arena_size_bits());
    CopyBits(&arena_reader, other.arena_size_bits(), &arena_);
  }
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
  inline_items_ += other.inline_items_;
  meta_covered_bits_ += other.meta_covered_bits_;
  arena_covered_bits_ += other.arena_covered_bits_;
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
  ThawArena();  // live-session state; borrowed stores only get here thawed
  LabelStore delta(codec_);
  delta.BeginGroup();
  CopyBits(meta_.words(), watermark_meta_bits_, meta_.size_bits(),
           &delta.meta_);
  CopyBits(arena_.words(), watermark_arena_bits_, arena_.size_bits(),
           &delta.arena_);
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
  delta.total_label_bits_ = total_label_bits_ - watermark_label_bits_;
  delta.inline_items_ = inline_items_ - watermark_inline_items_;
  delta.meta_covered_bits_ = delta.meta_.size_bits();
  delta.arena_covered_bits_ = delta.arena_.size_bits();
  delta.group_base_.back() = delta.num_spans_;
  watermark_items_ = total_items();
  watermark_meta_bits_ = meta_.size_bits();
  watermark_arena_bits_ = arena_.size_bits();
  watermark_label_bits_ = total_label_bits_;
  watermark_inline_items_ = inline_items_;
  return delta;
}

// --- Serialization -----------------------------------------------------------

void LabelStore::AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
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
  int64_t inline_start[kBlockItems];  // meta bit position, or -1 (in arena)
  for (int64_t first = 0; first < num_spans_; first += kBlockItems) {
    const int count = static_cast<int>(
        std::min<int64_t>(kBlockItems, num_spans_ - first));
    int64_t min_len = 0, max_len = 0;
    for (int i = 0; i < count; ++i) {
      lens[i] = static_cast<int64_t>(meta.ReadGamma());
      if (lens[i] <= inline_threshold_) {
        inline_start[i] = meta.position();
        meta.SkipBits(lens[i]);
      } else {
        inline_start[i] = -1;
      }
      min_len = i == 0 ? lens[i] : std::min(min_len, lens[i]);
      max_len = std::max(max_len, lens[i]);
    }
    fn(first, count, min_len, BitWidthFor(max_len - min_len + 1), lens,
       inline_start);
  }
}

void LabelStore::AppendTail(std::string* blob) const {
  // Codec field widths (self-description).
  for (int width : {codec_.production_bits, codec_.position_bits,
                    codec_.cycle_bits, codec_.start_bits, codec_.port_bits}) {
    blob->push_back(static_cast<char>(width));
  }
  blob->push_back(static_cast<char>(kTailFormatVersion));

  // Span stream: the length sequence re-chunked into canonical blocks of
  // exactly kBlockItems labels (vbyte block-minimum + 6-bit delta width +
  // per-item fixed-width delta, inline payloads in place). Re-chunking at
  // serialization time — rather than dumping the in-memory skip structure —
  // makes the bytes a pure function of the logical label sequence, which
  // is what keeps FromDeltas reassembly and streamed merges bit-identical
  // to their monolithic counterparts.
  BitWriter span;
  ForEachCanonicalBlock([&](int64_t /*first*/, int count, int64_t base_len,
                            int delta_width, const int64_t* lens,
                            const int64_t* inline_start) {
    span.WriteVByte(static_cast<uint64_t>(base_len));
    span.WriteFixed(static_cast<uint64_t>(delta_width), 6);
    for (int i = 0; i < count; ++i) {
      span.WriteFixed(static_cast<uint64_t>(lens[i] - base_len), delta_width);
      if (inline_start[i] >= 0) {
        CopyBits(meta_.words(), inline_start[i], inline_start[i] + lens[i],
                 &span);
      }
    }
  });
  AppendU64(blob, static_cast<uint64_t>(span.size_bits()));
  for (uint64_t word : span.words()) AppendU64(blob, word);

  // Long-label arena in item order, read through ArenaReader so borrowed
  // (mapped) arenas serialize without thawing. Emitting whole words through
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
                            int delta_width, const int64_t* /*lens*/,
                            const int64_t* /*inline_start*/) {
    bits += VByteLength(static_cast<uint64_t>(base_len)) + 6 +
            static_cast<int64_t>(count) * delta_width;
  });
  return bits + total_label_bits_;
}

Result<LabelStore> LabelStore::ParseTail(std::string_view blob, size_t* pos,
                                         std::vector<int64_t> group_base,
                                         uint64_t arena_bits,
                                         bool borrow_arena) {
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
  store.inline_threshold_ = InlineThresholdBits(store.codec_);

  // Version byte, canonical span stream, long-label arena.
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

  uint64_t payload_bits = 0;
  if (!ReadU64(blob, pos, &payload_bits)) {
    return fail("truncated label arena");
  }
  if (payload_bits / 8 > blob.size()) return fail("label arena exceeds blob");
  const uint64_t payload_word_count = (payload_bits + 63) / 64;
  // Borrowing only applies to a nonempty arena: an empty one has nothing
  // to point at and stays in the plain owned state.
  const bool borrow = borrow_arena && payload_word_count > 0;
  std::vector<uint64_t> payload_words;
  if (borrow) {
    // Same bounds discipline as ReadU64, in word units: the blob must
    // hold all payload words at *pos (subtraction form — no wraparound).
    if (blob.size() / 8 < payload_word_count ||
        *pos > blob.size() - 8 * payload_word_count) {
      return fail("truncated label arena");
    }
    store.borrowed_arena_ =
        reinterpret_cast<const uint8_t*>(blob.data()) + *pos;
    store.borrowed_arena_bits_ = static_cast<int64_t>(payload_bits);
    *pos += 8 * payload_word_count;
  } else {
    payload_words.reserve(payload_word_count);
    for (uint64_t w = 0; w < payload_word_count; ++w) {
      uint64_t word = 0;
      if (!ReadU64(blob, pos, &word)) return fail("truncated label arena");
      payload_words.push_back(word);
    }
  }

  BitReader span(&span_words, 0, static_cast<int64_t>(span_bits));
  span.set_permissive();
  BitReader payload(&payload_words, 0,
                    borrow ? 0 : static_cast<int64_t>(payload_bits));
  payload.set_permissive();
  uint64_t consumed = 0;       // label content bits accounted for so far
  uint64_t long_consumed = 0;  // of those, bits living in the long arena
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
      const bool is_inline =
          length <= static_cast<uint64_t>(store.inline_threshold_);
      if (!is_inline && borrow) {
        // The payload already sits in the borrowed bytes; account for it
        // without copying. Bounds-checked against the declared arena size
        // exactly as CheckRemaining would be.
        if (length > payload_bits - long_consumed) {
          return fail("truncated label arena");
        }
        long_consumed += length;
        store.AppendSpanBorrowed(static_cast<int64_t>(length));
        continue;
      }
      if (!is_inline) long_consumed += length;
      BitReader* source = is_inline ? &span : &payload;
      if (!source->CheckRemaining(length)) {
        return fail(is_inline ? "truncated span stream"
                              : "truncated label arena");
      }
      store.AppendSpan(source, static_cast<int64_t>(length));
    }
  }
  // Also rejects 0-item blobs claiming a nonzero arena: AppendGroups
  // rebases against the covered counters, so uncovered content would be
  // grafted onto the next appended group's first span.
  if (consumed != arena_bits) {
    return fail("label lengths do not cover the arena");
  }
  if (!span.AtEnd()) return fail("span stream has trailing bits");
  if (long_consumed != payload_bits) {
    return fail("label arena has trailing bits");
  }

  if (*pos != blob.size()) return fail("trailing bytes");

  // The accessors FVL_CHECK that every span decodes exactly under the
  // codec; an inconsistent blob (e.g. a flipped codec-width byte) must be
  // rejected here, recoverably, rather than abort on first DecodeLabel.
  SpanCursor cursor(store);
  for (uint64_t item = 0; item < num_items; ++item) {
    BitReader label_reader = cursor.SpanAt(static_cast<int>(item));
    label_reader.set_permissive();
    store.codec_.Decode(&label_reader);
    if (label_reader.failed() || !label_reader.AtEnd()) {
      std::string message = "label ";
      message += std::to_string(item);
      message += " does not decode under the blob's codec";
      return fail(message);
    }
  }
  return store;
}

}  // namespace fvl
