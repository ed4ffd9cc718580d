// Bit-level writer/reader used for the exact label-size accounting of the
// labeling schemes (data labels are measured in bits, as in the paper's
// Figures 17, 21 and 24).
//
// Supported encodings:
//  * fixed-width unsigned fields (for grammar-bounded components such as
//    production ids and member positions), and
//  * Elias-gamma codes (for unbounded components such as recursion iteration
//    indices), which cost 2*floor(log2 v) + 1 bits for v >= 1, and
//  * vbyte groups (7 value bits + 1 continuation bit per group, low groups
//    first), used by the compact label-store tail for per-block base
//    lengths — small values cost one byte, and the encoding is
//    self-delimiting without a scan for a terminating one-bit.
//
// Every kernel moves a word at a time: fixed fields and gamma codes are one
// or two word loads and shifts, and AppendBits copies a bit range with one
// funnel shift per destination word. Only reads past the end of a range
// (and gamma codes of more than 31 leading zeros) go bit by bit.

#ifndef FVL_UTIL_BITSTREAM_H_
#define FVL_UTIL_BITSTREAM_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

namespace fvl {

class BitReader;

class BitWriter {
 public:
  // Appends the low `width` bits of `value` (width in [0, 64]).
  void WriteFixed(uint64_t value, int width);
  // Appends the Elias-gamma code of `value`; requires value >= 1. At most
  // two WriteFixed calls: the zero run, then the value bit-reversed so its
  // most significant bit comes first (one call when both fit in 64 bits).
  void WriteGamma(uint64_t value);
  // Appends the next `bits` bits of `reader`, advancing it: one resize,
  // then each destination word is a funnel shift of two source words. A
  // range past the reader's end takes ReadFixed's overrun handling.
  void AppendBits(BitReader* reader, int64_t bits);
  // Appends `value` as vbyte groups (7 value bits + continuation bit, low
  // groups first). Any uint64 value; the encoding is canonical (no empty
  // trailing groups), so equal values always produce equal bits.
  void WriteVByte(uint64_t value);

  // Reserves room for `bits` bits in total, so writes up to that size do
  // not reallocate.
  void Reserve(int64_t bits) {
    words_.reserve(static_cast<size_t>((bits + 63) / 64));
  }

  int64_t size_bits() const { return size_bits_; }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  std::vector<uint64_t> words_;
  int64_t size_bits_ = 0;
};

class BitReader {
 public:
  explicit BitReader(const BitWriter& writer)
      : words_(&writer.words()), size_bits_(writer.size_bits()) {}
  // Reads the bit range [start_bit, end_bit) of a word arena (used by the
  // provenance index to decode one label out of a packed blob).
  BitReader(const std::vector<uint64_t>* words, int64_t start_bit,
            int64_t end_bit)
      : words_(words), size_bits_(end_bit), position_(start_bit) {}
  // Reads the same range out of an *unaligned* little-endian byte buffer —
  // the borrowed-arena mode of LabelStore, whose payload words sit at a
  // non-word-aligned offset inside an mmap'ed blob. Each word is one
  // memcpy-based unaligned load (no reinterpret_cast of misaligned memory
  // anywhere). The buffer must hold ceil(end_bit / 64) full 8-byte words,
  // which serialized arenas do — the tail writes whole u64 words.
  BitReader(const uint8_t* bytes, int64_t start_bit, int64_t end_bit)
      : bytes_(bytes), size_bits_(end_bit), position_(start_bit) {}

  uint64_t ReadFixed(int width);
  // Inline fast path: one peek of up to 64 bits decodes any code of at
  // most 31 leading zeros that lies inside the range. Longer codes and
  // reads past the end take the per-bit ReadGammaSlow.
  uint64_t ReadGamma();
  // Reads a vbyte value. Bounded on untrusted input: at most ten groups are
  // consumed, so a run of corrupted continuation bits sets failed() (in
  // permissive mode) instead of scanning away; reads past the end fail the
  // same way via ReadFixed's permissive tail handling.
  uint64_t ReadVByte();

  int64_t position() const { return position_; }
  bool AtEnd() const { return position_ == size_bits_; }
  // Bits left before the end of the range.
  int64_t remaining() const { return size_bits_ - position_; }

  // Non-aborting mode for untrusted input: reads past the end return
  // one-bits (so gamma scans terminate) and set failed() instead of
  // FVL_CHECK-aborting. Used by ProvenanceIndex::Deserialize to validate
  // blobs at the door.
  void set_permissive() { permissive_ = true; }
  bool failed() const { return failed_; }

  // True if at least `bits` bits remain. A shortfall sets failed() in
  // permissive mode and aborts otherwise; call before trusting a
  // length-prefixed count read from the stream.
  bool CheckRemaining(uint64_t bits);

 private:
  friend class BitWriter;  // AppendBits reads whole source words

  bool ReadBit();
  uint64_t ReadGammaSlow();
  // Word `index` of whichever backing this reader has.
  uint64_t WordAt(int64_t index) const;
  // The next min(64, remaining()) bits, LSB-first; bits above them are
  // unspecified. Requires remaining() > 0.
  uint64_t Peek() const;

  // Exactly one of words_/bytes_ is set.
  const std::vector<uint64_t>* words_ = nullptr;
  const uint8_t* bytes_ = nullptr;
  int64_t size_bits_;
  int64_t position_ = 0;
  bool permissive_ = false;
  bool failed_ = false;
};

// Number of bits needed to store values in [0, n-1] as a fixed-width field;
// BitWidthFor(0) and BitWidthFor(1) are 0 (nothing to distinguish).
int BitWidthFor(int64_t n);

// Length of the Elias-gamma code for value >= 1.
int GammaLength(uint64_t value);

// Length in bits of WriteVByte(value) (a multiple of 8).
int VByteLength(uint64_t value);

// The low `width` bits of `value` in reverse order (higher bits dropped),
// width in [1, 64].
inline uint64_t ReverseBits(uint64_t value, int width) {
  value = ((value >> 1) & 0x5555555555555555) |
          ((value & 0x5555555555555555) << 1);
  value = ((value >> 2) & 0x3333333333333333) |
          ((value & 0x3333333333333333) << 2);
  value = ((value >> 4) & 0x0F0F0F0F0F0F0F0F) |
          ((value & 0x0F0F0F0F0F0F0F0F) << 4);
  return __builtin_bswap64(value) >> (64 - width);
}

// Little-endian u64 at an arbitrary byte address.
inline uint64_t LoadLittleEndian64(const uint8_t* at) {
  uint64_t word = 0;
  std::memcpy(&word, at, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

inline uint64_t BitReader::WordAt(int64_t index) const {
  if (words_ != nullptr) return (*words_)[index];
  return LoadLittleEndian64(bytes_ + 8 * index);
}

inline uint64_t BitReader::Peek() const {
  const int64_t left = size_bits_ - position_;
  const int64_t word = position_ / 64;
  const int off = static_cast<int>(position_ % 64);
  uint64_t window = WordAt(word) >> off;
  // The next word only when it holds bits of the range: a byte-backed
  // buffer ends at the range's last word.
  if (off != 0 && left > 64 - off) window |= WordAt(word + 1) << (64 - off);
  return window;
}

inline uint64_t BitReader::ReadGamma() {
  if (position_ < size_bits_) {
    const uint64_t window = Peek();
    const int zeros = std::countr_zero(window);  // 64 for an all-zero window
    const int length = 2 * zeros + 1;
    // A code inside the range has its terminating one inside it too, so
    // bits past the end can only make `length` overrun, never shrink it.
    if (zeros <= 31 && length <= size_bits_ - position_) {
      position_ += length;
      // Reversing the code's `length` bits puts the terminating one at bit
      // `zeros` and the payload, most significant bit first, below it.
      return ReverseBits(window, length);
    }
  }
  return ReadGammaSlow();
}

}  // namespace fvl

#endif  // FVL_UTIL_BITSTREAM_H_
