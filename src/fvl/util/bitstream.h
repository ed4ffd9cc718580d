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

#ifndef FVL_UTIL_BITSTREAM_H_
#define FVL_UTIL_BITSTREAM_H_

#include <cstdint>
#include <vector>

namespace fvl {

class BitWriter {
 public:
  // Appends the low `width` bits of `value` (width in [0, 64]).
  void WriteFixed(uint64_t value, int width);
  // Appends the Elias-gamma code of `value`; requires value >= 1.
  void WriteGamma(uint64_t value);
  // Appends `value` as vbyte groups (7 value bits + continuation bit, low
  // groups first). Any uint64 value; the encoding is canonical (no empty
  // trailing groups), so equal values always produce equal bits.
  void WriteVByte(uint64_t value);

  int64_t size_bits() const { return size_bits_; }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  void WriteBit(bool bit);

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
  // non-word-aligned offset inside an mmap'ed blob. Words are assembled
  // byte-by-byte (one load on little-endian targets, and no
  // reinterpret_cast of misaligned memory anywhere). The buffer must hold
  // ceil(end_bit / 64) full 8-byte words, which serialized arenas do — the
  // tail writes whole u64 words.
  BitReader(const uint8_t* bytes, int64_t start_bit, int64_t end_bit)
      : bytes_(bytes), size_bits_(end_bit), position_(start_bit) {}

  uint64_t ReadFixed(int width);
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
  bool ReadBit();
  // Word `index` of whichever backing this reader has.
  uint64_t WordAt(int64_t index) const;

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

}  // namespace fvl

#endif  // FVL_UTIL_BITSTREAM_H_
