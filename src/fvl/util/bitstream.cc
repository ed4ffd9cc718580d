#include "fvl/util/bitstream.h"

#include <bit>

#include "fvl/util/check.h"

namespace fvl {

void BitWriter::WriteBit(bool bit) {
  int64_t word_index = size_bits_ / 64;
  if (word_index == static_cast<int64_t>(words_.size())) words_.push_back(0);
  if (bit) words_[word_index] |= uint64_t{1} << (size_bits_ % 64);
  ++size_bits_;
}

void BitWriter::WriteFixed(uint64_t value, int width) {
  FVL_CHECK(width >= 0 && width <= 64);
  FVL_DCHECK(width == 64 || value < (uint64_t{1} << width));
  if (width == 0) return;
  if (width < 64) value &= (uint64_t{1} << width) - 1;
  // Word-parallel append: OR the low bits into the current partial word and
  // spill the rest into a fresh one. Bit order matches WriteBit (LSB-first
  // within each word), so mixed WriteBit/WriteFixed streams are unchanged.
  const int used = static_cast<int>(size_bits_ % 64);
  if (used == 0) words_.push_back(0);
  words_[size_bits_ / 64] |= value << used;
  const int fits = 64 - used;
  if (width > fits) words_.push_back(value >> fits);
  size_bits_ += width;
}

void BitWriter::WriteGamma(uint64_t value) {
  FVL_CHECK(value >= 1);
  int bits = 64 - std::countl_zero(value);  // position of the highest set bit
  for (int i = 0; i < bits - 1; ++i) WriteBit(false);
  WriteBit(true);
  // Remaining bits of the value below the leading one, most significant
  // first (the conventional gamma layout).
  for (int i = bits - 2; i >= 0; --i) WriteBit((value >> i) & 1);
}

void BitWriter::WriteVByte(uint64_t value) {
  do {
    uint64_t group = value & 0x7F;
    value >>= 7;
    WriteFixed(group | (value != 0 ? 0x80 : 0), 8);
  } while (value != 0);
}

uint64_t BitReader::WordAt(int64_t index) const {
  if (words_ != nullptr) return (*words_)[index];
  // Byte-backed (borrowed-arena) mode: explicit little-endian assembly —
  // the buffer is unaligned, so a uint64_t* cast would be UB. Compiles to
  // a single load on little-endian targets.
  const uint8_t* at = bytes_ + 8 * index;
  uint64_t word = 0;
  for (int i = 0; i < 8; ++i) {
    word |= static_cast<uint64_t>(at[i]) << (8 * i);
  }
  return word;
}

bool BitReader::ReadBit() {
  if (position_ >= size_bits_) {
    FVL_CHECK(permissive_);
    failed_ = true;
    return true;  // terminates gamma zero-scans
  }
  bool bit = (WordAt(position_ / 64) >> (position_ % 64)) & 1;
  ++position_;
  return bit;
}

bool BitReader::CheckRemaining(uint64_t bits) {
  if (bits <= static_cast<uint64_t>(size_bits_ - position_)) return true;
  FVL_CHECK(permissive_);
  failed_ = true;
  return false;
}

uint64_t BitReader::ReadFixed(int width) {
  FVL_CHECK(width >= 0 && width <= 64);
  if (width == 0) return 0;
  if (position_ + width > size_bits_) {
    // Out-of-range tail: keep the per-bit path, whose permissive handling
    // (all-ones fill + failed()) the blob validators rely on.
    uint64_t value = 0;
    for (int i = 0; i < width; ++i) {
      if (ReadBit()) value |= uint64_t{1} << i;
    }
    return value;
  }
  // Word-parallel extraction (same LSB-first layout as ReadBit).
  const int64_t word = position_ / 64;
  const int off = static_cast<int>(position_ % 64);
  uint64_t value = WordAt(word) >> off;
  const int got = 64 - off;
  if (width > got) value |= WordAt(word + 1) << got;
  if (width < 64) value &= (uint64_t{1} << width) - 1;
  position_ += width;
  return value;
}

uint64_t BitReader::ReadGamma() {
  int zeros = 0;
  while (!ReadBit()) ++zeros;
  uint64_t value = 1;
  for (int i = 0; i < zeros; ++i) {
    value = (value << 1) | (ReadBit() ? 1 : 0);
  }
  return value;
}

uint64_t BitReader::ReadVByte() {
  uint64_t value = 0;
  // Ten groups cover 64 value bits (last shift is 63, bits beyond the word
  // fall off); an eleventh continuation bit can only come from a corrupted
  // stream (or a permissive read past the end, whose all-ones fill keeps
  // the continuation bit set — both must terminate).
  for (int shift = 0; shift <= 63; shift += 7) {
    uint64_t group = ReadFixed(8);
    value |= (group & 0x7F) << shift;
    if ((group & 0x80) == 0) return value;
  }
  FVL_CHECK(permissive_);
  failed_ = true;
  return value;
}

int BitWidthFor(int64_t n) {
  FVL_CHECK(n >= 0);
  if (n <= 1) return 0;
  return 64 - std::countl_zero(static_cast<uint64_t>(n - 1));
}

int GammaLength(uint64_t value) {
  FVL_CHECK(value >= 1);
  int bits = 64 - std::countl_zero(value);
  return 2 * bits - 1;
}

int VByteLength(uint64_t value) {
  int length = 8;
  for (value >>= 7; value != 0; value >>= 7) length += 8;
  return length;
}

}  // namespace fvl
