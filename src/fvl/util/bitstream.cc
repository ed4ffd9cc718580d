#include "fvl/util/bitstream.h"

#include <bit>

#include "fvl/util/check.h"

namespace fvl {

void BitWriter::WriteFixed(uint64_t value, int width) {
  FVL_CHECK(width >= 0 && width <= 64);
  FVL_DCHECK(width == 64 || value < (uint64_t{1} << width));
  if (width == 0) return;
  if (width < 64) value &= (uint64_t{1} << width) - 1;
  // Word-parallel append, LSB-first within each word: OR the low bits into
  // the current partial word and spill the rest into a fresh one.
  const int used = static_cast<int>(size_bits_ % 64);
  if (used == 0) words_.push_back(0);
  words_[size_bits_ / 64] |= value << used;
  const int fits = 64 - used;
  if (width > fits) words_.push_back(value >> fits);
  size_bits_ += width;
}

void BitWriter::WriteGamma(uint64_t value) {
  FVL_CHECK(value >= 1);
  const int bits = std::bit_width(value);
  // bits - 1 zeros, then the value most significant bit first (the
  // conventional gamma layout): reversed, so LSB-first order emits it.
  const uint64_t reversed = ReverseBits(value, bits);
  if (bits <= 32) {
    WriteFixed(reversed << (bits - 1), 2 * bits - 1);
    return;
  }
  WriteFixed(0, bits - 1);
  WriteFixed(reversed, bits);
}

void BitWriter::AppendBits(BitReader* reader, int64_t bits) {
  if (bits > reader->remaining()) {
    // Overrun: per-word ReadFixed keeps its permissive all-ones fill and
    // failed(), and its abort otherwise.
    for (; bits > 0; bits -= 64) {
      const int chunk = bits < 64 ? static_cast<int>(bits) : 64;
      WriteFixed(reader->ReadFixed(chunk), chunk);
    }
    return;
  }
  if (bits <= 0) return;
  // Top up the partial last word, so every later word lands aligned.
  const int used = static_cast<int>(size_bits_ % 64);
  if (used != 0) {
    const int head = bits < 64 - used ? static_cast<int>(bits) : 64 - used;
    WriteFixed(reader->ReadFixed(head), head);
    bits -= head;
  }
  const int64_t full = bits / 64;
  const int tail = static_cast<int>(bits % 64);
  const size_t base = words_.size();
  words_.resize(base + static_cast<size_t>(full) + (tail != 0 ? 1 : 0));
  uint64_t* out = words_.data() + base;
  const int64_t first = reader->position_ / 64;
  const int shift = static_cast<int>(reader->position_ % 64);
  if (shift == 0) {
    for (int64_t i = 0; i < full; ++i) out[i] = reader->WordAt(first + i);
  } else if (full > 0) {
    // Source word first + i + 1 holds in-range bits of output word i.
    uint64_t low = reader->WordAt(first);
    for (int64_t i = 0; i < full; ++i) {
      const uint64_t high = reader->WordAt(first + i + 1);
      out[i] = (low >> shift) | (high << (64 - shift));
      low = high;
    }
  }
  reader->position_ += 64 * full;
  if (tail != 0) out[full] = reader->ReadFixed(tail);
  size_bits_ += bits;
}

void BitWriter::WriteVByte(uint64_t value) {
  do {
    uint64_t group = value & 0x7F;
    value >>= 7;
    WriteFixed(group | (value != 0 ? 0x80 : 0), 8);
  } while (value != 0);
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

uint64_t BitReader::ReadGammaSlow() {
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
