#include "fvl/util/boolean_matrix.h"

#include <bit>

#include "fvl/util/check.h"

namespace fvl {

namespace {
constexpr int kWordBits = 64;
}  // namespace

BoolMatrix::BoolMatrix(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_((cols + kWordBits - 1) / kWordBits),
      bits_(static_cast<size_t>(rows) * words_per_row_, 0) {
  FVL_CHECK(rows >= 0 && cols >= 0);
}

BoolMatrix BoolMatrix::Identity(int n) {
  BoolMatrix m(n, n);
  for (int i = 0; i < n; ++i) m.Set(i, i);
  return m;
}

BoolMatrix BoolMatrix::Full(int rows, int cols) {
  BoolMatrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) m.Set(r, c);
  }
  return m;
}

bool BoolMatrix::Get(int r, int c) const {
  FVL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return (Row(r)[c / kWordBits] >> (c % kWordBits)) & 1;
}

void BoolMatrix::Set(int r, int c, bool value) {
  FVL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  uint64_t mask = uint64_t{1} << (c % kWordBits);
  if (value) {
    Row(r)[c / kWordBits] |= mask;
  } else {
    Row(r)[c / kWordBits] &= ~mask;
  }
}

BoolMatrix BoolMatrix::Multiply(const BoolMatrix& other) const {
  FVL_CHECK(cols_ == other.rows_);
  BoolMatrix result(rows_, other.cols_);
  for (int r = 0; r < rows_; ++r) {
    const uint64_t* a_row = Row(r);
    uint64_t* out_row = result.Row(r);
    for (int w = 0; w < words_per_row_; ++w) {
      uint64_t word = a_row[w];
      while (word != 0) {
        int k = w * kWordBits + std::countr_zero(word);
        word &= word - 1;
        const uint64_t* b_row = other.Row(k);
        for (int v = 0; v < other.words_per_row_; ++v) out_row[v] |= b_row[v];
      }
    }
  }
  return result;
}

uint64_t BoolMatrix::Push(uint64_t rows) const {
  FVL_DCHECK(cols_ <= kWordBits && (rows_ >= kWordBits || rows >> rows_ == 0));
  if (cols_ == 0) return 0;  // no words to read
  uint64_t out = 0;
  for (; rows != 0; rows &= rows - 1) out |= bits_[std::countr_zero(rows)];
  return out;
}

uint64_t BoolMatrix::Pull(uint64_t cols) const {
  FVL_DCHECK(rows_ <= kWordBits && cols_ <= kWordBits);
  if (cols_ == 0) return 0;
  uint64_t out = 0;
  for (int r = 0; r < rows_; ++r) out |= uint64_t{(bits_[r] & cols) != 0} << r;
  return out;
}

BoolMatrix BoolMatrix::Transpose() const {
  BoolMatrix result(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      if (Get(r, c)) result.Set(c, r);
    }
  }
  return result;
}

BoolMatrix BoolMatrix::Or(const BoolMatrix& other) const {
  FVL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  BoolMatrix result = *this;
  for (size_t i = 0; i < bits_.size(); ++i) result.bits_[i] |= other.bits_[i];
  return result;
}

bool BoolMatrix::IsSubsetOf(const BoolMatrix& other) const {
  FVL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < bits_.size(); ++i) {
    if ((bits_[i] & ~other.bits_[i]) != 0) return false;
  }
  return true;
}

bool BoolMatrix::IsZero() const {
  for (uint64_t word : bits_) {
    if (word != 0) return false;
  }
  return true;
}

bool BoolMatrix::IsFull() const { return CountOnes() == rows_ * cols_; }

bool BoolMatrix::RowAny(int r) const {
  FVL_DCHECK(r >= 0 && r < rows_);
  for (int w = 0; w < words_per_row_; ++w) {
    if (Row(r)[w] != 0) return true;
  }
  return false;
}

bool BoolMatrix::ColAny(int c) const {
  FVL_DCHECK(c >= 0 && c < cols_);
  for (int r = 0; r < rows_; ++r) {
    if (Get(r, c)) return true;
  }
  return false;
}

int BoolMatrix::CountOnes() const {
  int count = 0;
  for (uint64_t word : bits_) count += std::popcount(word);
  return count;
}

bool BoolMatrix::operator==(const BoolMatrix& other) const {
  return rows_ == other.rows_ && cols_ == other.cols_ && bits_ == other.bits_;
}

std::string BoolMatrix::ToString() const {
  std::string out;
  for (int r = 0; r < rows_; ++r) {
    out += '[';
    for (int c = 0; c < cols_; ++c) {
      if (c > 0) out += ' ';
      out += Get(r, c) ? '1' : '0';
    }
    out += "]";
    if (r + 1 < rows_) out += '\n';
  }
  return out;
}

}  // namespace fvl
