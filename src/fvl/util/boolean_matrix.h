// Dense bit-packed boolean matrices.
//
// Reachability matrices in this project are tiny (their dimensions are
// bounded by the number of ports of a module, typically <= 10), but they are
// multiplied on the hot query path, so rows are packed into 64-bit words and
// the boolean product is computed word-parallel: for every set bit k of
// A.row(r), OR B.row(k) into C.row(r).

#ifndef FVL_UTIL_BOOLEAN_MATRIX_H_
#define FVL_UTIL_BOOLEAN_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fvl {

class BoolMatrix {
 public:
  BoolMatrix() = default;
  // Creates a rows x cols all-false matrix.
  BoolMatrix(int rows, int cols);

  // n x n identity.
  static BoolMatrix Identity(int n);
  // rows x cols all-true.
  static BoolMatrix Full(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  bool Get(int r, int c) const;
  void Set(int r, int c, bool value = true);

  // Boolean matrix product; requires cols() == other.rows().
  BoolMatrix Multiply(const BoolMatrix& other) const;
  // Products with a set of indices held in one word (bit i = index i), read
  // off the stored rows without building a matrix. Both need rows() and
  // cols() <= 64.
  //   Push: rows · M, the OR of the rows in `rows` (bits < rows() only).
  //   Pull: M · cols, the rows whose word meets `cols`.
  uint64_t Push(uint64_t rows) const;
  uint64_t Pull(uint64_t cols) const;
  BoolMatrix Transpose() const;
  // Element-wise OR; requires equal dimensions.
  BoolMatrix Or(const BoolMatrix& other) const;

  // True iff every entry of *this that is set is also set in other.
  bool IsSubsetOf(const BoolMatrix& other) const;
  // True iff no entry is set.
  bool IsZero() const;
  // True iff every entry is set.
  bool IsFull() const;
  // True iff row r has at least one set entry.
  bool RowAny(int r) const;
  // True iff column c has at least one set entry.
  bool ColAny(int c) const;
  // Number of set entries.
  int CountOnes() const;

  bool operator==(const BoolMatrix& other) const;
  bool operator!=(const BoolMatrix& other) const { return !(*this == other); }

  // Multi-line "0/1" rendering, e.g. "[1 1]\n[0 1]".
  std::string ToString() const;

  // Approximate serialized size in bits (one bit per entry); used by the
  // view-label space accounting in the benchmarks.
  int64_t SizeBits() const { return int64_t{1} * rows_ * cols_; }

 private:
  const uint64_t* Row(int r) const { return bits_.data() + r * words_per_row_; }
  uint64_t* Row(int r) { return bits_.data() + r * words_per_row_; }

  int rows_ = 0;
  int cols_ = 0;
  int words_per_row_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace fvl

#endif  // FVL_UTIL_BOOLEAN_MATRIX_H_
