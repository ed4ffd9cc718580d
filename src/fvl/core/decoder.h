// The decoding predicate π (§4.4, Algorithm 2): decides, from two data
// labels and one view label alone, whether d2 depends on d1 w.r.t. the view.
//
// π carries a set of ports (a uint64_t, bit p = port p) instead of matrix
// products: it pulls d1's producer port o1 up l1 through O factors (O · u),
// crosses the fork, and pushes down l2 through I factors (u · I) to d2's
// consumer port i2. Cases (paper numbering):
//   I    d1 is a final output or d2 an initial input      -> false
//   II   d1 initial, d2 final                             -> λ*(S)[x, y]
//   III  d1 initial, d2 intermediate                      -> push x down l2
//   IV   d1 intermediate, d2 final                        -> pull o1 up l1
//   1    producer path of d1 equals / prefixes consumer path of d2 (or
//        vice versa)                                      -> false
//   2a   paths fork at a module node: cross through Z
//   2b   paths fork at a recursive node: cross through Z and a cycle walk
//        with the §4.4.2 bookkeeping, the Inputs walk after Z for i < j and
//        the Outputs walk before Z for i > j (a case the paper elides).
//
// A step undefined in the view (an item is invisible in it) empties the
// set, so π conservatively returns false (use visibility.h to distinguish).
// On a Query-Efficient label π allocates nothing.
//
// Both labels must lie inside the grammar (ProvenanceService vets untrusted
// ones with LabelInBounds); matrix words are read unchecked. π is defined
// over two labels of one run. For labels of two runs of one specification
// the answer is unspecified, but the call returns: paths that fork where
// the runs expanded a module differently answer false.
//
// MatrixFreeDecoder is the §6.4 specialization for black-box views, where
// every matrix is complete or empty and the predicate reduces to one
// member-level reachability bit at the fork point.

#ifndef FVL_CORE_DECODER_H_
#define FVL_CORE_DECODER_H_

#include <vector>

#include "fvl/core/data_label.h"
#include "fvl/core/view_label.h"

namespace fvl {

class Decoder {
 public:
  // The view label must outlive the decoder.
  explicit Decoder(const ViewLabel* view) : view_(view) {}

  // π(φr(d1), φr(d2), φv(U)).
  bool Depends(const DataLabel& d1, const DataLabel& d2) const;

 private:
  const ViewLabel* view_;
};

// §6.4 Matrix-Free FVL for coarse-grained (black-box) views. Precomputes one
// member-to-member reachability bit per production pair; queries perform no
// matrix algebra. Requires view.IsBlackBox() — under Def. 8 (complete
// dependencies, single-source/single-sink workflows) its answers coincide
// with Decoder's.
class MatrixFreeDecoder {
 public:
  MatrixFreeDecoder(const ProductionGraph* pg, const ViewLabel* view);

  bool Depends(const DataLabel& d1, const DataLabel& d2) const;

  int64_t SizeBits() const;

 private:
  bool MemberReaches(ProductionId k, int i, int j) const {
    if (reach_bits_[k].empty()) return false;  // production not in the view
    return reach_bits_[k][i * members_[k] + j];
  }

  const ProductionGraph* pg_;
  const ViewLabel* view_;
  std::vector<int> members_;
  std::vector<std::vector<bool>> reach_bits_;
};

}  // namespace fvl

#endif  // FVL_CORE_DECODER_H_
