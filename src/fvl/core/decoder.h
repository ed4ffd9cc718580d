// The decoding predicate π (§4.4, Algorithm 2): decides, from two data
// labels and one view label alone, whether d2 depends on d1 w.r.t. the view.
//
// Cases (paper numbering):
//   I    d1 is a final output or d2 an initial input      -> false
//   II   d1 initial, d2 final                             -> λ*(S)[x, y]
//   III  d1 initial, d2 intermediate                      -> Π Inputs over l2
//   IV   d1 intermediate, d2 final                        -> Π Outputs over l1
//   1    producer path of d1 equals / prefixes consumer path of d2 (or
//        vice versa)                                      -> false
//   2a   paths fork at a module node: Oᵀ · Z · I
//   2b   paths fork at a recursive node: Oᵀ · Z · I' · I with the §4.4.2
//        cycle bookkeeping — both the paper's i < j case and the symmetric
//        i > j case (elided in the paper) are implemented.
//
// Any undefined matrix lookup means one of the items is invisible in the
// view; π conservatively returns false (use visibility.h to distinguish).
//
// Both labels must lie inside the grammar (ProvenanceService vets untrusted
// ones with LabelInBounds); the matrices are read unchecked. π is defined
// over two labels of one run. For labels of two runs of one specification
// the answer is unspecified, but the call returns: paths that fork where
// the runs expanded a module differently answer false.
//
// MatrixFreeDecoder is the §6.4 specialization for black-box views, where
// every matrix is complete or empty and the predicate reduces to one
// member-level reachability bit at the fork point.

#ifndef FVL_CORE_DECODER_H_
#define FVL_CORE_DECODER_H_

#include <optional>
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
  // The I (kInputs) or O (kOutputs) matrix of one path edge: a production
  // edge's own matrix, a recursion edge's cycle walk.
  std::optional<BoolMatrix> Factor(PortSide side, const EdgeLabel& edge) const;
  // The product of Factor over path[from..]; the identity of identity_dims
  // when that range is empty, std::nullopt when a factor is undefined.
  std::optional<BoolMatrix> Chain(PortSide side,
                                  const std::vector<EdgeLabel>& path,
                                  size_t from, int identity_dims) const;

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
