// Test-only backdoor into LabelStore for invariants the public API
// maintains by construction: the coverage regressions need a store whose
// spans do *not* cover its streams, which no public path can produce, and
// the stream sizes and the skip-table bound the span cursor relies on are
// internal layout.

#ifndef FVL_TESTS_LABEL_STORE_TEST_PEER_H_
#define FVL_TESTS_LABEL_STORE_TEST_PEER_H_

#include <cstdint>
#include <vector>

#include "fvl/core/label_store.h"
#include "fvl/util/check.h"

namespace fvl {

class LabelStoreTestPeer {
 public:
  // Appends one raw bit to the arena without accounting for it:
  // arena_bits() < arena_.size_bits().
  static void UncoverLastArenaBit(LabelStore* store) {
    FVL_CHECK(store->arena_bits() > 0);
    store->arena_.WriteFixed(0, 1);
  }
  // Size of the length stream: one gamma code per item, nothing else.
  static int64_t MetaBits(const LabelStore& store) {
    return store.meta_.size_bits();
  }
  // Size of the arena, owned or borrowed: every label's payload.
  static int64_t ArenaStreamBits(const LabelStore& store) {
    return store.arena_size_bits();
  }
  // First item of every skip-table checkpoint, in table order.
  static std::vector<int64_t> SkipItems(const LabelStore& store) {
    std::vector<int64_t> items;
    for (const LabelStore::Skip& skip : store.skips_) {
      items.push_back(skip.first_item);
    }
    return items;
  }
};

}  // namespace fvl

#endif  // FVL_TESTS_LABEL_STORE_TEST_PEER_H_
