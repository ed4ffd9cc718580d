#include "fvl/core/serving_cache.h"

#include <algorithm>
#include <memory>

namespace fvl {
namespace {

// Decoded labels are the expensive entries (two PortLabel paths, heap
// vectors), so the label cache stops growing at 8k slots; memo entries are
// tens of bytes, so the memo covers a multiple of the snapshot before its
// own (larger) cap. Both caps keep a fully used per-snapshot cache under
// ~2 MB even for the largest indexes the benches build. These are ceilings,
// not costs: ShardedCache allocates a shard's slots on its first insert, so
// a snapshot nobody queries holds no slots, and one queried for a few hot
// items holds only the shards those items hash into.
constexpr int kMaxLabelSlots = 8192;
constexpr int kMaxReachSlots = 1 << 15;
constexpr int kMinReachSlots = 64;

int LabelSlots(int num_items) { return std::min(num_items, kMaxLabelSlots); }

int ReachSlots(int num_items) {
  // Pairs outnumber items; 4x the snapshot holds the hot head of a zipfian
  // pair distribution without pretending to cover the quadratic tail.
  if (num_items <= 0) return 0;
  if (num_items > kMaxReachSlots / 4) return kMaxReachSlots;
  return std::max(kMinReachSlots, 4 * num_items);
}

}  // namespace

ServingCache::ServingCache(int num_items)
    : labels_(LabelSlots(num_items)), reach_(ReachSlots(num_items)) {}

ServingCacheStats ServingCache::stats() const {
  const ShardedCacheStats labels = labels_.stats();
  const ShardedCacheStats reach = reach_.stats();
  ServingCacheStats s;
  s.label_hits = labels.hits;
  s.label_misses = labels.misses;
  s.reach_hits = reach.hits;
  s.reach_misses = reach.misses;
  return s;
}

namespace internal {

std::shared_ptr<ServingCache> MakeServingCache(int num_items) {
  if (num_items <= 0) return nullptr;
  return std::make_shared<ServingCache>(num_items);
}

}  // namespace internal

}  // namespace fvl
