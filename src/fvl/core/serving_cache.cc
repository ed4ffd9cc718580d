#include "fvl/core/serving_cache.h"

#include <algorithm>
#include <memory>

namespace fvl {
namespace {

// Decoded labels are expensive entries (two PortLabel paths, heap
// vectors), so the cache stops growing at 8k slots, which keeps a fully
// used per-snapshot cache under ~2 MB even for the largest indexes the
// benches build. This is a ceiling, not a cost: ShardedCache allocates a
// shard's slots on its first insert, so a snapshot nobody queries holds no
// slots, and one queried for a few hot items holds only the shards those
// items hash into.
constexpr int kMaxLabelSlots = 8192;

}  // namespace

ServingCache::ServingCache(int num_items)
    : labels_(std::min(num_items, kMaxLabelSlots)) {}

ServingCacheStats ServingCache::stats() const {
  const ShardedCacheStats labels = labels_.stats();
  ServingCacheStats s;
  s.label_hits = labels.hits;
  s.label_misses = labels.misses;
  s.reach_misses = evaluations_.load(std::memory_order_relaxed);
  return s;
}

namespace internal {

std::shared_ptr<ServingCache> MakeServingCache(int num_items) {
  if (num_items <= 0) return nullptr;
  return std::make_shared<ServingCache>(num_items);
}

}  // namespace internal

}  // namespace fvl
