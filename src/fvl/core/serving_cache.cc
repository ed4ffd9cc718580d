#include "fvl/core/serving_cache.h"

#include <algorithm>
#include <memory>

namespace fvl {
namespace {

// Decoded labels are expensive entries (two PortLabel paths, heap
// vectors), so the cache stops growing at 8k slots, which keeps a fully
// used per-snapshot cache under ~2 MB even for the largest indexes the
// benches build. Slots are allocated per shard on first insert, so this
// is a ceiling, not a cost.
constexpr int kMaxLabelSlots = 8192;

// Hits saturate the counter here; a resident at the cap survives this
// many colliding cold inserts before second chance evicts it.
constexpr uint8_t kMaxFreq = 3;

// The key's hash: its shard is hash % shards, its slot within the shard
// (hash / shards) % slots per shard.
uint64_t Hash(int item) {
  // SplitMix64 finalizer: without it, consecutive items would differ only
  // in their low bits, so they would crowd shard (item % shards) and the
  // high bits used for slot selection would barely move.
  uint64_t x = static_cast<uint32_t>(item) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ServingCache::ServingCache(int num_items) {
  const int capacity = std::min(num_items, kMaxLabelSlots);
  // Shard count scales with capacity so small caches do not pay 16
  // mutexes for 8 slots.
  const int shards = capacity >= 4096 ? 16 : capacity >= 256 ? 4 : 1;
  slots_per_shard_ = capacity <= 0 ? 0 : (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

int ServingCache::allocated_slots() const {
  int total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += static_cast<int>(shard->slots.size());
  }
  return total;
}

bool ServingCache::LookupLabel(int item, DataLabel* out) const {
  const uint64_t h = Hash(item);
  Shard& shard = *shards_[h % shards_.size()];
  MutexLock lock(&shard.mu);
  if (shard.slots.empty()) {  // never inserted into (or zero capacity)
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Slot& slot = shard.slots[(h / shards_.size()) % slots_per_shard_];
  if (slot.occupied && slot.item == item) {
    *out = slot.label;
    if (slot.freq < kMaxFreq) ++slot.freq;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ServingCache::InsertLabel(int item, const DataLabel& label) {
  if (slots_per_shard_ == 0) return;
  const uint64_t h = Hash(item);
  Shard& shard = *shards_[h % shards_.size()];
  MutexLock lock(&shard.mu);
  if (shard.slots.empty()) shard.slots.resize(slots_per_shard_);
  Slot& slot = shard.slots[(h / shards_.size()) % slots_per_shard_];
  if (slot.occupied && slot.item == item) {
    slot.label = label;
    if (slot.freq < kMaxFreq) ++slot.freq;
    return;
  }
  if (slot.occupied && slot.freq > 0) {
    --slot.freq;
    return;
  }
  slot.occupied = true;
  slot.item = item;
  slot.label = label;
  slot.freq = 1;
}

ServingCacheStats ServingCache::stats() const {
  ServingCacheStats s;
  s.label_hits = hits_.load(std::memory_order_relaxed);
  s.label_misses = misses_.load(std::memory_order_relaxed);
  s.reach_misses = evaluations_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fvl
