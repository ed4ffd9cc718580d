// ShardedCache — a fixed-footprint, sharded, direct-mapped cache with a
// frequency-based (CLOCK / second-chance) admission policy, the primitive
// behind the snapshot-lifetime serving cache (core/serving_cache.h).
//
// Design constraints, in order:
//
//   1. Bounded memory, paid for on use. Capacity is fixed at construction;
//      no entry is ever heap-chained. A shard allocates its slots on the
//      first Insert that hashes into it and never grows after that, so a
//      cache costs at most O(capacity), and one never inserted into costs
//      only its shard headers. Every frozen snapshot owns a cache, so a
//      server's memory follows the snapshots it queries, not the number it
//      has frozen, and construction stays O(shards), keeping the O(delta)
//      snapshot contract intact.
//   2. Skew-friendly admission. Each slot carries a small frequency
//      counter: hits increment it, and an insert that collides with a
//      *different* resident key decrements the resident instead of evicting
//      it, replacing only when the counter reaches zero. Under zipfian
//      traffic a hot resident out-earns the stream of cold one-shot keys
//      that hash onto its slot, so the cache converges on the head of the
//      distribution instead of thrashing on the tail (the DMCache/CLOCK
//      idiom; see docs/ARCHITECTURE.md).
//   3. Checkable locking. One fvl::Mutex per shard, slots FVL_GUARDED_BY
//      it, so the thread-safety CI lane verifies every access path; hit/
//      miss counters are relaxed atomics, safe to read live from any
//      thread (docs/CONCURRENCY.md lock table).
//
// Lookup/Insert are wait-short (one shard lock, one slot probe) and safe
// from any number of threads. A Lookup on a shard that holds no slots yet is
// a counted miss, exactly what an all-empty shard answers. A zero-capacity
// cache is valid and simply never hits — callers need no special case.

#ifndef FVL_UTIL_SHARDED_CACHE_H_
#define FVL_UTIL_SHARDED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fvl/util/thread_annotations.h"

namespace fvl {

// Snapshot of a cache's counters (monotonic since construction).
struct ShardedCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;  // slots installed or refreshed
  uint64_t rejections = 0;  // inserts refused by the admission policy

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedCache {
 public:
  // `capacity` is the total slot count across all shards; 0 is a valid
  // always-miss cache. Shard count scales with capacity so small caches do
  // not pay 16 mutexes for 8 slots.
  explicit ShardedCache(int capacity) {
    const int shards = capacity >= 4096 ? 16 : capacity >= 256 ? 4 : 1;
    slots_per_shard_ =
        capacity <= 0 ? 0 : (capacity + shards - 1) / shards;
    shards_.reserve(shards);
    for (int s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  int capacity() const {
    return static_cast<int>(shards_.size()) * slots_per_shard_;
  }

  // Slots currently backed by memory: capacity() once every shard has seen
  // an Insert, 0 for a cache nothing was ever offered to.
  int allocated_slots() const {
    int total = 0;
    for (const auto& shard : shards_) {
      MutexLock lock(&shard->mu);
      total += static_cast<int>(shard->slots.size());
    }
    return total;
  }

  // Copies the resident value into *out and returns true on a hit; a hit
  // also bumps the slot's frequency (capped), which is what makes the
  // resident resistant to eviction by colliding cold keys.
  bool Lookup(const Key& key, Value* out) const {
    const uint64_t h = Mix(static_cast<uint64_t>(Hash{}(key)));
    Shard& shard = *shards_[h % shards_.size()];
    MutexLock lock(&shard.mu);
    if (shard.slots.empty()) {  // never inserted into (or zero capacity)
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Slot& slot = shard.slots[(h / shards_.size()) % slots_per_shard_];
    if (slot.occupied && slot.key == key) {
      *out = slot.value;
      if (slot.freq < kMaxFreq) ++slot.freq;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Offers (key, value) to the cache, allocating the shard's slots if this
  // is its first insert. An empty slot installs it; the same key refreshes
  // it. A slot holding a *different* key applies second chance: the
  // resident's frequency is decremented and the insert is rejected until
  // the counter reaches zero — a key must collide repeatedly (i.e. actually
  // be warm) to displace an established resident.
  void Insert(const Key& key, const Value& value) {
    if (slots_per_shard_ == 0) return;
    const uint64_t h = Mix(static_cast<uint64_t>(Hash{}(key)));
    Shard& shard = *shards_[h % shards_.size()];
    MutexLock lock(&shard.mu);
    if (shard.slots.empty()) shard.slots.resize(slots_per_shard_);
    Slot& slot = shard.slots[(h / shards_.size()) % slots_per_shard_];
    if (slot.occupied && slot.key == key) {
      slot.value = value;
      if (slot.freq < kMaxFreq) ++slot.freq;
      insertions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (slot.occupied && slot.freq > 0) {
      --slot.freq;
      rejections_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    slot.occupied = true;
    slot.key = key;
    slot.value = value;
    slot.freq = 1;
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }

  ShardedCacheStats stats() const {
    ShardedCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.insertions = insertions_.load(std::memory_order_relaxed);
    s.rejections = rejections_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  // Hits saturate the counter here; a resident at the cap survives this
  // many colliding cold inserts before second chance evicts it.
  static constexpr uint8_t kMaxFreq = 3;

  struct Slot {
    Key key{};
    Value value{};
    uint8_t freq = 0;
    bool occupied = false;
  };

  struct Shard {
    mutable Mutex mu;
    // Empty until the first Insert into this shard, then slots_per_shard_.
    std::vector<Slot> slots FVL_GUARDED_BY(mu);
  };

  // SplitMix64 finalizer: std::hash is the identity for integral keys, so
  // without mixing every small key would land in shard (key % shards) and
  // the high bits used for slot selection would be all zero.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  // unique_ptr because Shard owns a Mutex (non-movable).
  std::vector<std::unique_ptr<Shard>> shards_;
  int slots_per_shard_ = 0;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> rejections_{0};
};

}  // namespace fvl

#endif  // FVL_UTIL_SHARDED_CACHE_H_
