// ServingCache — the skew-aware serving layer owned by a frozen index.
//
// One bounded cache scoped to one immutable snapshot: decoded labels keyed
// by (service tag, item id), so a hot item's label is decoded from the bit
// arena once per snapshot instead of once per batch. Only point-query
// batches (ProvenanceService::DependsMany) consult it. A visibility sweep
// touches every item once, so it could hit at most capacity/N of the time
// and would only evict the point-query hot set; sweeps decode through
// their own cursor and leave the cache alone. The predicate runs in
// constant time on two decoded labels, so there is no memo of its
// answers: a memo could only save the decode, which this cache already
// saves.
//
// Ownership is the whole invalidation story: the cache lives inside the
// ProvenanceIndex it serves (shared by copies of that index) and dies
// with the snapshot. The underlying store is frozen,
// so entries can never go stale — there is no invalidate path at all.
//
// Correctness by construction (relied on by the differential tests):
// labels enter the cache only after ProvenanceService::LabelInBounds
// vetting, and the cache key carries the tag of the service that vetted
// them — LabelInBounds walks the *service's* grammar, so a label vetted by
// one service proves nothing to another even when both accept this
// index's codec widths (CheckIndexCompatible compares widths only). A hit
// is therefore exactly the label the querying service would have decoded
// and accepted.
//
// Layout and policy, in order of the constraints they serve:
//
//   1. Bounded memory, paid for on use. The slot count is fixed at
//      construction and no entry is ever heap-chained. A shard allocates
//      its slots on the first insert that hashes into it and never grows
//      after that, so a snapshot nobody queries holds only its shard
//      headers, and construction stays O(shards), keeping the O(delta)
//      snapshot contract intact.
//   2. Skew-friendly admission. Slots are direct-mapped, and each carries a
//      small frequency counter: hits increment it, and an insert that
//      collides with a *different* resident key decrements the resident
//      instead of evicting it, replacing only when the counter reaches
//      zero. Under zipfian traffic a hot resident out-earns the stream of
//      cold one-shot keys that hash onto its slot, so the cache converges
//      on the head of the distribution instead of thrashing on the tail
//      (the DMCache/CLOCK idiom; see docs/ARCHITECTURE.md).
//   3. Checkable locking. One fvl::Mutex per shard, slots FVL_GUARDED_BY
//      it, so the thread-safety CI lane verifies every access path; a
//      lookup or insert is one slot probe under one shard lock. Counters
//      are relaxed atomics, readable live from any thread
//      (net::ProvenanceServer aggregates them into ServerStats).

#ifndef FVL_CORE_SERVING_CACHE_H_
#define FVL_CORE_SERVING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "fvl/core/data_label.h"
#include "fvl/util/thread_annotations.h"

namespace fvl {

// Counter snapshot; feeds net::ServerStats and the bench columns.
struct ServingCacheStats {
  uint64_t label_hits = 0;
  uint64_t label_misses = 0;
  // Always 0: there is no reachability memo. Kept for the in-process
  // readers of the struct; kStats does not send it.
  uint64_t reach_hits = 0;
  // Same-run pairs the predicate evaluated (cross-run pairs are answered
  // false without it); kStats sends it as predicate_evaluations.
  uint64_t reach_misses = 0;

  double LabelHitRate() const {
    const uint64_t total = label_hits + label_misses;
    return total == 0 ? 0.0 : static_cast<double>(label_hits) / total;
  }
};

class ServingCache {
 public:
  // One slot per item up to a cap (labels are a few hundred bytes
  // decoded); 0 items is a valid cache that never hits.
  explicit ServingCache(int num_items);

  ServingCache(const ServingCache&) = delete;
  ServingCache& operator=(const ServingCache&) = delete;

  // Total slots across all shards, allocated or not.
  int capacity() const {
    return static_cast<int>(shards_.size()) * slots_per_shard_;
  }
  // Slots currently backed by memory: capacity() once every shard has seen
  // an insert, 0 for a cache nothing was ever offered to.
  int allocated_slots() const;

  // Copies the label `service_tag` vetted for `item` into *out and returns
  // true on a hit; a hit also bumps the slot's frequency (capped), which is
  // what makes the resident resistant to eviction by colliding cold keys.
  // A shard with no slots yet answers a counted miss.
  bool LookupLabel(uint64_t service_tag, int item, DataLabel* out) const;
  // Offers a vetted label. An empty slot installs it and the same key
  // refreshes it. A slot holding a *different* key applies second chance:
  // the resident's frequency is decremented and the insert is refused
  // until the counter reaches zero, so a key must collide repeatedly
  // (i.e. actually be warm) to displace an established resident.
  void InsertLabel(uint64_t service_tag, int item, const DataLabel& label);

  // Counts predicate evaluations (ServingCacheStats::reach_misses).
  void CountEvaluations(uint64_t pairs) {
    evaluations_.fetch_add(pairs, std::memory_order_relaxed);
  }

  ServingCacheStats stats() const;

 private:
  struct Slot {
    uint64_t service_tag = 0;
    int32_t item = -1;
    DataLabel label;
    uint8_t freq = 0;
    bool occupied = false;
  };

  struct Shard {
    mutable Mutex mu;
    // Empty until the first insert into this shard, then slots_per_shard_.
    std::vector<Slot> slots FVL_GUARDED_BY(mu);
  };

  // unique_ptr because Shard owns a Mutex (non-movable).
  std::vector<std::unique_ptr<Shard>> shards_;
  int slots_per_shard_ = 0;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evaluations_{0};
};

}  // namespace fvl

#endif  // FVL_CORE_SERVING_CACHE_H_
