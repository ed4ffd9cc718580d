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
// Thread safety: the cache is a ShardedCache (per-shard fvl::Mutex,
// FVL_GUARDED_BY slots); counters are relaxed atomics readable live from
// any thread (net::ProvenanceServer aggregates them into ServerStats).

#ifndef FVL_CORE_SERVING_CACHE_H_
#define FVL_CORE_SERVING_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "fvl/core/data_label.h"
#include "fvl/util/sharded_cache.h"

namespace fvl {

// Identity of one cached decoded label. The service tag is part of the key
// because LabelInBounds vetting is grammar-specific: two services can share
// an index (codec widths match) while differing structurally, and neither
// may consume labels only the other vetted.
struct LabelCacheKey {
  uint64_t service_tag = 0;  // the ProvenanceService whose vetting admitted it
  int32_t item = -1;         // item id in the owning index's id space

  friend bool operator==(const LabelCacheKey&, const LabelCacheKey&) = default;
};

struct LabelCacheKeyHash {
  size_t operator()(const LabelCacheKey& k) const {
    uint64_t h = k.service_tag;
    h = h * 1099511628211ull ^ static_cast<uint32_t>(k.item);
    return static_cast<size_t>(h);
  }
};

// Counter snapshot; feeds net::ServerStats and the bench columns.
struct ServingCacheStats {
  uint64_t label_hits = 0;
  uint64_t label_misses = 0;
  // Always 0: there is no reachability memo. The field keeps the shape
  // the kStats body and its readers expect, until kStats describes its
  // own fields.
  uint64_t reach_hits = 0;
  // Same-run pairs the predicate evaluated (cross-run pairs are answered
  // false without it).
  uint64_t reach_misses = 0;

  double LabelHitRate() const {
    const uint64_t total = label_hits + label_misses;
    return total == 0 ? 0.0 : static_cast<double>(label_hits) / total;
  }
};

class ServingCache {
 public:
  // The label cache covers the whole snapshot up to a cap (labels are a
  // few hundred bytes decoded).
  explicit ServingCache(int num_items);

  ServingCache(const ServingCache&) = delete;
  ServingCache& operator=(const ServingCache&) = delete;

  bool LookupLabel(uint64_t service_tag, int item, DataLabel* out) const {
    return labels_.Lookup(LabelCacheKey{service_tag, item}, out);
  }
  void InsertLabel(uint64_t service_tag, int item, const DataLabel& label) {
    labels_.Insert(LabelCacheKey{service_tag, item}, label);
  }

  // Counts predicate evaluations (ServingCacheStats::reach_misses).
  void CountEvaluations(uint64_t pairs) {
    evaluations_.fetch_add(pairs, std::memory_order_relaxed);
  }

  ServingCacheStats stats() const;

 private:
  ShardedCache<LabelCacheKey, DataLabel, LabelCacheKeyHash> labels_;
  std::atomic<uint64_t> evaluations_{0};
};

namespace internal {

// Cache factory for index constructors: null for an empty snapshot (a
// zero-item delta or a default-constructed merged index allocates nothing).
std::shared_ptr<ServingCache> MakeServingCache(int num_items);

}  // namespace internal

}  // namespace fvl

#endif  // FVL_CORE_SERVING_CACHE_H_
