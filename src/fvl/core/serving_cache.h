// ServingCache — the skew-aware serving layer owned by a frozen index.
//
// Two caches, both bounded and both scoped to one immutable snapshot:
//
//   * a decoded-label cache ((service tag, item id) -> DataLabel), so a
//     hot item's label is decoded from the bit arena once per snapshot
//     instead of once per batch;
//   * a reachability memo ((service, view, mode, src, dst) -> answer), so a
//     hot query pair skips decoding *and* the predicate entirely.
//
// Ownership is the whole invalidation story: the cache lives inside the
// ProvenanceIndex it serves (shared by copies of that index) and dies
// with the snapshot. The underlying store is frozen,
// so entries can never go stale — there is no invalidate path at all.
//
// Correctness-by-construction rules (relied on by the differential tests):
//
//   * Labels enter the cache only after ProvenanceService::LabelInBounds
//     vetting, and the cache key carries the tag of the service that vetted
//     them — LabelInBounds walks the *service's* grammar, so a label vetted
//     by one service proves nothing to another even when both accept this
//     index's codec widths (CheckIndexCompatible compares widths only). A
//     hit is therefore exactly the label the querying service's uncached
//     path would have decoded and accepted.
//   * The memo stores only answers the decoder actually produced for this
//     snapshot, keyed on the full (service tag, view id, mode, src, dst)
//     tuple with exact key comparison — a hit can only replay an answer
//     that the uncached path would recompute bit-identically.
//
// Thread safety: both caches are ShardedCache (per-shard fvl::Mutex,
// FVL_GUARDED_BY slots); counters are relaxed atomics readable live from
// any thread (net::ProvenanceServer aggregates them into ServerStats).

#ifndef FVL_CORE_SERVING_CACHE_H_
#define FVL_CORE_SERVING_CACHE_H_

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

// Full identity of one memoized reachability answer. Every field takes part
// in equality — there is no packed/lossy form — so distinct queries can
// never alias one memo entry.
struct ReachMemoKey {
  uint64_t service_tag = 0;  // issuing ProvenanceService (process-unique)
  int32_t view_id = -1;
  int32_t mode = 0;  // ViewLabelMode ordinal
  int32_t d1 = -1;   // item ids in the owning index's id space
  int32_t d2 = -1;   // (flat/global ids for a merged index)

  friend bool operator==(const ReachMemoKey&, const ReachMemoKey&) = default;
};

struct ReachMemoKeyHash {
  size_t operator()(const ReachMemoKey& k) const {
    uint64_t h = k.service_tag;
    h = h * 1099511628211ull ^ static_cast<uint32_t>(k.view_id);
    h = h * 1099511628211ull ^ static_cast<uint32_t>(k.mode);
    h = h * 1099511628211ull ^ static_cast<uint32_t>(k.d1);
    h = h * 1099511628211ull ^ static_cast<uint32_t>(k.d2);
    return static_cast<size_t>(h);
  }
};

// Counter snapshot; hit rates feed net::ServerStats and the bench columns.
struct ServingCacheStats {
  uint64_t label_hits = 0;
  uint64_t label_misses = 0;
  uint64_t reach_hits = 0;
  uint64_t reach_misses = 0;

  double LabelHitRate() const {
    const uint64_t total = label_hits + label_misses;
    return total == 0 ? 0.0 : static_cast<double>(label_hits) / total;
  }
  double ReachHitRate() const {
    const uint64_t total = reach_hits + reach_misses;
    return total == 0 ? 0.0 : static_cast<double>(reach_hits) / total;
  }
};

class ServingCache {
 public:
  // Capacities are sized from the snapshot: the label cache covers the
  // whole snapshot up to a cap (labels are a few hundred bytes decoded),
  // the memo covers a multiple of it (entries are a few dozen bytes).
  explicit ServingCache(int num_items);

  ServingCache(const ServingCache&) = delete;
  ServingCache& operator=(const ServingCache&) = delete;

  bool LookupLabel(uint64_t service_tag, int item, DataLabel* out) const {
    return labels_.Lookup(LabelCacheKey{service_tag, item}, out);
  }
  void InsertLabel(uint64_t service_tag, int item, const DataLabel& label) {
    labels_.Insert(LabelCacheKey{service_tag, item}, label);
  }

  bool LookupReach(const ReachMemoKey& key, bool* answer) const {
    char resident = 0;
    if (!reach_.Lookup(key, &resident)) return false;
    *answer = resident != 0;
    return true;
  }
  void InsertReach(const ReachMemoKey& key, bool answer) {
    reach_.Insert(key, answer ? char{1} : char{0});
  }

  ServingCacheStats stats() const;

 private:
  ShardedCache<LabelCacheKey, DataLabel, LabelCacheKeyHash> labels_;
  ShardedCache<ReachMemoKey, char, ReachMemoKeyHash> reach_;
};

namespace internal {

// Cache factory for index constructors: null for an empty snapshot (a
// zero-item delta or a default-constructed merged index allocates nothing).
std::shared_ptr<ServingCache> MakeServingCache(int num_items);

}  // namespace internal

}  // namespace fvl

#endif  // FVL_CORE_SERVING_CACHE_H_
