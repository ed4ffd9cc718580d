#include "fvl/util/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace fvl {

int LatencyHistogram::BucketOf(int64_t value) {
  if (value < 0) value = 0;
  uint64_t v = static_cast<uint64_t>(value);
  // Values below 2^kSubBits get one bucket each (exact); above, the top
  // kSubBits bits after the leading one select the sub-bucket.
  if (v < (uint64_t{1} << kSubBits)) return static_cast<int>(v);
  int exponent = 63 - std::countl_zero(v);  // >= kSubBits
  int sub = static_cast<int>((v >> (exponent - kSubBits)) &
                             ((uint64_t{1} << kSubBits) - 1));
  return ((exponent - kSubBits + 1) << kSubBits) + sub;
}

int64_t LatencyHistogram::BucketValue(int bucket) {
  if (bucket < (1 << kSubBits)) return bucket;
  int exponent = (bucket >> kSubBits) + kSubBits - 1;
  int sub = bucket & ((1 << kSubBits) - 1);
  // Midpoint of the bucket's value range.
  uint64_t base = (uint64_t{1} << exponent) +
                  (static_cast<uint64_t>(sub) << (exponent - kSubBits));
  uint64_t width = uint64_t{1} << (exponent - kSubBits);
  return static_cast<int64_t>(base + width / 2);
}

void LatencyHistogram::Record(int64_t value) {
  if (value < 0) value = 0;
  buckets_[BucketOf(value)] += 1;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += 1;
  sum_ += value;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

int64_t LatencyHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Rank of the requested quantile, 1-based (nearest-rank definition:
  // the smallest rank whose sample covers a q share of all samples).
  const int64_t rank = std::clamp(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))),
      int64_t{1}, count_);
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      return std::clamp(BucketValue(b), min_, max_);
    }
  }
  return max_;
}

}  // namespace fvl
