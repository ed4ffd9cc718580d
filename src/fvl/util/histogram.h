// Log-bucketed latency histogram for the network workload drivers.
//
// Record() is O(1) and allocation-free; buckets grow geometrically (64
// major powers of two, 32 sub-buckets each — ~3% relative resolution), so
// one fixed-size array covers nanoseconds through hours. Percentile()
// returns the representative value of the bucket containing the requested
// rank, which is exact to the bucket resolution — the right trade for
// p50/p95/p99 reporting where a 3% error bar is far below run-to-run
// noise (the HdrHistogram idiom, sized down).
//
// A LatencyHistogram is single-writer; per-thread instances are combined
// with Merge() after the measured phase (bench/ycsb_driver.cc).

#ifndef FVL_UTIL_HISTOGRAM_H_
#define FVL_UTIL_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace fvl {

class LatencyHistogram {
 public:
  // Records one sample (any non-negative value; the unit is the caller's —
  // the drivers record microseconds). Negative values clamp to 0.
  void Record(int64_t value);

  // Adds every bucket of `other` into this histogram.
  void Merge(const LatencyHistogram& other);

  int64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  // Value at quantile q in [0, 1] (q=0.5 → p50). Exact to the ~3% bucket
  // resolution; 0 for an empty histogram. The true min/max are tracked
  // exactly, so Percentile(0)/Percentile(1) are not quantized.
  int64_t Percentile(double q) const;

 private:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per power of two
  static constexpr int kMajor = 64 - kSubBits;
  static constexpr int kBuckets = (kMajor + 1) << kSubBits;

  static int BucketOf(int64_t value);
  static int64_t BucketValue(int bucket);

  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace fvl

#endif  // FVL_UTIL_HISTOGRAM_H_
