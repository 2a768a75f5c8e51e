//===- support/Histogram.h - Log-linear latency histogram -------*- C++ -*-===//
//
// Part of Renaissance-C++, a reproduction of the PLDI'19 Renaissance paper.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The suite's one distribution type: the netsim load generator records
/// request latencies into it, and the trace profile records park, monitor
/// blocked and heap reclaim durations.
///
//===----------------------------------------------------------------------===//

#ifndef REN_SUPPORT_HISTOGRAM_H
#define REN_SUPPORT_HISTOGRAM_H

#include <atomic>
#include <cstdint>

namespace ren {

/// A fixed-footprint log-linear latency histogram (HdrHistogram in
/// miniature): power-of-two majors split into 32 linear minors, ~3% value
/// precision, lock-free relaxed-atomic buckets so completion callbacks on
/// different reactor shards never contend. Values are nanoseconds.
class Histogram {
public:
  /// Linear up to 32ns, then 32 minors per power of two; 64-bit range.
  static constexpr unsigned kBuckets = 1920;

  Histogram() = default;
  Histogram(const Histogram &Other) { copyFrom(Other); }
  Histogram &operator=(const Histogram &Other) {
    if (this != &Other)
      copyFrom(Other);
    return *this;
  }

  /// Records one value. Thread-safe, wait-free.
  void record(uint64_t Nanos);

  /// Total recorded samples.
  uint64_t count() const;

  /// Largest value recorded (exact, not bucket-rounded).
  uint64_t maxValue() const { return Max.load(std::memory_order_relaxed); }

  /// Value at quantile \p Q in [0, 1]: the upper edge of the bucket the
  /// quantile falls in (<= ~3% above the true value). Returns 0 when
  /// empty; Q >= 1 returns maxValue().
  uint64_t valueAtQuantile(double Q) const;

  void reset();

  /// Maps a value to its bucket (exposed for the unit tests).
  static unsigned bucketIndex(uint64_t V);
  /// Inclusive upper value edge of bucket \p Index.
  static uint64_t bucketUpperBound(unsigned Index);

private:
  void copyFrom(const Histogram &Other);

  std::atomic<uint64_t> Buckets[kBuckets] = {};
  std::atomic<uint64_t> Max{0};
};

} // namespace ren

#endif // REN_SUPPORT_HISTOGRAM_H
