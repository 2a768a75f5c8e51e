//===- support/Histogram.cpp ----------------------------------------------==//

#include "support/Histogram.h"

#include <algorithm>
#include <cassert>

using namespace ren;

unsigned Histogram::bucketIndex(uint64_t V) {
  if (V < 32)
    return static_cast<unsigned>(V);
  unsigned Bits = 64 - static_cast<unsigned>(__builtin_clzll(V));
  unsigned Exp = Bits - 6;
  unsigned Sub = static_cast<unsigned>(V >> Exp); // in [32, 64)
  return Exp * 32 + Sub;
}

uint64_t Histogram::bucketUpperBound(unsigned Index) {
  assert(Index < kBuckets && "bucket out of range");
  if (Index < 32)
    return Index;
  unsigned Exp = Index / 32 - 1;
  uint64_t Sub = Index - static_cast<uint64_t>(Exp) * 32; // in [32, 64)
  return ((Sub + 1) << Exp) - 1;
}

void Histogram::record(uint64_t Nanos) {
  Buckets[bucketIndex(Nanos)].fetch_add(1, std::memory_order_relaxed);
  uint64_t Seen = Max.load(std::memory_order_relaxed);
  while (Seen < Nanos &&
         !Max.compare_exchange_weak(Seen, Nanos, std::memory_order_relaxed))
    ;
}

uint64_t Histogram::count() const {
  uint64_t Total = 0;
  for (const auto &B : Buckets)
    Total += B.load(std::memory_order_relaxed);
  return Total;
}

uint64_t Histogram::valueAtQuantile(double Q) const {
  uint64_t Total = count();
  if (Total == 0)
    return 0;
  if (Q >= 1.0)
    return maxValue();
  if (Q < 0.0)
    Q = 0.0;
  // 1-based rank of the sample at quantile Q.
  uint64_t Target = static_cast<uint64_t>(Q * static_cast<double>(Total)) + 1;
  Target = std::min(Target, Total);
  uint64_t Cum = 0;
  for (unsigned I = 0; I < kBuckets; ++I) {
    Cum += Buckets[I].load(std::memory_order_relaxed);
    if (Cum >= Target)
      return std::min(bucketUpperBound(I), maxValue());
  }
  return maxValue();
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
}

void Histogram::copyFrom(const Histogram &Other) {
  for (unsigned I = 0; I < kBuckets; ++I)
    Buckets[I].store(Other.Buckets[I].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  Max.store(Other.Max.load(std::memory_order_relaxed),
            std::memory_order_relaxed);
}
