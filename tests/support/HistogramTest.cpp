//===- tests/support/HistogramTest.cpp ------------------------------------==//

#include "support/Histogram.h"

#include <gtest/gtest.h>

using namespace ren;

TEST(HistogramTest, BucketsCoverTheRangeInOrder) {
  // Exact below 32; bounded ~3% relative error above.
  for (uint64_t V : {0ull, 1ull, 31ull}) {
    unsigned Index = Histogram::bucketIndex(V);
    EXPECT_EQ(Histogram::bucketUpperBound(Index), V);
  }
  uint64_t Prev = 0;
  for (uint64_t V :
       {32ull, 33ull, 100ull, 1000ull, 123456ull, 1000000000ull,
        (1ull << 62) + 12345ull}) {
    unsigned Index = Histogram::bucketIndex(V);
    uint64_t Upper = Histogram::bucketUpperBound(Index);
    EXPECT_GE(Upper, V);
    EXPECT_LE(static_cast<double>(Upper - V), 0.04 * static_cast<double>(V))
        << "bucket rounding too coarse for " << V;
    EXPECT_GE(Upper, Prev);
    Prev = Upper;
  }
}

TEST(HistogramTest, QuantilesOnKnownDistribution) {
  Histogram H;
  // 1000 samples: 990 at 1000ns, 9 at 100000ns, 1 at 5000000ns.
  for (int I = 0; I < 990; ++I)
    H.record(1000);
  for (int I = 0; I < 9; ++I)
    H.record(100000);
  H.record(5000000);
  EXPECT_EQ(H.count(), 1000u);
  EXPECT_EQ(H.maxValue(), 5000000u);

  auto Near = [](uint64_t Got, uint64_t Want) {
    EXPECT_GE(Got, Want);
    EXPECT_LE(static_cast<double>(Got), 1.04 * static_cast<double>(Want));
  };
  Near(H.valueAtQuantile(0.50), 1000);
  Near(H.valueAtQuantile(0.98), 1000);
  Near(H.valueAtQuantile(0.995), 100000);
  EXPECT_EQ(H.valueAtQuantile(0.9995), 5000000u); // capped at true max
  EXPECT_EQ(H.valueAtQuantile(1.0), 5000000u);
}

TEST(HistogramTest, ResetAndEmptyBehaviour) {
  Histogram H;
  EXPECT_EQ(H.valueAtQuantile(0.99), 0u);
  H.record(777);
  EXPECT_EQ(H.count(), 1u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.maxValue(), 0u);
}
