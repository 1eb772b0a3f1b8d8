#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace common {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(5);
  EXPECT_EQ(c.value(), 6);
  c.Increment(-2);
  EXPECT_EQ(c.value(), 4);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.51);
  EXPECT_NEAR(h.Percentile(99), 99, 1.01);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, PercentileInterpolates) {
  Histogram h;
  h.Record(0);
  h.Record(10);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 5.0);
}

TEST(HistogramTest, ReservoirIsBoundedButCountsAreExact) {
  Histogram h(128);
  for (int i = 0; i < 100000; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_DOUBLE_EQ(h.Max(), 99999.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 49999.5);
  EXPECT_EQ(h.retained_samples(), 128u);
  // The reservoir is an unbiased sample: the median estimate lands well
  // within the bulk of the uniform distribution.
  EXPECT_GT(h.Percentile(50), 20000.0);
  EXPECT_LT(h.Percentile(50), 80000.0);
}

TEST(HistogramTest, ExactBelowReservoirBound) {
  Histogram h(256);
  for (int i = 1; i <= 200; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.retained_samples(), 200u);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 200.0);
  EXPECT_NEAR(h.Percentile(50), 100.5, 0.51);
}

TEST(HistogramTest, DeterministicAcrossIdenticalRuns) {
  Histogram a(64);
  Histogram b(64);
  for (int i = 0; i < 10000; ++i) {
    a.Record(i * 3 % 977);
    b.Record(i * 3 % 977);
  }
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), b.Percentile(p)) << "p" << p;
  }
  a.Reset();
  for (int i = 0; i < 10000; ++i) {
    a.Record(i * 3 % 977);
  }
  // Reset restarts the sampling stream, so the rerun reproduces exactly.
  EXPECT_DOUBLE_EQ(a.Percentile(99), b.Percentile(99));
}

TEST(HistogramTest, ConcurrentRecordKeepsExactCount) {
  Histogram h(512);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(1.0);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.Sum(), kThreads * kPerThread * 1.0);
  EXPECT_EQ(h.retained_samples(), 512u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, ConcurrentLookupAndRecord) {
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.counter("shared").Increment();
        reg.counter("shard" + std::to_string(t)).Increment();
        reg.histogram("lat").Record(i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(reg.counter("shared").value(), kThreads * kPerThread);
  EXPECT_EQ(reg.histogram("lat").count(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("shard" + std::to_string(t)).value(), kPerThread);
  }
}

TEST(MetricsRegistryTest, NamedAccessCreatesOnce) {
  MetricsRegistry reg;
  reg.counter("a").Increment(3);
  reg.counter("a").Increment(4);
  reg.histogram("lat").Record(1.5);
  EXPECT_EQ(reg.counter("a").value(), 7);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
  EXPECT_EQ(reg.counters().size(), 1u);
  reg.Reset();
  EXPECT_EQ(reg.counters().size(), 0u);
}

}  // namespace
}  // namespace common
