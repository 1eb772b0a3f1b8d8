// The benchmark's own tests: input determinism, the percentile helper, span
// self-time arithmetic, and the reference delivery model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/gen.h"
#include "driver/reference.h"
#include "driver/stats.h"

namespace perfbench {
namespace {

std::vector<std::string> Keys() {
  std::vector<std::string> k;
  for (int r = 0; r < 100; ++r) k.push_back(KeyAt(r));
  return k;
}

TEST(GeneratorTest, DigestIsAPureFunctionOfWorkloadAndSeed) {
  for (const WorkloadSpec& w : Workloads()) {
    EXPECT_EQ(InputDigest(w, 7), InputDigest(w, 7)) << w.name;
    EXPECT_NE(InputDigest(w, 7), InputDigest(w, 8)) << w.name;
  }
  EXPECT_NE(InputDigest(*FindWorkload("inproc_tail"), 7), InputDigest(*FindWorkload("wire_ack"), 7));
}

TEST(GeneratorTest, StreamsRepeatRecordForRecord) {
  const WorkloadSpec& w = *FindWorkload("inproc_tail");
  InputStream a(w, 3, StreamTag::kLive), b(w, 3, StreamTag::kLive);
  std::int64_t last_due = 0;
  for (int i = 0; i < 1000; ++i) {
    const Input x = a.Next(), y = b.Next();
    EXPECT_EQ(x.rank, y.rank);
    EXPECT_EQ(x.partition, y.partition);
    EXPECT_EQ(x.due_ns, y.due_ns);
    EXPECT_GE(x.due_ns, last_due);
    EXPECT_LT(x.rank, w.key_universe);
    EXPECT_LT(x.partition, w.partitions);
    last_due = x.due_ns;
  }
  // 1000 Poisson arrivals at 20k/s span about 50 ms.
  EXPECT_GT(last_due, 40'000'000);
  EXPECT_LT(last_due, 60'000'000);
}

TEST(GeneratorTest, BatchedArrivalsShareOneDueTime) {
  const WorkloadSpec& w = *FindWorkload("durable_ingest");
  InputStream s(w, 3, StreamTag::kLive);
  std::int64_t last = 0;
  for (int arrival = 0; arrival < 1000; ++arrival) {
    const std::int64_t due = s.Next().due_ns;
    EXPECT_GE(due, last);
    for (std::size_t k = 1; k < w.batch; ++k) EXPECT_EQ(s.Next().due_ns, due);
    last = due;
  }
  // 1000 arrivals of 32 records at 40k records/s span about 0.8 s.
  EXPECT_GT(last, 700'000'000);
  EXPECT_LT(last, 900'000'000);
}

TEST(GeneratorTest, FilterMixHasTheFanoutSharesExactly) {
  const std::vector<FilterSpec> f = MakeFilters(*FindWorkload("filtered_replay"), 1);
  ASSERT_EQ(f.size(), 1000u);
  int exact = 0, prefix = 0, broad = 0;
  for (const FilterSpec& s : f) {
    exact += s.filter.ExactKey().has_value() ? 1 : 0;
    prefix += s.filter.key_prefix.empty() ? 0 : 1;
    broad += s.filter.MatchesEverything() ? 1 : 0;
  }
  EXPECT_EQ(exact, 800);
  EXPECT_EQ(prefix, 100);
  EXPECT_EQ(broad, 10);
  for (const FilterSpec& s : f) {
    if (const auto key = s.filter.ExactKey()) {
      EXPECT_EQ(s.partition, PartitionOf(static_cast<std::uint32_t>(std::stoul(key->substr(1))), 2));
    }
  }
}

TEST(GeneratorTest, ValuesCarryTheirSequenceNumber) {
  std::uint32_t seq = 0;
  ASSERT_TRUE(SeqOf(ValueFor(123456789, 64), &seq));
  EXPECT_EQ(seq, 123456789u);
  EXPECT_FALSE(SeqOf("short", &seq));
}

TEST(PercentileTest, MedianAndSupportedTail) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Summary s = Summarize(&v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.p50, 51);  // Nearest rank of 49.5 over 1..100.
  EXPECT_DOUBLE_EQ(s.p99, 99);
  // 100 samples leave ten beyond p90 but only one beyond p99.
  EXPECT_DOUBLE_EQ(s.tail_percentile, 90);
  EXPECT_DOUBLE_EQ(s.tail, 90);
}

TEST(PercentileTest, HighestSupportedPercentileNeedsTenBeyond) {
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(20), 50);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(999), 90);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(SpanTest, SelfTimeSubtractsChildCoverage) {
  SpanLog log;
  // parent [0,100) with children [10,30) and [20,50) (overlapping) and a
  // grandchild [60,70) under a child [55,80).
  const auto p = log.Begin(0, 0);
  const auto c1 = log.Begin(1, 10);
  log.End(c1, 30);
  log.End(p, 100);  // Closed out of order on purpose; reopened below.
  std::vector<Span> spans = log.spans();
  spans.push_back(Span{1, 0, 20, 50});
  spans.push_back(Span{1, 0, 55, 80});
  spans.push_back(Span{2, 3, 60, 70});
  const std::vector<SelfTime> t = SelfTimes(spans, 3);
  EXPECT_DOUBLE_EQ(t[0].total_ns, 100 - (50 - 10) - (80 - 55));  // Union of children.
  EXPECT_DOUBLE_EQ(t[1].total_ns, 20 + 30 + (25 - 10));
  EXPECT_DOUBLE_EQ(t[2].total_ns, 10);
  EXPECT_EQ(t[1].count, 3u);
}

TEST(SpanTest, NestedScopesRecordParents) {
  SpanLog log;
  {
    ScopedSpan outer(&log, 0);
    ScopedSpan inner(&log, 1);
  }
  ScopedSpan after(&log, 2);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, -1);
  const std::vector<SelfTime> t = SelfTimes(log.spans(), 3);
  EXPECT_LE(t[0].total_ns, t[0].durations_ns[0]);
}

TEST(SpanTest, FullLogCountsDrops) {
  SpanLog log(1);
  EXPECT_EQ(log.Begin(0, 0), 0);
  EXPECT_EQ(log.Begin(0, 1), -1);
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(ReferenceTest, TinySeededInputExactlyOnceInOrder) {
  const std::vector<std::string> keys = Keys();
  // A seeded tiny stream on one partition.
  const WorkloadSpec& w = *FindWorkload("inproc_tail");
  InputStream s(w, 11, StreamTag::kLive);
  std::vector<LogEntry> log;
  for (std::uint32_t i = 0; i < 12; ++i) log.push_back(LogEntry{i, s.Next().rank % 100});
  std::vector<Delivery> all;
  for (std::uint32_t i = 0; i < log.size(); ++i) all.push_back(Delivery{log[i].seq, i});
  EXPECT_EQ(CheckDeliveries(log, nullptr, keys, all), "");

  auto dup = all;
  dup.insert(dup.begin() + 3, all[3]);
  EXPECT_NE(CheckDeliveries(log, nullptr, keys, dup), "");
  auto missing = all;
  missing.erase(missing.begin() + 5);
  EXPECT_NE(CheckDeliveries(log, nullptr, keys, missing), "");
  auto reordered = all;
  std::swap(reordered[1], reordered[2]);
  EXPECT_NE(CheckDeliveries(log, nullptr, keys, reordered), "");
  auto truncated = all;
  truncated.pop_back();
  EXPECT_NE(CheckDeliveries(log, nullptr, keys, truncated), "");
}

TEST(ReferenceTest, MatchingEndIsOnePastTheLastMatch) {
  const std::vector<std::string> keys = Keys();
  const std::vector<LogEntry> log = {{0, 5}, {1, 7}, {2, 5}, {3, 9}};
  pubsub::Filter five, absent;
  five.range = common::KeyRange::Single(KeyAt(5));
  absent.range = common::KeyRange::Single(KeyAt(42));
  EXPECT_EQ(MatchingEnd(log, nullptr, keys), 4u);
  EXPECT_EQ(MatchingEnd(log, &five, keys), 3u);
  EXPECT_EQ(MatchingEnd(log, &absent, keys), 0u);
}

TEST(ReferenceTest, FilteredSubscriptionGetsOnlyMatches) {
  const std::vector<std::string> keys = Keys();
  const std::vector<LogEntry> log = {{0, 5}, {1, 7}, {2, 5}, {3, 9}, {4, 5}};
  pubsub::Filter f;
  f.range = common::KeyRange::Single(KeyAt(5));
  EXPECT_EQ(CheckDeliveries(log, &f, keys, {{0, 0}, {2, 2}, {4, 4}}), "");
  EXPECT_NE(CheckDeliveries(log, &f, keys, {{0, 0}, {4, 4}}), "");          // Lost seq 2.
  EXPECT_NE(CheckDeliveries(log, &f, keys, {{0, 0}, {1, 1}, {2, 2}, {4, 4}}), "");  // Non-match.
  EXPECT_NE(CheckDeliveries(log, &f, keys, {{0, 0}, {2, 3}, {4, 4}}), "");  // Wrong offset.
}

TEST(ReferenceTest, TailSubscriptionStartsAtItsOpeningOffset) {
  const std::vector<std::string> keys = Keys();
  const std::vector<LogEntry> log = {{0, 5}, {1, 7}, {2, 5}, {3, 9}};
  EXPECT_EQ(CheckDeliveries(log, nullptr, keys, {{2, 2}, {3, 3}}, 2), "");
  EXPECT_NE(CheckDeliveries(log, nullptr, keys, {{3, 3}}, 2), "");                  // Lost seq 2.
  EXPECT_NE(CheckDeliveries(log, nullptr, keys, {{1, 1}, {2, 2}, {3, 3}}, 2), "");  // Before it.
  EXPECT_EQ(CheckDeliveries(log, nullptr, keys, {}, 4), "");                        // Nothing new.
}

}  // namespace
}  // namespace perfbench
