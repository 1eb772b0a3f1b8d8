#include "pubsub/log.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pubsub/filter.h"

namespace pubsub {
namespace {

Message Msg(const std::string& key, const std::string& value, common::TimeMicros t) {
  return Message{key, value, t};
}

// Up to `max` records from `from` (0: all), through the log's one read.
std::vector<StoredMessage> Read(const PartitionLog& log, Offset from, std::size_t max = 0) {
  std::vector<StoredMessage> out;
  (void)log.Read(from, max, 0, nullptr, &out);
  return out;
}

TEST(PartitionLogTest, AppendAssignsSequentialOffsets) {
  PartitionLog log({});
  EXPECT_EQ(log.Append(Msg("a", "1", 0)), 0u);
  EXPECT_EQ(log.Append(Msg("b", "2", 0)), 1u);
  EXPECT_EQ(log.end_offset(), 2u);
  EXPECT_EQ(log.first_offset(), 0u);
}

TEST(PartitionLogTest, ReadFromOffset) {
  PartitionLog log({});
  for (int i = 0; i < 5; ++i) {
    log.Append(Msg("k", std::to_string(i), 0));
  }
  auto msgs = Read(log, 2);
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(msgs[0].offset, 2u);
  EXPECT_EQ(msgs[0].message.value, "2");
}

TEST(PartitionLogTest, ReadHonorsMax) {
  PartitionLog log({});
  for (int i = 0; i < 10; ++i) {
    log.Append(Msg("k", "v", 0));
  }
  EXPECT_EQ(Read(log, 0, 4).size(), 4u);
  EXPECT_EQ(Read(log, 0, 0).size(), 10u);  // 0 == unlimited.
}

TEST(PartitionLogTest, TimeRetentionDropsOldMessages) {
  PartitionLog log({});
  log.Append(Msg("a", "1", 100));
  log.Append(Msg("b", "2", 200));
  log.Append(Msg("c", "3", 300));
  EXPECT_EQ(log.GcBefore(250), 2u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.first_offset(), 2u);
  EXPECT_EQ(log.gced(), 2u);
}

TEST(PartitionLogTest, SilentSkipOnGcedRead) {
  PartitionLog log({});
  for (int i = 0; i < 10; ++i) {
    log.Append(Msg("k", "v", i));
  }
  log.GcBefore(5);  // Offsets 0-4 gone.
  // A reader at offset 0 is silently repositioned — the messages are simply
  // absent from what it receives, with no error.
  auto msgs = Read(log, 0, 3);
  ASSERT_FALSE(msgs.empty());
  EXPECT_EQ(msgs[0].offset, 5u);
  EXPECT_EQ(log.silent_skips(), 5u);
}

TEST(PartitionLogTest, SilentSkipWhenLogFullyGced) {
  PartitionLog log({});
  log.Append(Msg("k", "v", 0));
  log.Append(Msg("k", "v", 1));
  log.GcBefore(100);
  EXPECT_TRUE(Read(log, 0).empty());
  EXPECT_EQ(log.silent_skips(), 2u);
}

TEST(PartitionLogTest, SizeCapTruncatesHead) {
  PartitionLog log({.max_messages = 3});
  for (int i = 0; i < 5; ++i) {
    log.Append(Msg("k", std::to_string(i), 0));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.first_offset(), 2u);
  EXPECT_EQ(log.gced(), 2u);
}

TEST(PartitionLogTest, CompactionKeepsLatestPerKeyBeforeHorizon) {
  PartitionLog log({});
  log.Append(Msg("a", "a1", 10));  // offset 0 — shadowed by offset 3.
  log.Append(Msg("b", "b1", 20));  // offset 1 — kept (newest "b" anywhere).
  log.Append(Msg("a", "a2", 30));  // offset 2 — shadowed by offset 3 too.
  log.Append(Msg("a", "a3", 90));  // offset 3 — kept (inside window).
  const std::uint64_t removed = log.Compact(/*horizon=*/50);
  // Kafka semantics: a pre-horizon copy shadowed by ANY newer record — even
  // one inside the compaction window — is dropped.
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(log.compacted_away(), 2u);
  auto msgs = Read(log, 0);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].offset, 1u);
  EXPECT_EQ(msgs[1].offset, 3u);
}

TEST(PartitionLogTest, CompactionDropsPreHorizonRecordShadowedInWindow) {
  PartitionLog log({});
  log.Append(Msg("k", "stale", 10));   // offset 0 — old copy of "k".
  log.Append(Msg("x", "other", 15));   // offset 1 — only copy of "x".
  log.Append(Msg("k", "fresh", 80));   // offset 2 — newer "k", inside window.
  EXPECT_EQ(log.Compact(/*horizon=*/50), 1u);
  auto msgs = Read(log, 0);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].offset, 1u);
  EXPECT_EQ(msgs[1].offset, 2u);
  // A second pass at the same horizon finds nothing more to drop.
  EXPECT_EQ(log.Compact(/*horizon=*/50), 0u);
}

TEST(PartitionLogTest, CompactionCreatesUndetectableOffsetGaps) {
  PartitionLog log({});
  log.Append(Msg("a", "a1", 10));
  log.Append(Msg("a", "a2", 20));
  log.Append(Msg("b", "b1", 30));
  log.Compact(100);
  // A consumer at offset 0 receives offset 1 next — there is no signal that
  // offset 0 once held a version it never saw.
  auto msgs = Read(log, 0, 1);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].offset, 1u);
  EXPECT_EQ(log.compacted_away(), 1u);
}

TEST(PartitionLogTest, CompactionIdempotentWhenClean) {
  PartitionLog log({});
  log.Append(Msg("a", "1", 10));
  log.Append(Msg("b", "2", 20));
  EXPECT_EQ(log.Compact(100), 0u);
  EXPECT_EQ(log.Compact(100), 0u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(PartitionLogTest, OffsetAtOrAfterScansRetainedMessages) {
  PartitionLog log({});
  log.Append(Msg("a", "1", 100));  // offset 0.
  log.Append(Msg("b", "2", 200));  // offset 1.
  log.Append(Msg("c", "3", 300));  // offset 2.
  EXPECT_EQ(log.OffsetAtOrAfter(0), 0u);
  EXPECT_EQ(log.OffsetAtOrAfter(100), 0u);
  EXPECT_EQ(log.OffsetAtOrAfter(150), 1u);
  EXPECT_EQ(log.OffsetAtOrAfter(300), 2u);
  EXPECT_EQ(log.OffsetAtOrAfter(999), log.end_offset());  // All older: no replay.
}

TEST(PartitionLogTest, OffsetAtOrAfterHonorsGcAndEmptyLog) {
  PartitionLog log({});
  EXPECT_EQ(log.OffsetAtOrAfter(0), 0u);  // Empty: end offset.
  for (int i = 0; i < 5; ++i) {
    log.Append(Msg("k", "v", i * 100));  // publish times 0..400.
  }
  log.GcBefore(250);  // Offsets 0-2 gone.
  // A timestamp inside the GCed prefix lands at the earliest retained message.
  EXPECT_EQ(log.OffsetAtOrAfter(50), 3u);
  EXPECT_EQ(log.OffsetAtOrAfter(400), 4u);
}

TEST(PartitionLogTest, EmptyLogEdgeCases) {
  PartitionLog log({});
  EXPECT_EQ(log.first_offset(), 0u);
  EXPECT_EQ(log.end_offset(), 0u);
  EXPECT_TRUE(Read(log, 0).empty());
  EXPECT_EQ(log.GcBefore(100), 0u);
  EXPECT_EQ(log.Compact(100), 0u);
  EXPECT_EQ(log.silent_skips(), 0u);  // Reading at end of empty log is not a skip.
}


// -- The read contract: scan bound, resume cursor, silent-skip accounting ------

Filter HotKeys() {
  Filter f;
  f.key_prefix = "hot";
  return f;
}

TEST(PartitionLogTest, FilteredReadStopsAtScanBoundAndStillAdvances) {
  PartitionLog log({});
  for (int i = 0; i < 10; ++i) {
    log.Append(Msg("cold", std::to_string(i), 0));
  }
  log.Append(Msg("hot", "10", 0));
  const Filter hot = HotKeys();
  std::vector<StoredMessage> out;
  // Four non-matching records examined, none returned: the cursor still
  // moves past them, so the next round resumes where this one stopped.
  PartitionLog::ReadResult r = log.Read(0, 5, 4, &hot, &out);
  EXPECT_EQ(r.matched, 0u);
  EXPECT_EQ(r.scanned, 4u);
  EXPECT_EQ(r.next, 4u);
  r = log.Read(r.next, 5, 4, &hot, &out);
  EXPECT_EQ(r.scanned, 4u);
  EXPECT_EQ(r.next, 8u);
  EXPECT_TRUE(out.empty());
  r = log.Read(r.next, 5, 4, &hot, &out);
  EXPECT_EQ(r.matched, 1u);
  EXPECT_EQ(r.scanned, 3u);
  EXPECT_EQ(r.next, log.end_offset());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].offset, 10u);
  EXPECT_EQ(log.silent_skips(), 0u);  // Scanning past non-matches is no skip.
}

TEST(PartitionLogTest, ReadPastTheLastMatchResumesAtEndOffset) {
  PartitionLog log({});
  log.Append(Msg("hot", "0", 0));
  for (int i = 1; i < 6; ++i) {
    log.Append(Msg("cold", std::to_string(i), 0));
  }
  const Filter hot = HotKeys();
  std::vector<StoredMessage> out;
  PartitionLog::ReadResult r = log.Read(0, 10, 0, &hot, &out);
  EXPECT_EQ(r.matched, 1u);
  EXPECT_EQ(r.scanned, 6u);
  EXPECT_EQ(r.next, log.end_offset());
  // At the live edge, filtered or not, the read is empty and stays put.
  r = log.Read(log.end_offset(), 10, 0, &hot, &out);
  EXPECT_EQ(r.matched, 0u);
  EXPECT_EQ(r.scanned, 0u);
  EXPECT_EQ(r.next, log.end_offset());
  r = log.Read(log.end_offset(), 10, 0, nullptr, &out);
  EXPECT_EQ(r.next, log.end_offset());
  EXPECT_EQ(out.size(), 1u);
}

TEST(PartitionLogTest, FilteredAndUnfilteredReadsCountTheSameSilentSkip) {
  // Two identically trimmed logs, one read through a filter and one not:
  // the silent-skip ledger (the paper's §3.1 hidden-loss counter) advances
  // the same way on both, because both are the same read.
  PartitionLog filtered_log({});
  PartitionLog plain_log({});
  for (int i = 0; i < 6; ++i) {
    filtered_log.Append(Msg(i % 2 ? "hot" : "cold", std::to_string(i), 10 * (i + 1)));
    plain_log.Append(Msg(i % 2 ? "hot" : "cold", std::to_string(i), 10 * (i + 1)));
  }
  EXPECT_EQ(filtered_log.GcBefore(35), 3u);  // Offsets 0..2 gone.
  EXPECT_EQ(plain_log.GcBefore(35), 3u);
  const Filter hot = HotKeys();
  std::vector<StoredMessage> out;
  const PartitionLog::ReadResult f = filtered_log.Read(0, 0, 0, &hot, &out);
  const PartitionLog::ReadResult u = plain_log.Read(0, 0, 0, nullptr, &out);
  EXPECT_EQ(f.matched, 2u);  // Offsets 3 and 5.
  EXPECT_EQ(u.matched, 3u);
  EXPECT_EQ(f.next, u.next);
  EXPECT_EQ(filtered_log.silent_skips(), 3u);
  EXPECT_EQ(plain_log.silent_skips(), 3u);

  // A log retention emptied: the cursor jumps to the end and the gap is
  // counted once per read, the same on both paths.
  EXPECT_EQ(filtered_log.GcBefore(100), 3u);
  EXPECT_EQ(plain_log.GcBefore(100), 3u);
  EXPECT_EQ(filtered_log.Read(4, 0, 0, &hot, &out).next, 6u);
  EXPECT_EQ(plain_log.Read(4, 0, 0, nullptr, &out).next, 6u);
  EXPECT_EQ(filtered_log.silent_skips(), 5u);
  EXPECT_EQ(plain_log.silent_skips(), 5u);
}

}  // namespace
}  // namespace pubsub
