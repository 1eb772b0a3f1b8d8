// PartitionJournal: op-log journaling and recovery for one PartitionLog —
// byte-identical state (including harness accounting) after replay, the
// retention-event callback contract, sealed-segment GC with snapshot
// supersession, and the offset-conservation regression across GC-then-recover.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "pubsub/log.h"
#include "pubsub/types.h"
#include "wal/fault_vfs.h"
#include "wal/partition_journal.h"

namespace wal {
namespace {

pubsub::Message Msg(const std::string& key, const std::string& value,
                    common::TimeMicros publish_time) {
  pubsub::Message m;
  m.key = key;
  m.value = value;
  m.publish_time = publish_time;
  return m;
}

// The state a recovered partition must reproduce exactly: retained messages,
// offsets, and every piece of harness accounting the invariant oracle reads.
void ExpectSameState(const pubsub::PartitionLog& recovered, const pubsub::PartitionLog& original) {
  EXPECT_EQ(recovered.first_offset(), original.first_offset());
  EXPECT_EQ(recovered.end_offset(), original.end_offset());
  EXPECT_EQ(recovered.gced(), original.gced());
  EXPECT_EQ(recovered.compacted_away(), original.compacted_away());
  EXPECT_EQ(recovered.last_compaction_horizon(), original.last_compaction_horizon());
  EXPECT_EQ(recovered.compact_end_offset(), original.compact_end_offset());
  ASSERT_EQ(recovered.entries().size(), original.entries().size());
  for (std::size_t i = 0; i < original.entries().size(); ++i) {
    EXPECT_EQ(recovered.entries()[i], original.entries()[i]) << "entry " << i;
  }
}

// The oracle's log-conservation equation: every allocated offset is retained
// or accounted to GC / compaction.
void ExpectConservation(const pubsub::PartitionLog& log) {
  EXPECT_EQ(log.size() + log.gced() + log.compacted_away(), log.end_offset());
}

TEST(PartitionJournalTest, AppendsRecoverIdentically) {
  FaultVfs vfs;
  pubsub::RetentionPolicy policy;
  pubsub::PartitionLog original(policy);
  {
    auto journal = PartitionJournal::Open(&vfs, "p0", PartitionJournalOptions{}, nullptr, &original);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 30; ++i) {
      original.Append(Msg("k" + std::to_string(i % 5), "v" + std::to_string(i), 100 * i));
    }
    ASSERT_TRUE((*journal)->status().ok());
  }
  pubsub::PartitionLog recovered(policy);
  auto journal = PartitionJournal::Open(&vfs, "p0", PartitionJournalOptions{}, nullptr, &recovered);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ((*journal)->recovery_stats().records_replayed, 30u);
  ExpectSameState(recovered, original);
  ExpectConservation(recovered);

  // New appends continue the offset sequence and journal normally.
  EXPECT_EQ(recovered.Append(Msg("k", "post-recovery", 99999)), 30u);
  ASSERT_TRUE((*journal)->status().ok());
}

TEST(PartitionJournalTest, MixedRetentionWorkloadRecoversIdentically) {
  FaultVfs vfs;
  pubsub::RetentionPolicy policy;
  policy.max_messages = 12;  // Size cap trims inside Append.
  policy.compacted = true;
  pubsub::PartitionLog original(policy);
  {
    auto journal = PartitionJournal::Open(&vfs, "p0", PartitionJournalOptions{}, nullptr, &original);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 20; ++i) {
      original.Append(Msg("k" + std::to_string(i % 3), "v" + std::to_string(i), 10 * i));
    }
    original.GcBefore(55);    // Time-based GC (some already size-capped away).
    original.Compact(120);    // Keeps newest-per-key below the horizon.
    for (int i = 20; i < 26; ++i) {
      original.Append(Msg("k" + std::to_string(i % 3), "v" + std::to_string(i), 10 * i));
    }
    original.Compact(200);
    original.Compact(200);    // Second pass with nothing to remove still journals.
    ASSERT_TRUE((*journal)->status().ok());
  }
  ExpectConservation(original);

  pubsub::PartitionLog recovered(policy);
  auto journal = PartitionJournal::Open(&vfs, "p0", PartitionJournalOptions{}, nullptr, &recovered);
  ASSERT_TRUE(journal.ok());
  ExpectSameState(recovered, original);
  ExpectConservation(recovered);
}

// Satellite: the retention callback is a stable contract — exact kinds,
// horizons, post-event first offsets, and removal counts, with compaction
// firing even when it removes nothing (its bookkeeping still advances).
TEST(PartitionJournalTest, RetentionCallbackReportsExactEvents) {
  pubsub::RetentionPolicy policy;
  policy.max_messages = 3;
  pubsub::PartitionLog log(policy);
  std::vector<pubsub::RetentionEvent> events;
  log.set_retention_callback([&](const pubsub::RetentionEvent& e) { events.push_back(e); });

  std::vector<pubsub::StoredMessage> appended;
  log.set_append_callback([&](pubsub::PartitionLog::Run run) {
    appended.insert(appended.end(), run.begin(), run.end());
  });

  for (int i = 0; i < 5; ++i) {
    log.Append(Msg("k" + std::to_string(i), "v", 10 * i));
  }
  // Appends 3 and 4 each tripped the size cap by one message.
  ASSERT_EQ(appended.size(), 5u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, pubsub::RetentionEvent::Kind::kSizeCap);
  EXPECT_EQ(events[0].first_offset, 1u);
  EXPECT_EQ(events[0].removed, 1u);
  EXPECT_EQ(events[1].first_offset, 2u);
  // The append callback fired before its size-cap trim: the journal saw the
  // ops in execution order.
  EXPECT_EQ(appended[3].offset, 3u);

  log.GcBefore(25);  // Drops offset 2 (t=20) but not 3 (t=30).
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].kind, pubsub::RetentionEvent::Kind::kGcBefore);
  EXPECT_EQ(events[2].horizon, 25);
  EXPECT_EQ(events[2].first_offset, 3u);
  EXPECT_EQ(events[2].removed, 1u);

  log.GcBefore(25);  // Nothing left to drop: no event.
  ASSERT_EQ(events.size(), 3u);

  log.Compact(5);  // Removes nothing (all keys distinct) but still fires.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[3].kind, pubsub::RetentionEvent::Kind::kCompact);
  EXPECT_EQ(events[3].horizon, 5);
  EXPECT_EQ(events[3].removed, 0u);

  // Detaching (what ~PartitionJournal does) stops the stream.
  log.set_retention_callback(nullptr);
  log.set_append_callback(nullptr);
  log.Append(Msg("k", "v", 1000));
  log.GcBefore(2000);
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(appended.size(), 5u);
}

TEST(PartitionJournalTest, SegmentGcDropsSealedPrefixAndRecoveryStaysExact) {
  FaultVfs vfs;
  common::MetricsRegistry metrics;
  PartitionJournalOptions options;
  options.log.segment_bytes = 256;  // Force frequent rotation.
  pubsub::RetentionPolicy policy;
  pubsub::PartitionLog original(policy);
  {
    auto journal = PartitionJournal::Open(&vfs, "p0", options, &metrics, &original);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 120; ++i) {
      original.Append(Msg("key-" + std::to_string(i), "value-" + std::to_string(i), 10 * i));
    }
    const std::size_t segments_before = (*journal)->wal_log().Segments().size();
    ASSERT_GT(segments_before, 4u);

    // GC everything before t=1000 (offsets 0..99). The retention event
    // triggers auto segment GC: sealed segments holding only dropped appends
    // go away, superseded by a snapshot record.
    EXPECT_EQ(original.GcBefore(1000), 100u);
    ASSERT_TRUE((*journal)->status().ok());
    EXPECT_LT((*journal)->wal_log().Segments().size(), segments_before);
    EXPECT_GT(metrics.counter("wal.gc.segments_dropped").value(), 0);
  }
  ExpectConservation(original);

  pubsub::PartitionLog recovered(policy);
  auto journal = PartitionJournal::Open(&vfs, "p0", options, &metrics, &recovered);
  ASSERT_TRUE(journal.ok()) << journal.status().message();
  ExpectSameState(recovered, original);
  ExpectConservation(recovered);

  // And a second GC + recovery round on the recovered instance.
  recovered.Append(Msg("late", "v", 5000));
  EXPECT_EQ(recovered.GcBefore(1100), 10u);
  ASSERT_TRUE((*journal)->status().ok());
  journal->reset();
  pubsub::PartitionLog recovered2(policy);
  auto journal2 = PartitionJournal::Open(&vfs, "p0", options, &metrics, &recovered2);
  ASSERT_TRUE(journal2.ok()) << journal2.status().message();
  ExpectSameState(recovered2, recovered);
  ExpectConservation(recovered2);
}

// A run is journaled as one wal batch, and a batch can cross segment
// rotations. Each segment the run touched must be credited with the highest
// offset the run left in it: crediting only the active segment lets
// GcSegments drop a sealed segment that still holds retained records of the
// run, and the reopen below then fails its snapshot check.
TEST(PartitionJournalTest, RunsAcrossRotationsKeepRetainedSegments) {
  FaultVfs vfs;
  common::MetricsRegistry metrics;
  PartitionJournalOptions options;
  options.log.segment_bytes = 160;  // About three append records per segment.
  pubsub::RetentionPolicy policy;
  policy.max_messages = 6;
  pubsub::PartitionLog original(policy);
  auto journal = PartitionJournal::Open(&vfs, "p0", options, &metrics, &original);
  ASSERT_TRUE(journal.ok());

  common::Rng rng(11);
  int n = 0;
  int crossing_runs = 0;
  for (int round = 0; round < 80; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<pubsub::Message> run(rng.Below(8) + 1);
    for (pubsub::Message& m : run) {
      m = Msg("k" + std::to_string(n), "v" + std::to_string(n), n);
      ++n;
    }
    const std::uint64_t first_index = (*journal)->wal_log().next_index();
    const std::uint64_t end_index = first_index + run.size();
    original.AppendRun(run);
    ASSERT_TRUE((*journal)->status().ok());
    for (const SegmentInfo& seg : (*journal)->wal_log().Segments(first_index)) {
      if (seg.first_index > first_index && seg.first_index < end_index) {
        ++crossing_runs;  // This run's batch opened a segment mid-run.
        break;
      }
    }

    // Reopen from the files as they stand: exactly the retained records, at
    // their offsets, come back.
    pubsub::PartitionLog recovered(policy);
    auto reopened = PartitionJournal::Open(&vfs, "p0", options, nullptr, &recovered);
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    ExpectSameState(recovered, original);
    ExpectConservation(recovered);
  }
  EXPECT_GT(crossing_runs, 10);
  EXPECT_GT(metrics.counter("wal.gc.segments_dropped").value(), 10);
}

// Satellite regression: the oracle's offset-conservation invariant must hold
// on a stack that GC'd wal segments and then recovered — the snapshot record
// has to carry the accounting the dropped segments used to prove.
TEST(PartitionJournalTest, OffsetConservationHoldsAcrossGcThenRecover) {
  FaultVfs vfs;
  PartitionJournalOptions options;
  options.log.segment_bytes = 200;
  pubsub::RetentionPolicy policy;
  policy.max_messages = 16;
  policy.compacted = true;

  pubsub::PartitionLog original(policy);
  {
    auto journal = PartitionJournal::Open(&vfs, "p0", options, nullptr, &original);
    ASSERT_TRUE(journal.ok());
    for (int round = 0; round < 6; ++round) {
      for (int i = 0; i < 20; ++i) {
        const int n = 20 * round + i;
        original.Append(Msg("k" + std::to_string(n % 4), "v" + std::to_string(n), 10 * n));
      }
      original.GcBefore(10 * 20 * round);
      original.Compact(10 * (20 * round + 10));
      ASSERT_TRUE((*journal)->status().ok());
      ExpectConservation(original);
    }
  }
  pubsub::PartitionLog recovered(policy);
  auto journal = PartitionJournal::Open(&vfs, "p0", options, nullptr, &recovered);
  ASSERT_TRUE(journal.ok()) << journal.status().message();
  ExpectSameState(recovered, original);
  ExpectConservation(recovered);
  EXPECT_EQ(recovered.size() + recovered.gced() + recovered.compacted_away(),
            recovered.end_offset());
}

TEST(PartitionJournalTest, ReplayDoesNotReJournal) {
  FaultVfs vfs;
  pubsub::RetentionPolicy policy;
  std::uint64_t wal_records = 0;
  {
    pubsub::PartitionLog log(policy);
    auto journal = PartitionJournal::Open(&vfs, "p0", PartitionJournalOptions{}, nullptr, &log);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 10; ++i) {
      log.Append(Msg("k", "v", i));
    }
    log.GcBefore(5);
    wal_records = (*journal)->wal_log().next_index();
  }
  for (int round = 0; round < 3; ++round) {
    pubsub::PartitionLog log(policy);
    auto journal = PartitionJournal::Open(&vfs, "p0", PartitionJournalOptions{}, nullptr, &log);
    ASSERT_TRUE(journal.ok());
    // Reopening must not append anything: replay runs with callbacks detached.
    EXPECT_EQ((*journal)->wal_log().next_index(), wal_records) << "round " << round;
  }
}

TEST(PartitionJournalTest, WriteFailureGoesLoudlySticky) {
  FaultVfs vfs;
  common::MetricsRegistry metrics;
  pubsub::RetentionPolicy policy;
  pubsub::PartitionLog log(policy);
  auto journal = PartitionJournal::Open(&vfs, "p0", PartitionJournalOptions{}, &metrics, &log);
  ASSERT_TRUE(journal.ok());
  log.Append(Msg("k", "v", 1));
  ASSERT_TRUE((*journal)->status().ok());

  vfs.Crash();
  log.Append(Msg("k", "lost", 2));  // The callback's wal append fails.
  EXPECT_FALSE((*journal)->status().ok());
  EXPECT_EQ((*journal)->status().code(), common::StatusCode::kUnavailable);
  EXPECT_GE(metrics.counter("wal.journal.append_errors").value(), 1);

  // The first failure is sticky even after the vfs heals.
  vfs.Restart();
  log.Append(Msg("k", "v3", 3));
  EXPECT_FALSE((*journal)->status().ok());
}

TEST(PartitionJournalTest, SnapshotEndOffsetMismatchFailsRecovery) {
  FaultVfs vfs;
  PartitionJournalOptions options;
  options.log.segment_bytes = 200;
  pubsub::RetentionPolicy policy;
  {
    pubsub::PartitionLog log(policy);
    auto journal = PartitionJournal::Open(&vfs, "p0", options, nullptr, &log);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 60; ++i) {
      log.Append(Msg("k" + std::to_string(i), "v", 10 * i));
    }
    log.GcBefore(400);  // Drops 40 messages; segment GC writes a snapshot.
    ASSERT_TRUE((*journal)->status().ok());
    ASSERT_GT((*journal)->wal_log().Segments().size(), 1u);
  }
  // Delete the earliest remaining segment. The wal layer must tolerate a
  // missing segment *prefix* (that is what legitimate GC leaves behind), so
  // this loss is only detectable by the snapshot record's first/end offset
  // cross-checks — recovery must fail loudly, not absorb it.
  auto paths = vfs.Paths();
  ASSERT_GT(paths.size(), 1u);
  ASSERT_TRUE(vfs.Remove(paths.front()).ok());
  pubsub::PartitionLog recovered(policy);
  auto journal = PartitionJournal::Open(&vfs, "p0", options, nullptr, &recovered);
  EXPECT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), common::StatusCode::kInternal);
}

}  // namespace
}  // namespace wal
