// Leader–follower WAL replication: live-tail shipping, catch-up streams,
// force-resync after GC outruns a follower, follower crash/restart, quorum
// ack accounting, and the oracle-checked promotion contract
// (FailoverController). All over the deterministic sim network with nonzero
// latency/jitter so frames reorder and drop like they would in production.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "oracle/invariant_oracle.h"
#include "pubsub/broker.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "wal/broker_journal.h"
#include "wal/fault_vfs.h"
#include "wal/log.h"
#include "wal/replication/catch_up_syncer.h"
#include "wal/replication/failover_controller.h"
#include "wal/replication/replica_set.h"
#include "wal/replication/wal_shipper.h"

namespace wal {
namespace replication {
namespace {

constexpr common::TimeMicros kMs = common::kMicrosPerMilli;
constexpr common::TimeMicros kSec = common::kMicrosPerSecond;

common::Status NoopReplay(std::uint64_t, std::string_view) { return common::Status::Ok(); }

// One leader log + N followers over a jittery network. Each follower gets
// its own FaultVfs so crashes are per-process, like real nodes.
class WalReplicationTest : public ::testing::Test {
 protected:
  WalReplicationTest() : net_(&sim_, {.base = 200, .jitter = 300}) {}

  ReplicationOptions Options(std::size_t factor) {
    ReplicationOptions options;
    options.replication_factor = factor;
    options.max_pending_frames = max_pending_frames_;
    options.log_options = [this](const std::string&) { return log_options_; };
    return options;
  }

  void OpenLeader(std::size_t factor = 2) {
    auto log = Log::Open(&leader_vfs_, "leader/log", log_options_, &metrics_, NoopReplay);
    ASSERT_TRUE(log.ok());
    leader_log_ = std::move(log.value());
    shipper_ = std::make_unique<WalShipper>(&sim_, &net_, "leader", &metrics_, Options(factor));
  }

  CatchUpSyncer* AddFollower(const std::string& name, std::size_t factor = 2) {
    followers_vfs_.push_back(std::make_unique<FaultVfs>());
    followers_.push_back(std::make_unique<CatchUpSyncer>(&sim_, &net_, name,
                                                         followers_vfs_.back().get(), name,
                                                         &metrics_, Options(factor)));
    shipper_->AddFollower(followers_.back().get());
    return followers_.back().get();
  }

  void AppendN(int n, const std::string& prefix = "r") {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(leader_log_->Append(prefix + std::to_string(appended_++)).ok());
    }
  }

  // Appends the next `n` records ("r<i>", like AppendN) as one batch.
  void AppendRun(std::size_t n) {
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < n; ++i) {
      payloads.push_back("r" + std::to_string(appended_++));
    }
    const std::vector<std::string_view> views(payloads.begin(), payloads.end());
    ASSERT_TRUE(leader_log_->AppendBatch(views).ok());
  }

  std::int64_t Counter(const char* name) { return metrics_.counter(name).value(); }

  void Settle() { sim_.RunUntil(sim_.Now() + 1 * kSec); }

  sim::Simulator sim_{17};
  sim::Network net_;
  common::MetricsRegistry metrics_;
  LogOptions log_options_;
  std::size_t max_pending_frames_ = ReplicationOptions{}.max_pending_frames;

  FaultVfs leader_vfs_;
  std::unique_ptr<Log> leader_log_;
  std::unique_ptr<WalShipper> shipper_;
  std::vector<std::unique_ptr<FaultVfs>> followers_vfs_;
  std::vector<std::unique_ptr<CatchUpSyncer>> followers_;
  int appended_ = 0;
};

TEST_F(WalReplicationTest, LiveTailShipsEveryAppendAndAcksBack) {
  OpenLeader();
  CatchUpSyncer* f = AddFollower("f1");
  shipper_->Track("log", leader_log_.get());

  AppendN(20);
  Settle();
  EXPECT_EQ(f->DurableNextIndex("log"), 20u);
  EXPECT_EQ(shipper_->QuorumAckedNext("log"), 20u);  // RF 2: quorum is the pair.
  EXPECT_GE(metrics_.counter("wal.repl.frames_shipped").value(), 20);
  EXPECT_GE(metrics_.counter("wal.repl.frames_applied").value(), 20);
}

TEST_F(WalReplicationTest, EachRunShipsAsOneMessageAndIsAckedOnce) {
  log_options_.segment_bytes = 96;  // Runs cross rotations on both sides.
  OpenLeader();
  CatchUpSyncer* f = AddFollower("f1");
  shipper_->Track("log", leader_log_.get());

  const std::vector<std::size_t> runs = {1, 3, 8, 2, 5, 1, 7, 4};
  std::size_t records = 0;
  for (const std::size_t n : runs) {
    AppendRun(n);
    records += n;
    Settle();  // One run in flight at a time, so none arrives out of order.
  }
  EXPECT_EQ(f->DurableNextIndex("log"), records);
  EXPECT_EQ(Counter("wal.repl.frames_shipped"), static_cast<std::int64_t>(records));
  EXPECT_EQ(Counter("wal.repl.frames_applied"), static_cast<std::int64_t>(records));
  EXPECT_EQ(Counter("wal.repl.acks_sent"), static_cast<std::int64_t>(runs.size()));
  EXPECT_EQ(Counter("wal.repl.acks"), static_cast<std::int64_t>(runs.size()));
  EXPECT_EQ(shipper_->QuorumAckedNext("log"), records);
  // The follower applied each run as one batch and rotated where the leader
  // did: every segment file is byte-identical.
  for (const SegmentInfo& seg : leader_log_->Segments()) {
    const std::string name = Log::SegmentFileName(seg.first_index);
    std::string* leader_seg = leader_vfs_.MutableContents("leader/log/" + name);
    std::string* follower_seg = followers_vfs_[0]->MutableContents("f1/log/" + name);
    ASSERT_NE(leader_seg, nullptr) << name;
    ASSERT_NE(follower_seg, nullptr) << name;
    EXPECT_EQ(*leader_seg, *follower_seg) << name;
  }
  EXPECT_GT(leader_log_->Segments().size(), 3u);
}

TEST_F(WalReplicationTest, BatchWhollyBelowCursorCountsDupsAndReacks) {
  OpenLeader();
  CatchUpSyncer* f = AddFollower("f1");
  shipper_->Track("log", leader_log_.get());
  AppendRun(10);
  Settle();
  ASSERT_EQ(f->DurableNextIndex("log"), 10u);
  const std::int64_t applied = Counter("wal.repl.frames_applied");
  const std::int64_t acks = Counter("wal.repl.acks_sent");

  f->OnFrames("log", 2, {"r2", "r3", "r4"});
  EXPECT_EQ(f->DurableNextIndex("log"), 10u);
  EXPECT_EQ(Counter("wal.repl.dup_frames"), 3);
  EXPECT_EQ(Counter("wal.repl.frames_applied"), applied);
  EXPECT_EQ(Counter("wal.repl.acks_sent"), acks + 1);
}

TEST_F(WalReplicationTest, BatchStraddlingCursorAppliesOnlyThePartPastIt) {
  OpenLeader();
  CatchUpSyncer* f = AddFollower("f1");
  shipper_->Track("log", leader_log_.get());
  AppendRun(10);
  Settle();
  ASSERT_EQ(f->DurableNextIndex("log"), 10u);
  net_.Partition("leader", "f1");
  AppendRun(4);  // 10..13, lost to the partition.
  Settle();
  ASSERT_EQ(f->DurableNextIndex("log"), 10u);
  const std::int64_t applied = Counter("wal.repl.frames_applied");
  const std::int64_t acks = Counter("wal.repl.acks_sent");

  // A retransmitted burst covering 8..13: 8 and 9 are duplicates.
  f->OnFrames("log", 8, {"r8", "r9", "r10", "r11", "r12", "r13"});
  EXPECT_EQ(f->DurableNextIndex("log"), 14u);
  EXPECT_EQ(Counter("wal.repl.dup_frames"), 2);
  EXPECT_EQ(Counter("wal.repl.frames_applied"), applied + 4);
  EXPECT_EQ(Counter("wal.repl.acks_sent"), acks + 1);

  // The follower's copy equals the leader's, byte for byte.
  const std::string name = Log::SegmentFileName(0);
  std::string* leader_seg = leader_vfs_.MutableContents("leader/log/" + name);
  std::string* follower_seg = followers_vfs_[0]->MutableContents("f1/log/" + name);
  ASSERT_NE(leader_seg, nullptr);
  ASSERT_NE(follower_seg, nullptr);
  EXPECT_EQ(*leader_seg, *follower_seg);
}

TEST_F(WalReplicationTest, BatchAboveCursorIsStashedWithinBoundAndRequestsCatchUpOnce) {
  max_pending_frames_ = 4;
  OpenLeader();
  CatchUpSyncer* f = AddFollower("f1");
  shipper_->Track("log", leader_log_.get());
  AppendRun(10);
  Settle();
  ASSERT_EQ(f->DurableNextIndex("log"), 10u);
  // Keep the leader's catch-up stream out of the way: the request is counted
  // when sent and dropped by the partition.
  net_.Partition("leader", "f1");
  const std::int64_t requests = Counter("wal.repl.catch_up_requests");
  const std::int64_t acks = Counter("wal.repl.acks_sent");

  f->OnFrames("log", 12, {"r12", "r13", "r14", "r15", "r16", "r17"});
  f->OnFrames("log", 18, {"r18", "r19"});  // Inside the retry window: no new request.
  EXPECT_EQ(f->DurableNextIndex("log"), 10u);
  EXPECT_EQ(Counter("wal.repl.frames_stashed"), 8);
  EXPECT_EQ(Counter("wal.repl.catch_up_requests"), requests + 1);
  EXPECT_EQ(Counter("wal.repl.acks_sent"), acks);

  // Filling the gap drains the stash: only 12..15 fit in the bound of 4, so
  // the cursor stops at 16, and the whole advance is acked once.
  f->OnFrames("log", 10, {"r10", "r11"});
  EXPECT_EQ(f->DurableNextIndex("log"), 16u);
  EXPECT_EQ(Counter("wal.repl.acks_sent"), acks + 1);
}

TEST(WalReplicationFaultTest, RunWhoseSyncFailsIsNeverShippedAndCatchUpClosesTheGap) {
  sim::Simulator sim(23);
  sim::Network net(&sim, {.base = 200, .jitter = 300});
  common::MetricsRegistry metrics;
  FaultOptions faults;
  faults.seed = 5;
  faults.fail_sync_prob = 0.3;
  FaultVfs leader_vfs(faults);
  FaultVfs follower_vfs;
  auto log = Log::Open(&leader_vfs, "leader/log", LogOptions{}, &metrics, NoopReplay);
  ASSERT_TRUE(log.ok());
  ReplicationOptions options;
  options.replication_factor = 2;
  WalShipper shipper(&sim, &net, "leader", &metrics, options);
  CatchUpSyncer follower(&sim, &net, "f1", &follower_vfs, "f1", &metrics, options);
  shipper.AddFollower(&follower);
  shipper.Track("log", log->get());

  common::Rng rng(3);
  int failed_runs = 0;
  int record = 0;
  bool last_ok = false;
  while (failed_runs < 5 || !last_ok) {
    std::vector<std::string> payloads(rng.Below(8) + 1);
    for (std::string& p : payloads) {
      p = "r" + std::to_string(record++);
    }
    const std::vector<std::string_view> views(payloads.begin(), payloads.end());
    const std::int64_t shipped = metrics.counter("wal.repl.frames_shipped").value();
    last_ok = (*log)->AppendBatch(views).ok();
    if (last_ok) {
      EXPECT_EQ(metrics.counter("wal.repl.frames_shipped").value(),
                shipped + static_cast<std::int64_t>(payloads.size()));
    } else {
      ++failed_runs;
      // Written but not durable: the frames stay in the leader's log, and
      // none of them is shipped.
      EXPECT_EQ(metrics.counter("wal.repl.frames_shipped").value(), shipped);
    }
    sim.RunUntil(sim.Now() + 50 * kMs);
  }
  sim.RunUntil(sim.Now() + 1 * kSec);
  // The follower saw the gap behind each unshipped run and closed it through
  // the catch-up stream, which reads the leader's log.
  EXPECT_EQ(follower.DurableNextIndex("log"), (*log)->next_index());
  EXPECT_GE(metrics.counter("wal.repl.catch_up_requests").value(), 1);
  EXPECT_GE(metrics.counter("wal.repl.streams_opened").value(), 1);
  EXPECT_TRUE(follower.status().ok()) << follower.status().ToString();
  const std::string name = Log::SegmentFileName(0);
  std::string* leader_seg = leader_vfs.MutableContents("leader/log/" + name);
  std::string* follower_seg = follower_vfs.MutableContents("f1/log/" + name);
  ASSERT_NE(leader_seg, nullptr);
  ASSERT_NE(follower_seg, nullptr);
  EXPECT_EQ(*leader_seg, *follower_seg);
}

TEST_F(WalReplicationTest, LateJoinerCatchesUpViaStream) {
  OpenLeader();
  shipper_->Track("log", leader_log_.get());
  AppendN(50);

  CatchUpSyncer* late = AddFollower("f1");  // Registration probes and streams.
  Settle();
  EXPECT_EQ(late->DurableNextIndex("log"), 50u);
  EXPECT_GE(metrics_.counter("wal.repl.streams_opened").value(), 1);
  EXPECT_EQ(metrics_.counter("wal.repl.force_resyncs").value(), 0);
}

TEST_F(WalReplicationTest, HealedPartitionRecoversThroughCatchUpRequest) {
  OpenLeader();
  CatchUpSyncer* f = AddFollower("f1");
  shipper_->Track("log", leader_log_.get());
  AppendN(5);
  Settle();
  ASSERT_EQ(f->DurableNextIndex("log"), 5u);

  net_.Partition("leader", "f1");
  AppendN(30);  // Dropped on the floor mid-partition.
  Settle();
  EXPECT_EQ(f->DurableNextIndex("log"), 5u);

  net_.Heal("leader", "f1");
  AppendN(1);  // The first post-heal frame exposes the gap.
  Settle();
  EXPECT_EQ(f->DurableNextIndex("log"), 36u);
  EXPECT_GE(metrics_.counter("wal.repl.catch_up_requests").value(), 1);
}

TEST_F(WalReplicationTest, GcOutrunningFollowerForcesResync) {
  log_options_.segment_bytes = 64;  // Rotate often so GC has prefix to drop.
  OpenLeader();
  CatchUpSyncer* f = AddFollower("f1");
  shipper_->Track("log", leader_log_.get());
  AppendN(4);
  Settle();
  ASSERT_EQ(f->DurableNextIndex("log"), 4u);

  net_.Partition("leader", "f1");
  AppendN(40);
  // Reclaim the sealed prefix while the follower is dark: its cursor (4) now
  // points below the leader's oldest retained record.
  auto dropped = leader_log_->DropSealedSegmentsBefore(leader_log_->next_index());
  ASSERT_TRUE(dropped.ok());
  ASSERT_GT(*dropped, 0u);
  ASSERT_GT(leader_log_->oldest_retained_index(), 4u);

  net_.Heal("leader", "f1");
  AppendN(1);
  Settle();
  // The follower's copy was replaced wholesale with the leader's segments.
  EXPECT_EQ(f->DurableNextIndex("log"), 45u);
  EXPECT_GE(metrics_.counter("wal.repl.force_resyncs").value(), 1);
  // Byte-for-byte: the snapshot starts at the leader's retained prefix, so
  // the follower honestly reports the hole instead of faking continuity.
  const std::uint64_t oldest = leader_log_->oldest_retained_index();
  const std::string name = Log::SegmentFileName(oldest);
  std::string* leader_seg = leader_vfs_.MutableContents("leader/log/" + name);
  std::string* follower_seg = followers_vfs_[0]->MutableContents("f1/log/" + name);
  ASSERT_NE(leader_seg, nullptr);
  ASSERT_NE(follower_seg, nullptr);
  EXPECT_EQ(*leader_seg, *follower_seg);
}

TEST_F(WalReplicationTest, CorruptLeaderFrameHaltsCatchUpLoudly) {
  // A catch-up stream reads the leader's segment files, not its memory. A
  // frame whose bytes rotted on disk must stop the stream loudly: shipped
  // on, the follower re-frames it under a fresh CRC and replays it as valid.
  log_options_.segment_bytes = 96;
  OpenLeader();
  shipper_->Track("log", leader_log_.get());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(leader_log_->Append("r" + std::to_string(i) + "-abcdef").ok());
  }
  ASSERT_GT(leader_log_->Segments().size(), 1u);
  std::string* sealed = leader_vfs_.MutableContents("leader/log/" + Log::SegmentFileName(0));
  ASSERT_NE(sealed, nullptr);
  const std::size_t at = sealed->find("r1-abcdef");
  ASSERT_NE(at, std::string::npos);
  (*sealed)[at + 4] ^= 0x20;  // "r1-aBcdef"

  CatchUpSyncer* f = AddFollower("f1");  // Catches up through a stream.
  Settle();
  for (int i = 20; i < 25; ++i) {  // Live appends do not ship past the hole.
    ASSERT_TRUE(leader_log_->Append("r" + std::to_string(i) + "-abcdef").ok());
    Settle();
  }
  EXPECT_GE(Counter("wal.repl.corrupt_frames"), 1);
  EXPECT_EQ(Counter("wal.repl.force_resyncs_sent"), 0);
  EXPECT_LE(shipper_->QuorumAckedNext("log"), 1u);
  EXPECT_EQ(f->DurableNextIndex("log"), 1u);

  f->Crash();
  std::vector<std::string> replayed;
  auto reopened = Log::Open(followers_vfs_[0].get(), "f1/log", log_options_, nullptr,
                            [&replayed](std::uint64_t, std::string_view payload) {
                              replayed.emplace_back(payload);
                              return common::Status::Ok();
                            });
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(replayed, std::vector<std::string>{"r0-abcdef"});
}

TEST_F(WalReplicationTest, FollowerCrashRestartResumesFromDurableCursor) {
  OpenLeader();
  CatchUpSyncer* f = AddFollower("f1");
  shipper_->Track("log", leader_log_.get());
  AppendN(10);
  Settle();
  ASSERT_EQ(f->DurableNextIndex("log"), 10u);

  net_.SetUp("f1", false);
  followers_vfs_[0]->Crash();
  f->Crash();
  AppendN(25);
  Settle();

  followers_vfs_[0]->Restart();
  net_.SetUp("f1", true);
  ASSERT_TRUE(f->Restart().ok());
  Settle();
  // Every pre-crash record was synced before its ack, so the follower
  // resumes at 10 and streams the missed 25.
  EXPECT_EQ(f->DurableNextIndex("log"), 35u);
  EXPECT_TRUE(f->status().ok()) << f->status().ToString();
}

TEST_F(WalReplicationTest, QuorumAckedNextTracksTheMajorityCursor) {
  OpenLeader(/*factor=*/3);
  AddFollower("f1", 3);
  AddFollower("f2", 3);
  shipper_->Track("log", leader_log_.get());

  AppendN(10);
  Settle();
  ASSERT_EQ(shipper_->QuorumAckedNext("log"), 10u);  // All three aligned.

  // One follower dark: quorum (2 of 3) still advances on leader + f1.
  net_.SetUp("f2", false);
  AppendN(10);
  Settle();
  EXPECT_EQ(shipper_->QuorumAckedNext("log"), 20u);

  // Both followers dark: the quorum cursor freezes even as the leader runs
  // ahead — exactly the prefix a failover is allowed to lose nothing of.
  net_.SetUp("f1", false);
  AppendN(10);
  Settle();
  EXPECT_EQ(leader_log_->next_index(), 30u);
  EXPECT_EQ(shipper_->QuorumAckedNext("log"), 20u);
}

TEST_F(WalReplicationTest, PromotionPicksMostCaughtUpAndPreservesQuorumPrefix) {
  OpenLeader(/*factor=*/3);
  CatchUpSyncer* f1 = AddFollower("f1", 3);
  CatchUpSyncer* f2 = AddFollower("f2", 3);
  shipper_->Track("log", leader_log_.get());

  AppendN(5);
  Settle();
  net_.SetUp("f2", false);  // f2 stalls at 5.
  AppendN(15);
  Settle();
  ASSERT_EQ(f1->DurableNextIndex("log"), 20u);
  ASSERT_EQ(f2->DurableNextIndex("log"), 5u);
  const std::uint64_t acked = shipper_->QuorumAckedNext("log");
  ASSERT_EQ(acked, 20u);

  // Leader dies; the policy must pick f1 (20 > 5).
  net_.SetUp("leader", false);
  leader_vfs_.Crash();
  auto picked = FailoverController::PickMostCaughtUp({f1, f2});
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(*picked, f1);

  // Forensic oracle: the promoted copy holds every quorum-acked record and
  // nothing the old leader never had.
  leader_vfs_.Restart();
  f1->ReleaseLogs();
  auto check = FailoverController::CheckPromotion(&leader_vfs_, "leader", followers_vfs_[0].get(),
                                                  "f1", {"log"}, {{"log", acked}});
  EXPECT_TRUE(check.ok()) << check.violations.front().second;
  EXPECT_EQ(check.acked_records_lost, 0u);
  EXPECT_EQ(check.phantom_records, 0u);
  EXPECT_EQ(check.payload_mismatches, 0u);
}

TEST_F(WalReplicationTest, PickMostCaughtUpSkipsCrashedFollowers) {
  OpenLeader(/*factor=*/3);
  CatchUpSyncer* f1 = AddFollower("f1", 3);
  CatchUpSyncer* f2 = AddFollower("f2", 3);
  shipper_->Track("log", leader_log_.get());
  AppendN(10);
  Settle();

  f1->Crash();  // The longest copy is dead; policy must fall back to f2.
  auto picked = FailoverController::PickMostCaughtUp({f1, f2});
  ASSERT_TRUE(picked.ok());
  EXPECT_EQ(*picked, f2);

  f2->Crash();
  auto none = FailoverController::PickMostCaughtUp({f1, f2});
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), common::StatusCode::kUnavailable);
}

TEST_F(WalReplicationTest, CheckPromotionDetectsAckedLossAndPhantoms) {
  OpenLeader(/*factor=*/3);
  CatchUpSyncer* f1 = AddFollower("f1", 3);
  CatchUpSyncer* f2 = AddFollower("f2", 3);
  shipper_->Track("log", leader_log_.get());
  AppendN(5);
  Settle();
  net_.SetUp("f2", false);
  AppendN(15);
  Settle();
  ASSERT_EQ(f1->DurableNextIndex("log"), 20u);
  ASSERT_EQ(f2->DurableNextIndex("log"), 5u);
  f1->ReleaseLogs();
  f2->ReleaseLogs();

  // Promoting the stale follower against an acked cursor of 20 is a loss the
  // oracle must call out, not paper over.
  auto lost = FailoverController::CheckPromotion(&leader_vfs_, "leader", followers_vfs_[1].get(),
                                                 "f2", {"log"}, {{"log", 20}});
  EXPECT_FALSE(lost.ok());
  EXPECT_EQ(lost.acked_records_lost, 15u);
  ASSERT_FALSE(lost.violations.empty());
  EXPECT_EQ(lost.violations.front().first, "failover-acked-prefix");

  // A "promoted" copy longer than the old leader's durable log means the
  // failover exposed records the old leader never acked having: phantoms.
  auto phantom = FailoverController::CheckPromotion(followers_vfs_[1].get(), "f2",
                                                    followers_vfs_[0].get(), "f1", {"log"}, {});
  EXPECT_FALSE(phantom.ok());
  EXPECT_EQ(phantom.phantom_records, 15u);
  bool saw_containment = false;
  for (const auto& [invariant, detail] : phantom.violations) {
    saw_containment |= invariant == "failover-snapshot-containment";
  }
  EXPECT_TRUE(saw_containment);

  // Violations feed the invariant oracle like any internal check.
  oracle::InvariantOracle oracle(&sim_);
  for (const auto& [invariant, detail] : lost.violations) {
    oracle.ReportExternalViolation(invariant, detail);
  }
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.violations().front().invariant, "failover-acked-prefix");
}

// -- ReplicaSet: the packaged form the runtime uses ---------------------------

TEST(ReplicaSetTest, JournalAttachShipsAllLogsAndPromoteRecoversState) {
  sim::Simulator sim(7);
  sim::Network net(&sim, {.base = 0, .jitter = 0});
  common::MetricsRegistry metrics;
  FaultVfs vfs;

  pubsub::Broker broker(&sim, &net, "b0");
  auto journal = BrokerJournal::Open(&vfs, "shard-0", BrokerJournalOptions{}, &metrics, &broker);
  ASSERT_TRUE(journal.ok());

  ReplicationOptions ropts;
  ropts.replication_factor = 2;
  ReplicaSet set(&sim, &vfs, "shard-0", "repl-0", &metrics, ropts);
  set.AttachLeader(journal->get());
  ASSERT_TRUE(set.attached());

  // Topic created after attach: the journal's log-created callback must
  // bring the new partition logs under replication automatically.
  ASSERT_TRUE((*journal)->CreateTopic("t", {.partitions = 2}).ok());
  std::vector<pubsub::Offset> ends(2, 0);
  for (int i = 0; i < 40; ++i) {
    auto r = broker.Publish("t", pubsub::Message{"", "v" + std::to_string(i), 0},
                            static_cast<pubsub::PartitionId>(i % 2));
    ASSERT_TRUE(r.ok());
    ends[r->partition] = r->offset + 1;
  }
  sim.RunUntil(sim.Now() + 1 * kMs);  // Flush the zero-latency frames.

  const auto acked = set.QuorumAckedNext();
  ASSERT_EQ(acked.size(), 3u);  // meta + 2 partition logs.
  for (const auto& [id, next] : acked) {
    EXPECT_GT(next, 0u) << id;
  }

  // Leader crash → promote → reopen the journal at the promoted root. The
  // replay must reconstruct the topic and every message.
  vfs.Crash();
  auto promoted = set.Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  vfs.Restart();

  pubsub::Broker recovered(&sim, &net, "b0r");
  auto journal2 =
      BrokerJournal::Open(&vfs, *promoted, BrokerJournalOptions{}, &metrics, &recovered);
  ASSERT_TRUE(journal2.ok()) << journal2.status().ToString();
  ASSERT_TRUE(recovered.HasTopic("t"));
  for (pubsub::PartitionId p = 0; p < 2; ++p) {
    EXPECT_EQ(recovered.EndOffset("t", p), ends[p]) << "partition " << p;
  }
  EXPECT_GE(metrics.counter("wal.repl.promotions").value(), 1);
}

TEST(ReplicaSetTest, PromoteWithNoLiveFollowerIsUnavailable) {
  sim::Simulator sim(9);
  sim::Network net(&sim, {.base = 0, .jitter = 0});
  common::MetricsRegistry metrics;
  FaultVfs vfs;

  pubsub::Broker broker(&sim, &net, "b0");
  auto journal = BrokerJournal::Open(&vfs, "shard-0", BrokerJournalOptions{}, &metrics, &broker);
  ASSERT_TRUE(journal.ok());

  ReplicationOptions ropts;
  ropts.replication_factor = 2;
  ReplicaSet set(&sim, &vfs, "shard-0", "repl-0", &metrics, ropts);
  set.AttachLeader(journal->get());
  for (CatchUpSyncer* f : set.followers()) {
    f->Crash();
  }
  auto promoted = set.Promote();
  EXPECT_FALSE(promoted.ok());
  EXPECT_EQ(promoted.status().code(), common::StatusCode::kUnavailable);
}

}  // namespace
}  // namespace replication
}  // namespace wal
