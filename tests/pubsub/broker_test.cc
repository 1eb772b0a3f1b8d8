#include "pubsub/broker.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"

namespace pubsub {
namespace {

class BrokerTest : public ::testing::Test {
 protected:
  BrokerTest() : net_(&sim_, {.base = 0, .jitter = 0}), broker_(&sim_, &net_) {}

  sim::Simulator sim_;
  sim::Network net_;
  Broker broker_;
};

TEST_F(BrokerTest, CreateTopicValidation) {
  EXPECT_TRUE(broker_.CreateTopic("t", {.partitions = 4}).ok());
  EXPECT_EQ(broker_.CreateTopic("t", {.partitions = 1}).code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(broker_.CreateTopic("bad", {.partitions = 0}).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(broker_.PartitionCount("t"), 4u);
  EXPECT_EQ(broker_.PartitionCount("none"), 0u);
}

TEST_F(BrokerTest, PublishToMissingTopicFails) {
  auto res = broker_.Publish("nope", Message{"k", "v", 0});
  EXPECT_EQ(res.status().code(), common::StatusCode::kNotFound);
}

TEST_F(BrokerTest, KeyHashRoutingIsDeterministic) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 8}).ok());
  auto r1 = broker_.Publish("t", Message{"same-key", "v1", 0});
  auto r2 = broker_.Publish("t", Message{"same-key", "v2", 0});
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->partition, r2->partition);
  EXPECT_EQ(r2->offset, r1->offset + 1);
}

TEST_F(BrokerTest, KeylessPublishRoundRobins) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 3}).ok());
  EXPECT_EQ(broker_.Publish("t", Message{"", "a", 0})->partition, 0u);
  EXPECT_EQ(broker_.Publish("t", Message{"", "b", 0})->partition, 1u);
  EXPECT_EQ(broker_.Publish("t", Message{"", "c", 0})->partition, 2u);
  EXPECT_EQ(broker_.Publish("t", Message{"", "d", 0})->partition, 0u);
}

TEST_F(BrokerTest, ExplicitPartitionRespected) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 2}).ok());
  EXPECT_EQ(broker_.Publish("t", Message{"k", "v", 0}, 1)->partition, 1u);
  EXPECT_EQ(broker_.Publish("t", Message{"k", "v", 0}, 5).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(BrokerTest, FetchRoundTrip) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 1}).ok());
  broker_.Publish("t", Message{"k", "hello", 0}, 0);
  auto msgs = broker_.Fetch("t", 0, 0, 10);
  ASSERT_TRUE(msgs.ok());
  ASSERT_EQ(msgs->size(), 1u);
  EXPECT_EQ((*msgs)[0].message.value, "hello");
  EXPECT_EQ(broker_.Fetch("missing", 0, 0, 1).status().code(), common::StatusCode::kNotFound);
  EXPECT_EQ(broker_.Fetch("t", 5, 0, 1).status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(BrokerTest, PublishRunMatchesPublish) {
  Broker got(&sim_, &net_, "got");
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 4}).ok());
  ASSERT_TRUE(got.CreateTopic("t", {.partitions = 4}).ok());

  // Route 50 records one at a time, then stage the same bytes as views and
  // append them as one run per partition, in the same order.
  const Headers headers = {{"content-type", "test"}};
  std::vector<std::string> keys;
  std::vector<std::string> values;
  std::map<PartitionId, std::vector<std::pair<int, Offset>>> routed;
  for (int i = 0; i < 50; ++i) {
    keys.push_back(i % 3 == 0 ? "" : "user-" + std::to_string(i % 7));
    values.push_back("v" + std::to_string(i));
    const auto want =
        broker_.Publish("t", Message{keys.back(), values.back(), 0, i % 2 ? headers : Headers{}});
    ASSERT_TRUE(want.ok());
    routed[want->partition].emplace_back(i, want->offset);
  }
  for (const auto& [p, records] : routed) {
    std::vector<RecordView> run;
    for (const auto& [i, offset] : records) {
      run.push_back(RecordView{keys[i], values[i], i % 2 ? &headers : nullptr});
    }
    const auto have = got.PublishRun("t", p, run);
    ASSERT_TRUE(have.ok());
    EXPECT_EQ(have->partition, p);
    // Same assigned offsets: the run starts where the single publishes did.
    EXPECT_EQ(have->offset, records.front().second) << "partition " << p;
  }
  // ...and byte-identical logs: PublishRun owns its copy at append time, so
  // the borrowed-view input leaves no aliasing behind.
  keys.assign(keys.size(), "overwritten");
  values.assign(values.size(), "overwritten");
  for (PartitionId p = 0; p < 4; ++p) {
    EXPECT_EQ(got.Log("t", p)->entries(), broker_.Log("t", p)->entries()) << "partition " << p;
  }
  EXPECT_EQ(got.PublishRun("missing", 0, {}).status().code(), common::StatusCode::kNotFound);
  EXPECT_EQ(got.PublishRun("t", 4, {}).status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(BrokerTest, PublishStampsSimTime) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 1}).ok());
  sim_.RunUntil(12345);
  broker_.Publish("t", Message{"k", "v", 0}, 0);
  auto msgs = broker_.Fetch("t", 0, 0, 1);
  EXPECT_EQ((*msgs)[0].message.publish_time, 12345);
}

TEST_F(BrokerTest, RetentionEnforcedPeriodically) {
  ASSERT_TRUE(broker_.CreateTopic(
      "t", {.partitions = 1,
            .retention = {.retention = 1 * common::kMicrosPerSecond}}).ok());
  broker_.Publish("t", Message{"k", "old", 0}, 0);
  sim_.RunUntil(3 * common::kMicrosPerSecond);  // GC timer fires at 500ms cadence.
  EXPECT_EQ(broker_.TotalGced("t"), 1u);
  EXPECT_EQ(broker_.FirstOffset("t", 0), 1u);
}

TEST_F(BrokerTest, GroupJoinAssignsAllPartitions) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 4}).ok());
  const std::uint64_t gen = *broker_.JoinGroup("g", "t", "m1");
  auto assigned = broker_.AssignedPartitions("g", "m1", gen);
  EXPECT_EQ(assigned.size(), 4u);
}

TEST_F(BrokerTest, RebalanceSplitsPartitionsAcrossMembers) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 4}).ok());
  (void)broker_.JoinGroup("g", "t", "m1");
  const std::uint64_t gen = *broker_.JoinGroup("g", "t", "m2");
  auto a1 = broker_.AssignedPartitions("g", "m1", gen);
  auto a2 = broker_.AssignedPartitions("g", "m2", gen);
  EXPECT_EQ(a1.size(), 2u);
  EXPECT_EQ(a2.size(), 2u);
}

TEST_F(BrokerTest, StaleGenerationGetsNothing) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 2}).ok());
  const std::uint64_t old_gen = *broker_.JoinGroup("g", "t", "m1");
  (void)broker_.JoinGroup("g", "t", "m2");  // Bumps generation.
  EXPECT_TRUE(broker_.AssignedPartitions("g", "m1", old_gen).empty());
}

TEST_F(BrokerTest, LeaveGroupReassigns) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 2}).ok());
  (void)broker_.JoinGroup("g", "t", "m1");
  (void)broker_.JoinGroup("g", "t", "m2");
  broker_.LeaveGroup("g", "m2");
  const std::uint64_t gen = broker_.GroupGeneration("g");
  EXPECT_EQ(broker_.AssignedPartitions("g", "m1", gen).size(), 2u);
}

TEST_F(BrokerTest, DeadMemberEvictedAfterSessionTimeout) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 2}).ok());
  broker_.set_session_timeout(1 * common::kMicrosPerSecond);
  (void)broker_.JoinGroup("g", "t", "m1");
  (void)broker_.JoinGroup("g", "t", "m2");
  // m1 heartbeats; m2 goes silent.
  for (int i = 1; i <= 10; ++i) {
    sim_.At(i * 300 * common::kMicrosPerMilli, [this] { broker_.Heartbeat("g", "m1"); });
  }
  sim_.RunUntil(3 * common::kMicrosPerSecond);
  const std::uint64_t gen = broker_.GroupGeneration("g");
  EXPECT_EQ(broker_.AssignedPartitions("g", "m1", gen).size(), 2u);
  EXPECT_TRUE(broker_.AssignedPartitions("g", "m2", gen).empty());
}

TEST_F(BrokerTest, JoinGroupWithDifferentTopicRejected) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 2}).ok());
  ASSERT_TRUE(broker_.CreateTopic("other", {.partitions = 2}).ok());
  const std::uint64_t gen = *broker_.JoinGroup("g", "t", "m1");
  // A late joiner naming a different topic must not hijack the group.
  auto res = broker_.JoinGroup("g", "other", "m2");
  EXPECT_EQ(res.status().code(), common::StatusCode::kFailedPrecondition);
  // The original binding and assignment are untouched.
  EXPECT_EQ(broker_.GroupGeneration("g"), gen);
  EXPECT_EQ(broker_.AssignedPartitions("g", "m1", gen).size(), 2u);
  EXPECT_TRUE(broker_.AssignedPartitions("g", "m2", gen).empty());
}

TEST_F(BrokerTest, RejoinByPresentMemberKeepsGeneration) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 4}).ok());
  (void)broker_.JoinGroup("g", "t", "m1");
  const std::uint64_t gen = *broker_.JoinGroup("g", "t", "m2");
  // A heartbeat-style rejoin must not invalidate everyone's assignments.
  EXPECT_EQ(*broker_.JoinGroup("g", "t", "m1"), gen);
  EXPECT_EQ(broker_.GroupGeneration("g"), gen);
  EXPECT_EQ(broker_.AssignedPartitions("g", "m1", gen).size(), 2u);
  EXPECT_EQ(broker_.AssignedPartitions("g", "m2", gen).size(), 2u);
}

TEST_F(BrokerTest, RejoinRefreshesHeartbeat) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 1}).ok());
  broker_.set_session_timeout(1 * common::kMicrosPerSecond);
  (void)broker_.JoinGroup("g", "t", "m1");
  // Rejoins (not Heartbeat calls) keep m1 alive across the sweep cadence.
  for (int i = 1; i <= 10; ++i) {
    sim_.At(i * 300 * common::kMicrosPerMilli,
            [this] { (void)broker_.JoinGroup("g", "t", "m1"); });
  }
  sim_.RunUntil(3 * common::kMicrosPerSecond);
  const std::uint64_t gen = broker_.GroupGeneration("g");
  EXPECT_EQ(broker_.AssignedPartitions("g", "m1", gen).size(), 1u);
}

TEST_F(BrokerTest, CommittedOffsetsMonotonic) {
  broker_.CommitOffset("g", 0, 5);
  broker_.CommitOffset("g", 0, 3);  // Regression ignored.
  EXPECT_EQ(broker_.CommittedOffset("g", 0), 5u);
  EXPECT_EQ(broker_.CommittedOffset("g", 1), 0u);
  EXPECT_EQ(broker_.CommittedOffset("other", 0), 0u);
}

TEST_F(BrokerTest, GroupBacklogSumsLagAcrossPartitions) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 2}).ok());
  for (int i = 0; i < 6; ++i) {
    broker_.Publish("t", Message{"", "v", 0});  // Round robin: 3 per partition.
  }
  EXPECT_EQ(broker_.GroupBacklog("g", "t"), 6u);
  broker_.CommitOffset("g", 0, 2);
  EXPECT_EQ(broker_.GroupBacklog("g", "t"), 4u);
}


TEST_F(BrokerTest, SeekGroupRewindsForReplay) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 1}).ok());
  for (int i = 0; i < 5; ++i) {
    broker_.Publish("t", Message{"k", std::to_string(i), 0}, 0);
  }
  broker_.CommitOffset("g", 0, 5);
  EXPECT_EQ(broker_.GroupBacklog("g", "t"), 0u);
  // Replay from offset 2: messages 2..4 become pending again.
  broker_.SeekGroup("g", 0, 2);
  EXPECT_EQ(broker_.CommittedOffset("g", 0), 2u);
  EXPECT_EQ(broker_.GroupBacklog("g", "t"), 3u);
}

TEST_F(BrokerTest, SeekToTimeLandsOnFirstMessageAtOrAfter) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 1}).ok());
  sim_.RunUntil(100);
  broker_.Publish("t", Message{"k", "early", 0}, 0);   // publish_time 100.
  sim_.RunUntil(200);
  broker_.Publish("t", Message{"k", "late", 0}, 0);    // publish_time 200.
  broker_.CommitOffset("g", 0, 2);
  broker_.SeekGroupToTime("g", "t", 150);
  EXPECT_EQ(broker_.CommittedOffset("g", 0), 1u);  // The "late" message.
  broker_.SeekGroupToTime("g", "t", 500);          // Future: nothing replays.
  EXPECT_EQ(broker_.CommittedOffset("g", 0), 2u);
}

TEST_F(BrokerTest, SeekToTimeMatchesFullScanEquivalent) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 2}).ok());
  for (int i = 0; i < 20; ++i) {
    sim_.RunUntil((i + 1) * 10);
    broker_.Publish("t", Message{"k" + std::to_string(i % 5), "v", 0},
                    static_cast<PartitionId>(i % 2));
  }
  for (common::TimeMicros ts : {0, 55, 101, 150, 200, 999}) {
    broker_.SeekGroupToTime("g", "t", ts);
    for (PartitionId p = 0; p < 2; ++p) {
      // Reference: the first retained message at or after ts, by full read.
      auto all = broker_.Fetch("t", p, 0, 0);
      ASSERT_TRUE(all.ok());
      Offset want = broker_.EndOffset("t", p);
      for (const StoredMessage& m : *all) {
        if (m.message.publish_time >= ts) {
          want = m.offset;
          break;
        }
      }
      EXPECT_EQ(broker_.CommittedOffset("g", p), want) << "ts=" << ts << " p=" << p;
    }
  }
}

TEST_F(BrokerTest, SeekBelowRetainedHistorySilentlyLandsAtEarliest) {
  ASSERT_TRUE(broker_.CreateTopic(
      "t", {.partitions = 1, .retention = {.max_messages = 2}}).ok());
  for (int i = 0; i < 5; ++i) {
    broker_.Publish("t", Message{"k", std::to_string(i), 0}, 0);
  }
  // Offsets 0..2 are gone. Seeking to 0 succeeds, then the fetch quietly
  // begins at 3 — the §3.3 critique: an ad hoc storage API with no
  // out-of-range signal.
  broker_.SeekGroup("g", 0, 0);
  auto msgs = broker_.Fetch("t", 0, broker_.CommittedOffset("g", 0), 10);
  ASSERT_TRUE(msgs.ok());
  ASSERT_FALSE(msgs->empty());
  EXPECT_EQ((*msgs)[0].offset, 3u);
}

TEST_F(BrokerTest, AddPartitionsGrowsTopicAndRebalancesGroups) {
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 4}).ok());
  ASSERT_TRUE(broker_.JoinGroup("g", "t", "m1").ok());
  const std::uint64_t gen_before = broker_.GroupGeneration("g");
  ASSERT_TRUE(broker_.AddPartitions("t", 2).ok());
  EXPECT_EQ(broker_.PartitionCount("t"), 6u);
  EXPECT_GT(broker_.GroupGeneration("g"), gen_before);
  // The sole member owns every partition, including the new ones.
  const GroupView view = broker_.ViewGroup("g");
  EXPECT_EQ(view.assignment.size(), 6u);
  // The new partitions accept publishes.
  EXPECT_TRUE(broker_.Publish("t", Message{"", "new", 0}, 5).ok());
  EXPECT_EQ(broker_.EndOffset("t", 5), 1u);
}

TEST_F(BrokerTest, AddPartitionsRejectsUnknownTopic) {
  EXPECT_FALSE(broker_.AddPartitions("nope", 1).ok());
}

TEST_F(BrokerTest, InterestIdsNeverRepeatAcrossBrokerInstances) {
  // A failover replaces a shard's broker; a subscription re-registers when
  // the replacement does not hold its id. That check is sound only if no
  // other instance can ever hand out the same id.
  ASSERT_TRUE(broker_.CreateTopic("t", {.partitions = 1}).ok());
  const Broker::InterestId first = broker_.AddInterest("t", 0, Filter{});
  Broker other(&sim_, &net_, "other");
  ASSERT_TRUE(other.CreateTopic("t", {.partitions = 1}).ok());
  const Broker::InterestId second = other.AddInterest("t", 0, Filter{});
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);
  EXPECT_NE(first, second);
  EXPECT_FALSE(other.HasInterest(first));
  EXPECT_TRUE(other.HasInterest(second));
  EXPECT_EQ(broker_.AddInterest("t", 7, Filter{}), 0u);  // Unknown partition.
  EXPECT_FALSE(broker_.HasInterest(0));
}

// -- The one wakeup: a WaitForMatch parked on an interest ----------------------
//
// Each fixture holds one interest in partition 0 of the two-partition topic
// "t". EventDrivenTest's is the match-all interest every unfiltered
// subscription registers; PrefixWakeupTest's matches the "hot" key prefix.
// "hot" keys match both interests; "cold" keys match only the match-all one.
// A re-park and teardown act on the interest's one wakeup slot whatever its
// filter, so they are checked on the match-all interest only.

class InterestWakeupTest : public ::testing::Test {
 protected:
  explicit InterestWakeupTest(std::string key_prefix)
      : net_(&sim_, {.base = 0, .jitter = 0}), broker_(std::make_unique<Broker>(&sim_, &net_)) {
    EXPECT_TRUE(broker_->CreateTopic("t", {.partitions = 2}).ok());
    Filter filter;
    filter.key_prefix = std::move(key_prefix);
    id_ = broker_->AddInterest("t", 0, filter);
    EXPECT_NE(id_, 0u);
  }

  void Publish(const std::string& key, PartitionId partition = 0) {
    ASSERT_TRUE(broker_->Publish("t", Message{.key = key, .value = "v"}, partition).ok());
  }

  // Parks a wakeup that counts into `fired` at partition 0's end offset.
  bool ParkAtEnd(int* fired) {
    return broker_->WaitForMatch(id_, broker_->EndOffset("t", 0), [fired] { ++*fired; });
  }

  // Runs every event due at the current instant.
  void Settle() { sim_.RunUntil(sim_.Now()); }

  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<Broker> broker_;
  Broker::InterestId id_ = 0;
};

class EventDrivenTest : public InterestWakeupTest {
 protected:
  EventDrivenTest() : InterestWakeupTest("") {}
};

class PrefixWakeupTest : public InterestWakeupTest {
 protected:
  PrefixWakeupTest() : InterestWakeupTest("hot") {}
};

TEST_F(EventDrivenTest, WaitForAppendFiresImmediatelyWhenDataAvailable) {
  Publish("cold0");
  int fired = 0;
  EXPECT_FALSE(broker_->WaitForMatch(id_, 0, [&] { ++fired; }));  // Not parked.
  EXPECT_EQ(fired, 0);  // An event, never inline.
  EXPECT_EQ(broker_->PendingWaiters(), 0u);
  Settle();
  EXPECT_EQ(fired, 1);
}

TEST_F(EventDrivenTest, WaitForAppendParksUntilPublishAndIsOneShot) {
  int fired = 0;
  EXPECT_TRUE(ParkAtEnd(&fired));
  EXPECT_EQ(broker_->PendingWaiters(), 1u);
  sim_.RunUntil(100 * common::kMicrosPerMilli);
  EXPECT_EQ(fired, 0);  // Nothing published: still parked.

  Publish("cold0");  // Any key matches.
  EXPECT_EQ(fired, 0);  // Fired as an event, not inside the append.
  Settle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(broker_->PendingWaiters(), 0u);  // Consumed.

  Publish("cold1");
  Settle();
  EXPECT_EQ(fired, 1);  // One-shot: no re-fire without a re-park.
}

TEST_F(EventDrivenTest, WaitForAppendOnOtherPartitionStaysParked) {
  int fired = 0;
  EXPECT_TRUE(ParkAtEnd(&fired));
  Publish("cold-elsewhere", 1);
  Settle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(broker_->PendingWaiters(), 1u);

  Publish("cold0");
  Settle();
  EXPECT_EQ(fired, 1);
}

TEST_F(EventDrivenTest, CancelWaitPreventsWakeup) {
  // RemoveInterest is the cancel: it drops the parked wakeup unfired.
  int fired = 0;
  EXPECT_TRUE(ParkAtEnd(&fired));
  EXPECT_TRUE(broker_->RemoveInterest(id_));
  EXPECT_FALSE(broker_->RemoveInterest(id_));  // Idempotent no-op.
  EXPECT_EQ(broker_->PendingWaiters(), 0u);
  EXPECT_EQ(broker_->PendingInterests(), 0u);
  Publish("cold0");
  Settle();
  EXPECT_EQ(fired, 0);
  // A wait on the removed id parks nothing and never fires.
  EXPECT_FALSE(broker_->WaitForMatch(id_, 0, [&] { ++fired; }));
  Settle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(broker_->PendingWaiters(), 0u);
}

TEST_F(EventDrivenTest, ReparkReplacesTheEarlierWakeup) {
  int first = 0;
  int second = 0;
  EXPECT_TRUE(ParkAtEnd(&first));
  EXPECT_TRUE(ParkAtEnd(&second));
  EXPECT_EQ(broker_->PendingWaiters(), 1u);
  Publish("cold0");
  Settle();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST_F(EventDrivenTest, BrokerDestructionFiresParkedWaiters) {
  // A failover destroys the shard's broker while subscriptions are parked.
  // Teardown must fire them (the wakeup re-resolves the shard's new broker
  // and re-registers there), never drop them.
  int fired = 0;
  EXPECT_TRUE(ParkAtEnd(&fired));
  sim_.RunUntil(100 * common::kMicrosPerMilli);
  ASSERT_EQ(fired, 0);  // Parked; nothing published.
  broker_.reset();
  EXPECT_EQ(fired, 0);  // Fired as an event, not inside the destructor.
  Settle();
  EXPECT_EQ(fired, 1) << "wakeup parked on a destroyed broker was never fired";
}

TEST_F(PrefixWakeupTest, FiresAtOnceOnlyWhenAMatchIsRetained) {
  Publish("cold0");
  Publish("hot1");
  int fired = 0;
  EXPECT_FALSE(broker_->WaitForMatch(id_, 0, [&] { ++fired; }));  // Not parked.
  EXPECT_EQ(fired, 0);  // An event, never inline.
  Settle();
  EXPECT_EQ(fired, 1);

  // Past the last match only a cold record is retained: the wait parks.
  Publish("cold2");
  int past = 0;
  EXPECT_TRUE(broker_->WaitForMatch(id_, 2, [&] { ++past; }));
  Settle();
  EXPECT_EQ(past, 0);
  EXPECT_EQ(broker_->PendingWaiters(), 1u);
}

TEST_F(PrefixWakeupTest, ParksUntilTheFirstMatchingAppendAndFiresOnce) {
  int fired = 0;
  EXPECT_TRUE(ParkAtEnd(&fired));
  Publish("hot0");
  EXPECT_EQ(fired, 0);  // Fired as an event, not inside the append.
  Settle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(broker_->PendingWaiters(), 0u);  // Consumed.

  Publish("hot1");
  Settle();
  EXPECT_EQ(fired, 1);  // One-shot: no re-fire without a re-park.
}

TEST_F(PrefixWakeupTest, NonMatchingAndOtherPartitionAppendsLeaveItParked) {
  int fired = 0;
  EXPECT_TRUE(ParkAtEnd(&fired));
  Publish("hot-elsewhere", 1);
  Publish("cold0");
  Settle();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(broker_->PendingWaiters(), 1u);

  Publish("hot1");
  Settle();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(broker_->PendingWaiters(), 0u);
}

TEST_F(PrefixWakeupTest, RemoveInterestCancelsWithoutFiring) {
  int fired = 0;
  EXPECT_TRUE(ParkAtEnd(&fired));
  EXPECT_TRUE(broker_->RemoveInterest(id_));
  EXPECT_EQ(broker_->PendingWaiters(), 0u);
  EXPECT_EQ(broker_->PendingInterests(), 0u);
  Publish("hot0");
  Settle();
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace pubsub
