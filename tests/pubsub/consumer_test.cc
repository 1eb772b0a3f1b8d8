#include "pubsub/consumer.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "obs/collector.h"
#include "obs/trace.h"
#include "pubsub/broker.h"
#include "pubsub/producer.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pubsub {
namespace {

constexpr common::TimeMicros kMs = common::kMicrosPerMilli;
constexpr common::TimeMicros kSec = common::kMicrosPerSecond;

struct ScopedTracing {
  explicit ScopedTracing(bool on) { obs::SetTracingEnabled(on); }
  ~ScopedTracing() { obs::SetTracingEnabled(false); }
};

class ConsumerTest : public ::testing::Test {
 protected:
  ConsumerTest() : net_(&sim_, {.base = 0, .jitter = 0}), broker_(&sim_, &net_) {
    EXPECT_TRUE(broker_.CreateTopic("t", {.partitions = 4}).ok());
  }

  void PublishN(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(broker_.Publish("t", Message{"key" + std::to_string(i),
                                               "v" + std::to_string(i), 0}).ok());
    }
  }

  sim::Simulator sim_;
  sim::Network net_;
  Broker broker_;
};

TEST_F(ConsumerTest, SingleMemberReceivesEverything) {
  std::vector<std::string> got;
  GroupConsumer c(&sim_, &net_, &broker_, "g", "t", "m1",
                  [&](PartitionId, const StoredMessage& m) {
                    got.push_back(m.message.value);
                    return true;
                  });
  c.Start();
  PublishN(20);
  sim_.RunUntil(1 * kSec);
  EXPECT_EQ(got.size(), 20u);
  EXPECT_EQ(c.delivered(), 20u);
  EXPECT_EQ(broker_.GroupBacklog("g", "t"), 0u);
}

TEST_F(ConsumerTest, GroupMembersPartitionTheWork) {
  std::map<std::string, int> per_member;
  auto handler = [&per_member](const std::string& who) {
    return [&per_member, who](PartitionId, const StoredMessage&) {
      ++per_member[who];
      return true;
    };
  };
  GroupConsumer c1(&sim_, &net_, &broker_, "g", "t", "m1", handler("m1"));
  GroupConsumer c2(&sim_, &net_, &broker_, "g", "t", "m2", handler("m2"));
  c1.Start();
  c2.Start();
  PublishN(40);
  sim_.RunUntil(1 * kSec);
  EXPECT_EQ(per_member["m1"] + per_member["m2"], 40);
  EXPECT_GT(per_member["m1"], 0);
  EXPECT_GT(per_member["m2"], 0);
}

TEST_F(ConsumerTest, EachMessageDeliveredToExactlyOneGroupMember) {
  std::multiset<std::string> seen;
  auto handler = [&seen](PartitionId, const StoredMessage& m) {
    seen.insert(m.message.value);
    return true;
  };
  GroupConsumer c1(&sim_, &net_, &broker_, "g", "t", "m1", handler);
  GroupConsumer c2(&sim_, &net_, &broker_, "g", "t", "m2", handler);
  GroupConsumer c3(&sim_, &net_, &broker_, "g", "t", "m3", handler);
  c1.Start();
  c2.Start();
  c3.Start();
  PublishN(30);
  sim_.RunUntil(1 * kSec);
  EXPECT_EQ(seen.size(), 30u);
  for (const auto& v : seen) {
    EXPECT_EQ(seen.count(v), 1u) << v;
  }
}

TEST_F(ConsumerTest, NackCausesRedeliveryAtLeastOnce) {
  int attempts = 0;
  GroupConsumer c(&sim_, &net_, &broker_, "g", "t", "m1",
                  [&](PartitionId, const StoredMessage&) {
                    ++attempts;
                    return attempts >= 3;  // Fail twice, then succeed.
                  });
  c.Start();
  broker_.Publish("t", Message{"k", "v", 0});
  sim_.RunUntil(1 * kSec);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(c.delivered(), 1u);
  EXPECT_EQ(broker_.GroupBacklog("g", "t"), 0u);
}

TEST_F(ConsumerTest, NackBlocksPartitionHeadOfLine) {
  // One poisoned message at the head of a partition blocks everything behind
  // it (no redelivery cap configured).
  std::vector<std::string> processed;
  GroupConsumer c(&sim_, &net_, &broker_, "g", "t", "m1",
                  [&](PartitionId, const StoredMessage& m) {
                    if (m.message.value == "poison") {
                      return false;
                    }
                    processed.push_back(m.message.value);
                    return true;
                  });
  c.Start();
  // Force same partition via explicit partition.
  broker_.Publish("t", Message{"", "poison", 0}, 0);
  broker_.Publish("t", Message{"", "behind", 0}, 0);
  sim_.RunUntil(2 * kSec);
  EXPECT_TRUE(processed.empty());
  EXPECT_GE(broker_.GroupBacklog("g", "t"), 2u);
}

TEST_F(ConsumerTest, DeadLetterUnblocksAfterMaxRedeliveries) {
  ASSERT_TRUE(broker_.CreateTopic("dlq", {.partitions = 1}).ok());
  std::vector<std::string> processed;
  GroupConsumer c(&sim_, &net_, &broker_, "g", "t", "m1",
                  [&](PartitionId, const StoredMessage& m) {
                    if (m.message.value == "poison") {
                      return false;
                    }
                    processed.push_back(m.message.value);
                    return true;
                  },
                  {.max_redeliveries = 3, .dead_letter_topic = "dlq"});
  c.Start();
  broker_.Publish("t", Message{"", "poison", 0}, 0);
  broker_.Publish("t", Message{"", "behind", 0}, 0);
  sim_.RunUntil(2 * kSec);
  EXPECT_EQ(processed, std::vector<std::string>{"behind"});
  EXPECT_EQ(c.dead_lettered(), 1u);
  auto dlq = broker_.Fetch("dlq", 0, 0, 10);
  ASSERT_TRUE(dlq.ok());
  ASSERT_EQ(dlq->size(), 1u);
  EXPECT_EQ((*dlq)[0].message.value, "poison");
}

TEST_F(ConsumerTest, CrashedMemberLosesUncommittedWorkToPeer) {
  broker_.set_session_timeout(500 * kMs);
  std::multiset<std::string> seen;
  auto handler = [&seen](PartitionId, const StoredMessage& m) {
    seen.insert(m.message.value);
    return true;
  };
  GroupConsumer c1(&sim_, &net_, &broker_, "g", "t", "m1", handler,
                   {.poll_period = 50 * kMs, .heartbeat_period = 100 * kMs});
  GroupConsumer c2(&sim_, &net_, &broker_, "g", "t", "m2", handler,
                   {.poll_period = 50 * kMs, .heartbeat_period = 100 * kMs});
  c1.Start();
  c2.Start();
  sim_.RunUntil(200 * kMs);

  // Crash m2; publish while it is down.
  net_.SetUp("m2", false);
  c2.OnCrash();
  PublishN(20);
  sim_.RunUntil(3 * kSec);  // m2 evicted; m1 takes over all partitions.
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(broker_.GroupBacklog("g", "t"), 0u);
}

TEST_F(ConsumerTest, RestartedMemberRejoins) {
  broker_.set_session_timeout(500 * kMs);
  int m1_count = 0;
  GroupConsumer c(&sim_, &net_, &broker_, "g", "t", "m1",
                  [&](PartitionId, const StoredMessage&) {
                    ++m1_count;
                    return true;
                  },
                  {.poll_period = 50 * kMs, .heartbeat_period = 100 * kMs});
  c.Start();
  sim_.RunUntil(200 * kMs);
  net_.SetUp("m1", false);
  c.OnCrash();
  sim_.RunUntil(2 * kSec);  // Evicted.
  EXPECT_TRUE(broker_.AssignedPartitions("g", "m1", broker_.GroupGeneration("g")).empty());

  net_.SetUp("m1", true);
  c.OnRestart();
  PublishN(5);
  sim_.RunUntil(4 * kSec);
  EXPECT_EQ(m1_count, 5);
}

TEST_F(ConsumerTest, ThroughputBoundedByPollBudget) {
  int count = 0;
  GroupConsumer c(&sim_, &net_, &broker_, "g", "t", "m1",
                  [&](PartitionId, const StoredMessage&) {
                    ++count;
                    return true;
                  },
                  {.poll_period = 100 * kMs, .max_poll_messages = 10});
  c.Start();
  PublishN(100);
  sim_.RunUntil(500 * kMs);  // 5 polls * 10 messages.
  EXPECT_LE(count, 50);
  EXPECT_GE(count, 40);
  sim_.RunUntil(2 * kSec);
  EXPECT_EQ(count, 100);  // Eventually drains.
}

TEST_F(ConsumerTest, FreeConsumerSeesAllMessagesFromEarliest) {
  PublishN(10);
  std::vector<std::string> got;
  FreeConsumer fc(&sim_, &net_, &broker_, "t", "fc1",
                  [&](PartitionId, const StoredMessage& m) {
                    got.push_back(m.message.value);
                    return true;
                  });
  fc.Start();
  sim_.RunUntil(1 * kSec);
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(fc.Backlog(), 0u);
}

TEST_F(ConsumerTest, FreeConsumerFromLatestSkipsHistory) {
  PublishN(10);
  sim_.RunUntil(100 * kMs);
  int count = 0;
  FreeConsumer fc(&sim_, &net_, &broker_, "t", "fc1",
                  [&](PartitionId, const StoredMessage&) {
                    ++count;
                    return true;
                  },
                  {}, FreeConsumer::StartAt::kLatest);
  fc.Start();
  sim_.RunUntil(200 * kMs);  // First poll initializes positions at latest.
  PublishN(5);
  sim_.RunUntil(1 * kSec);
  EXPECT_EQ(count, 5);
}

TEST_F(ConsumerTest, TwoFreeConsumersBothGetFullFeed) {
  int count1 = 0;
  int count2 = 0;
  FreeConsumer fc1(&sim_, &net_, &broker_, "t", "fc1",
                   [&](PartitionId, const StoredMessage&) { ++count1; return true; });
  FreeConsumer fc2(&sim_, &net_, &broker_, "t", "fc2",
                   [&](PartitionId, const StoredMessage&) { ++count2; return true; });
  fc1.Start();
  fc2.Start();
  PublishN(15);
  sim_.RunUntil(1 * kSec);
  // Unlike a consumer group, every free consumer receives every message.
  EXPECT_EQ(count1, 15);
  EXPECT_EQ(count2, 15);
}

TEST_F(ConsumerTest, DisconnectedFreeConsumerMakesNoProgress) {
  int count = 0;
  FreeConsumer fc(&sim_, &net_, &broker_, "t", "fc1",
                  [&](PartitionId, const StoredMessage&) { ++count; return true; });
  fc.Start();
  sim_.RunUntil(100 * kMs);
  net_.SetUp("fc1", false);
  PublishN(10);
  sim_.RunUntil(1 * kSec);
  EXPECT_EQ(count, 0);
  net_.SetUp("fc1", true);
  sim_.RunUntil(2 * kSec);
  EXPECT_EQ(count, 10);
}

// -- Regression: FreeConsumer one-shot partition discovery ---------------------

TEST_F(ConsumerTest, FreeConsumerDiscoversPartitionsAddedAfterStart) {
  std::map<PartitionId, std::vector<std::string>> got;
  FreeConsumer fc(&sim_, &net_, &broker_, "t", "fc1",
                  [&](PartitionId p, const StoredMessage& m) {
                    got[p].push_back(m.message.value);
                    return true;
                  });
  fc.Start();
  PublishN(4);
  sim_.RunUntil(500 * kMs);  // Initial discovery done, feed drained.
  ASSERT_EQ(fc.delivered(), 4u);

  // Grow the topic and publish to a partition that did not exist at the
  // consumer's first poll. Before the fix, discovery ran exactly once and
  // the new partition was silently never fetched — a full-feed consumer
  // losing data with Backlog() blind to it.
  ASSERT_TRUE(broker_.AddPartitions("t", 1).ok());
  ASSERT_TRUE(broker_.Publish("t", Message{"", "late", 0}, 4).ok());
  sim_.RunUntil(2 * kSec);
  ASSERT_EQ(got.count(4), 1u);
  EXPECT_EQ(got[4], std::vector<std::string>{"late"});
  EXPECT_EQ(fc.delivered(), 5u);
  EXPECT_EQ(fc.Backlog(), 0u);
}

TEST_F(ConsumerTest, FreeConsumerFromLatestTakesLatePartitionsFromTheStart) {
  PublishN(8);
  sim_.RunUntil(100 * kMs);
  std::vector<std::string> got;
  FreeConsumer fc(&sim_, &net_, &broker_, "t", "fc1",
                  [&](PartitionId, const StoredMessage& m) {
                    got.push_back(m.message.value);
                    return true;
                  },
                  {}, FreeConsumer::StartAt::kLatest);
  fc.Start();
  sim_.RunUntil(300 * kMs);
  EXPECT_TRUE(got.empty());  // kLatest: history skipped.

  // "Latest" predates a partition that did not exist yet: a late-added
  // partition is consumed from its first offset, nothing skipped.
  ASSERT_TRUE(broker_.AddPartitions("t", 1).ok());
  ASSERT_TRUE(broker_.Publish("t", Message{"", "first-on-new", 0}, 4).ok());
  sim_.RunUntil(1 * kSec);
  EXPECT_EQ(got, std::vector<std::string>{"first-on-new"});
}

// -- Regression: redelivery counters across rebalances -------------------------

TEST_F(ConsumerTest, RedeliveryCountsResetWhenPartitionMovesAway) {
  ASSERT_TRUE(broker_.CreateTopic("one", {.partitions = 1}).ok());
  ASSERT_TRUE(broker_.CreateTopic("dlq", {.partitions = 1}).ok());
  int b_nacks = 0;
  int a_nacks = 0;
  // Member ids sort "a" < "b", so once "a" joins, the single partition moves
  // to it; when "a" leaves, the partition returns to "b".
  GroupConsumer cb(&sim_, &net_, &broker_, "g", "one", "b",
                   [&](PartitionId, const StoredMessage&) {
                     ++b_nacks;
                     return false;
                   },
                   {.max_redeliveries = 3, .dead_letter_topic = "dlq"});
  GroupConsumer ca(&sim_, &net_, &broker_, "g", "one", "a",
                   [&](PartitionId, const StoredMessage&) {
                     ++a_nacks;
                     return false;
                   },
                   {.max_redeliveries = 3, .dead_letter_topic = "dlq"});
  cb.Start();
  ASSERT_TRUE(broker_.Publish("one", Message{"", "poison", 0}, 0).ok());
  // Two failed deliveries on "b" (poll_period 50ms), then the partition is
  // taken over by "a" for one failed delivery, then handed back.
  sim_.RunUntil(120 * kMs);
  ASSERT_EQ(b_nacks, 2);
  ca.Start();
  sim_.RunUntil(180 * kMs);
  ASSERT_GE(a_nacks, 1);
  ca.Stop();
  sim_.RunUntil(2 * kSec);

  // Ownership epochs: on regaining the partition "b" must start a fresh
  // redelivery count (3 more attempts before dead-lettering), not resume at
  // the stale pre-rebalance count (which dead-letters after 1).
  EXPECT_EQ(b_nacks, 2 + 3);
  EXPECT_EQ(cb.dead_lettered(), 1u);
}

// -- Regression: dead-letter trace forwarding ----------------------------------

TEST_F(ConsumerTest, DeadLetterRecordStartsFreshTrace) {
  ScopedTracing tracing(true);
  ASSERT_TRUE(broker_.CreateTopic("dlq", {.partitions = 1}).ok());
  GroupConsumer c(&sim_, &net_, &broker_, "g", "t", "m1",
                  [&](PartitionId, const StoredMessage&) { return false; },
                  {.max_redeliveries = 2, .dead_letter_topic = "dlq"});
  c.Start();
  ASSERT_TRUE(broker_.Publish("t", Message{"", "poison", 0}, 0).ok());
  sim_.RunUntil(2 * kSec);
  ASSERT_EQ(c.dead_lettered(), 1u);

  auto orig = broker_.Fetch("t", 0, 0, 1);
  auto dlq = broker_.Fetch("dlq", 0, 0, 1);
  ASSERT_TRUE(orig.ok());
  ASSERT_TRUE(dlq.ok());
  ASSERT_EQ(orig->size(), 1u);
  ASSERT_EQ(dlq->size(), 1u);
  const obs::TraceContext& original = (*orig)[0].message.trace;
  const obs::TraceContext& forwarded = (*dlq)[0].message.trace;
  ASSERT_TRUE(original.active());
  ASSERT_TRUE(forwarded.active());
  // The dead-letter record is a fresh publish with its own trace. Before the
  // fix it carried the original's id and stamps, so the DLQ delivery
  // completed the same trace a second time with origin→append spanning the
  // whole nack saga.
  EXPECT_NE(forwarded.id, original.id);
  EXPECT_GE(forwarded.stamp(obs::Stage::kOrigin), original.stamp(obs::Stage::kOrigin));
}

// -- Regression: FreeConsumer deliver/ack stamping -----------------------------

TEST_F(ConsumerTest, FreeConsumerCompletesTracesIntoCollector) {
  ScopedTracing tracing(true);
  common::MetricsRegistry metrics;
  obs::Collector collector(&metrics);
  FreeConsumer fc(&sim_, &net_, &broker_, "t", "fc1",
                  [&](PartitionId, const StoredMessage&) { return true; },
                  {.obs = &collector});
  fc.Start();
  PublishN(5);
  sim_.RunUntil(1 * kSec);
  ASSERT_EQ(fc.delivered(), 5u);
  // Before the fix FreeConsumer stamped neither deliver nor ack and never
  // completed traces: the entire free-consumer path was invisible to obs.
  EXPECT_EQ(collector.traces_completed(), 5u);
}

// -- Batched offset commits ----------------------------------------------------

struct CommitCounter : public BrokerObserver {
  int commits = 0;
  void OnRebalance(const GroupId&, std::uint64_t, const std::vector<MemberId>&,
                   const std::map<PartitionId, MemberId>&) override {}
  void OnSeek(const GroupId&, PartitionId, Offset) override {}
  void OnCommitOffset(const GroupId&, PartitionId, Offset) override { ++commits; }
};

TEST_F(ConsumerTest, CommitsOncePerDrainedBatchNotPerMessage) {
  ASSERT_TRUE(broker_.CreateTopic("one", {.partitions = 1}).ok());
  CommitCounter counter;
  broker_.AddObserver(&counter);
  GroupConsumer c(&sim_, &net_, &broker_, "g", "one", "m1",
                  [&](PartitionId, const StoredMessage&) { return true; });
  c.Start();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(broker_.Publish("one", Message{"", "v" + std::to_string(i), 0}, 0).ok());
  }
  sim_.RunUntil(60 * kMs);  // One poll drains all 50 (max_poll_messages 100).
  ASSERT_EQ(c.delivered(), 50u);
  EXPECT_EQ(counter.commits, 1);
  EXPECT_EQ(broker_.CommittedOffset("g", 0), 50u);
  broker_.RemoveObserver(&counter);
}

}  // namespace
}  // namespace pubsub
