// Subscription: the event-driven consume path of the concurrent runtime.
// Covers shard-resident cursors (messages pushed at append time, doorbell
// wakeups), handoff backpressure (stall/resume, nothing dropped), and
// per-partition delivery order against a fixed reference.
#include "runtime/subscription.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "pubsub/types.h"
#include "runtime/concurrent_broker.h"
#include "runtime/shard_pool.h"

namespace runtime {
namespace {

using Clock = std::chrono::steady_clock;

// Drains `sub` until `expect` messages arrived or `deadline_sec` passed.
std::vector<pubsub::StoredMessage> DrainAll(Subscription* sub, std::size_t expect,
                                            int deadline_sec = 20) {
  std::vector<pubsub::StoredMessage> got;
  const auto deadline = Clock::now() + std::chrono::seconds(deadline_sec);
  while (got.size() < expect && Clock::now() < deadline) {
    if (sub->PollBatch(&got, 256) == 0) {
      (void)sub->Wait(/*timeout_us=*/5000);
    }
  }
  return got;
}

TEST(SubscriptionTest, EventModeDeliversPublishedMessagesInOrder) {
  constexpr int kMessages = 1000;
  ShardPool pool({.shards = 2});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0);
  ASSERT_NE(sub, nullptr);

  for (int i = 0; i < kMessages; ++i) {
    common::TimeMicros backoff = 0;
    while (!broker.TryPublish("t", {"", "v" + std::to_string(i), 0}, 0, &backoff).ok()) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
  }
  const auto got = DrainAll(sub.get(), kMessages);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[i].offset, static_cast<pubsub::Offset>(i));
    EXPECT_EQ(got[i].message.value, "v" + std::to_string(i));
  }
  EXPECT_EQ(sub->cursor(), static_cast<pubsub::Offset>(kMessages));
  sub.reset();
  pool.Stop();
}

TEST(SubscriptionTest, AdoptsBacklogPublishedBeforeSubscribe) {
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(broker.PublishSync("t", {"", "v" + std::to_string(i), 0}, 0).ok());
  }
  auto sub = broker.Subscribe("t", 0, 0);
  ASSERT_NE(sub, nullptr);
  const auto got = DrainAll(sub.get(), 50);
  ASSERT_EQ(got.size(), 50u);
  EXPECT_EQ(got.front().message.value, "v0");
  EXPECT_EQ(got.back().message.value, "v49");
  sub.reset();
  pool.Stop();
}

TEST(SubscriptionTest, SubscribeRejectsUnknownTopicAndBadPartition) {
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 2}).ok());
  EXPECT_EQ(broker.Subscribe("nope", 0, 0), nullptr);
  EXPECT_EQ(broker.Subscribe("t", 7, 0), nullptr);
  pool.Stop();
}

TEST(SubscriptionTest, BoundedHandoffStallsAndResumesWithoutLoss) {
  constexpr int kMessages = 2000;
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  // A handoff far smaller than the feed: the shard must stall on the bound
  // and resume as the consumer drains, never dropping or reordering.
  auto sub = broker.Subscribe("t", 0, 0, {.handoff_capacity = 64, .shard_batch = 16});
  ASSERT_NE(sub, nullptr);
  for (int i = 0; i < kMessages; ++i) {
    common::TimeMicros backoff = 0;
    while (!broker.TryPublish("t", {"", "v" + std::to_string(i), 0}, 0, &backoff).ok()) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
  }
  std::vector<pubsub::StoredMessage> got;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (got.size() < static_cast<std::size_t>(kMessages) && Clock::now() < deadline) {
    if (sub->PollBatch(&got, 32) == 0) {  // Slow consumer: small sips.
      (void)sub->Wait(2000);
    }
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_EQ(got[i].offset, static_cast<pubsub::Offset>(i)) << "gap or reorder at " << i;
  }
  sub.reset();
  pool.Stop();
}

TEST(SubscriptionTest, WakeupLatencyAndDoorbellRingsAreRecorded) {
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0);
  ASSERT_NE(sub, nullptr);

  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(broker.PublishSync("t", {"", "x", 0}, 0).ok());
  });
  std::vector<pubsub::StoredMessage> got;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (got.empty() && Clock::now() < deadline) {
    if (sub->Wait(/*timeout_us=*/100 * 1000)) {
      (void)sub->PollBatch(&got, 16);
    }
  }
  producer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_GE(sub->wakeups(), 1u);
  // The pump counts its ring after the push the consumer may already have
  // drained: let the shard finish that pump before reading the counter.
  pool.Quiesce();
  EXPECT_GE(pool.metrics().counter("runtime.doorbell_rings").value(), 1);
  EXPECT_GE(pool.metrics().histogram("runtime.wakeup_latency_us").count(), 1u);
  sub.reset();
  pool.Stop();
}

TEST(SubscriptionTest, CommitOffsetAsyncLandsOnOwnerShard) {
  ShardPool pool({.shards = 2});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 2}).ok());
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m1").ok());
  broker.CommitOffsetAsync("g", 1, 17);
  pool.Quiesce();
  EXPECT_EQ(broker.CommittedOffset("g", 1), 17u);
  pool.Stop();
}

// -- Teardown races (regressions) ---------------------------------------------

TEST(SubscriptionTest, TeardownAfterStopCancelsInlineWithoutCrashing) {
  // Regression: the destructor posts a cancel task to the owner shard. With
  // the pool already stopped the queue is closed and the post falls back to
  // running inline — but the old queue took tasks by value, so the failed
  // push left the caller's std::function moved-from and the fallback invoked
  // an empty function (std::bad_function_call). The push must leave the task
  // intact on failure.
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0);
  ASSERT_NE(sub, nullptr);
  pool.Quiesce();  // Let the shard-side pump park its wakeup.
  pool.Stop();
  sub.reset();  // Cancel runs inline against the parked shard.
  pool.RunOn(0, [](ShardCore& core) {
    EXPECT_EQ(core.broker->PendingWaiters(), 0u);
    EXPECT_EQ(core.broker->PendingInterests(), 0u);
    return 0;
  });
}

TEST(SubscriptionTest, TeardownConcurrentWithStopIsSafe) {
  // Regression: a Subscription destroyed on one thread while another thread
  // Stops the pool raced the queue close/worker join — the destructor's
  // cancel task could be pushed to a closing queue or run inline against a
  // worker mid-join. Run the race repeatedly; TSan (CI) judges the interleavings.
  for (int round = 0; round < 25; ++round) {
    ShardPool pool({.shards = 1});
    ConcurrentBroker broker(&pool);
    pool.Start();
    ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
    auto sub = broker.Subscribe("t", 0, 0);
    ASSERT_NE(sub, nullptr);
    for (int i = 0; i < 8; ++i) {
      (void)broker.TryPublish("t", {"", "v", 0}, 0);
    }
    std::thread destroyer([&] { sub.reset(); });
    pool.Stop();
    destroyer.join();
  }
}

TEST(SubscriptionTest, TeardownRacingStallResumeLeavesNoWaiters) {
  // Regression: destroying a stalled subscription just after a drain posted
  // its resume left the resume pump racing the cancel — the pump could
  // re-arm a waiter for a subscription already gone (leaked registration) or
  // cancel a ticket re-issued to someone else. After teardown the shard
  // broker must hold no waiters.
  for (int round = 0; round < 20; ++round) {
    ShardPool pool({.shards = 1});
    ConcurrentBroker broker(&pool);
    pool.Start();
    ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
    auto sub = broker.Subscribe("t", 0, 0, {.handoff_capacity = 16, .shard_batch = 8});
    ASSERT_NE(sub, nullptr);
    for (int i = 0; i < 200; ++i) {
      common::TimeMicros backoff = 0;
      while (!broker.TryPublish("t", {"", "v" + std::to_string(i), 0}, 0, &backoff).ok()) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      }
    }
    std::vector<pubsub::StoredMessage> got;
    (void)sub->Wait(/*timeout_us=*/50 * 1000);
    (void)sub->PollBatch(&got, 8);  // Likely posts a resume for the stalled pump.
    sub.reset();                    // Races the resume.
    pool.Quiesce();
    pool.RunOn(0, [](ShardCore& core) {
      EXPECT_EQ(core.broker->PendingWaiters(), 0u) << "teardown leaked a parked wakeup";
      EXPECT_EQ(core.broker->PendingInterests(), 0u) << "teardown leaked an interest";
      return 0;
    });
    pool.Stop();
  }
}

TEST(SubscriptionTest, CursorBelowARetentionEmptiedLogMovesToTheEndOnce) {
  // Regression: a stalled kBlock subscription resumed after time retention
  // had emptied its log. The read returned nothing and left the cursor below
  // the head, the re-armed wakeup fired at once because end_offset() >
  // cursor, and every lap counted the same gap into the log's silent skips
  // again: the shard spun forever. The read's resume cursor moves past the
  // gap, which is counted once.
  RuntimeOptions opts{.shards = 1};
  opts.tick = common::kMicrosPerSecond;  // Every batch ages the log a second.
  ShardPool pool(opts);
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1, .retention = {.retention = 1}}).ok());
  auto sub = broker.Subscribe("t", 0, 0,
                              {.handoff_capacity = 2, .slow_consumer = SlowConsumerPolicy::kBlock});
  ASSERT_NE(sub, nullptr);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(broker.PublishSync("t", {"", "v" + std::to_string(i), 0}, 0).ok());
  }
  // Offsets 0 and 1 sit in the handoff; the stalled pump's cursor is 2.
  // Wait until retention has dropped every record.
  auto deadline = Clock::now() + std::chrono::seconds(10);
  while (broker.FirstOffset("t", 0) < 10 && Clock::now() < deadline) {
  }
  ASSERT_EQ(broker.FirstOffset("t", 0), 10u);

  // The trigger: draining the handoff resumes the pump at offset 2. From
  // here on only poll subscription state; a blocking shard call would hang
  // on a spin.
  const auto got = DrainAll(sub.get(), 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].offset, 1u);
  deadline = Clock::now() + std::chrono::seconds(10);
  while (sub->cursor() < 10 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sub->cursor(), 10u);
  pool.Stop();
  EXPECT_EQ(sub->cursor(), pool.core(0).broker->EndOffset("t", 0));
  EXPECT_EQ(pool.core(0).broker->TotalSilentSkips("t"), 8u);  // Offsets 2..9, once.
  sub.reset();
}

// Routed input against a fixed reference: message i goes to partition i % 4,
// so partition p must receive exactly v<4i+p> for i = 0..199, in order.
TEST(SubscriptionTest, PartitionsDeliverTheRoutedSequenceInOrder) {
  constexpr int kPartitions = 4;
  constexpr int kPerPartition = 200;
  ShardPool pool({.shards = 2});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = kPartitions}).ok());
  std::vector<std::unique_ptr<Subscription>> subs;
  for (int p = 0; p < kPartitions; ++p) {
    subs.push_back(broker.Subscribe("t", static_cast<pubsub::PartitionId>(p), 0));
  }
  for (int i = 0; i < kPartitions * kPerPartition; ++i) {
    const auto p = static_cast<pubsub::PartitionId>(i % kPartitions);
    common::TimeMicros backoff = 0;
    while (!broker.TryPublish("t", {"", "v" + std::to_string(i), 0}, p, &backoff).ok()) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
  }
  for (int p = 0; p < kPartitions; ++p) {
    std::vector<std::string> expected;
    for (int i = 0; i < kPerPartition; ++i) {
      expected.push_back("v" + std::to_string(kPartitions * i + p));
    }
    std::vector<std::string> got;
    for (const pubsub::StoredMessage& m : DrainAll(subs[p].get(), kPerPartition)) {
      got.push_back(m.message.value);
    }
    EXPECT_EQ(got, expected) << "partition " << p;
  }
  subs.clear();
  pool.Stop();
}

}  // namespace
}  // namespace runtime
