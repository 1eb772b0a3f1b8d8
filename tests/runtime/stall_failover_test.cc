// Subscription flow-control state vs ShardPool::FailoverShard: a failover
// destroys the shard's broker (firing every parked waiter) and rebuilds it
// from the promoted journal. Subscriptions in every backpressure state must
// come out the other side pointed at the replacement:
//
//   * a kBlock subscription STALLED at the instant of promotion (no parked
//     waiter — the pump stood down) must resume against the new broker when
//     the consumer drains;
//   * a kDisconnect subscription whose handoff is exactly full with a parked
//     waiter must NOT be cut by the teardown-fired waiter — the fire carries
//     no new data, only the broker swap. Pre-fix, the pump's entry path read
//     "waiter fired + no room" as a genuine overflow and broke the
//     subscription on every failover;
//   * a stalled FILTERED subscription must re-register its interest on the
//     replacement broker (the old registration died with the old broker);
//   * and it must still do so after a SECOND failover. Pre-fix, the pump
//     re-registered only when the shard's broker pointer differed from the
//     one it registered on. FailoverShard builds the replacement before it
//     frees the old broker, so the second replacement could reuse the first
//     broker's freed address: the compare said "same broker", the pump
//     parked on an id the new broker never issued, and the next matching
//     publish never arrived — with every counter at 0.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "pubsub/filter.h"
#include "pubsub/types.h"
#include "runtime/concurrent_broker.h"
#include "runtime/shard_pool.h"
#include "runtime/subscription.h"
#include "wal/fault_vfs.h"

namespace runtime {
namespace {

using Clock = std::chrono::steady_clock;

RuntimeOptions ReplicatedOptions(wal::FaultVfs* vfs) {
  RuntimeOptions options;
  options.shards = 1;
  options.durable_vfs = vfs;
  options.replication_factor = 2;
  return options;
}

// Drains `sub` until `expect` messages arrived or the deadline passed.
std::vector<pubsub::StoredMessage> DrainAll(Subscription* sub, std::size_t expect,
                                            int deadline_sec = 20) {
  std::vector<pubsub::StoredMessage> got;
  const auto deadline = Clock::now() + std::chrono::seconds(deadline_sec);
  while (got.size() < expect && Clock::now() < deadline) {
    if (sub->PollBatch(&got, 256) == 0) {
      (void)sub->Wait(5000);
    }
  }
  return got;
}

TEST(StallFailoverTest, StalledBlockSubscriptionResumesAgainstPromotedBroker) {
  constexpr int kBefore = 40;
  constexpr int kAfter = 20;
  wal::FaultVfs vfs;
  ShardPool pool(ReplicatedOptions(&vfs));
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0, {.handoff_capacity = 8, .shard_batch = 8});
  ASSERT_NE(sub, nullptr);

  // Overfeed the tiny handoff and let the pump run dry: the subscription is
  // now stalled — no parked waiter, shard side stood down.
  for (int i = 0; i < kBefore; ++i) {
    ASSERT_TRUE(broker.PublishSync("t", {"", "v" + std::to_string(i), 0}, 0).ok());
  }
  pool.Quiesce();
  ASSERT_GE(pool.metrics().counter("runtime.slow_consumer.stalls").value(), 1u);

  // Promote mid-stall. The consumer has drained nothing yet.
  ASSERT_TRUE(pool.FailoverShard(0).ok()) << pool.durable_status().message();

  // Drain everything: the resume posted by the first drain must find the
  // REPLACEMENT broker and continue from the stall point, no gap, no dup.
  auto got = DrainAll(sub.get(), kBefore);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBefore));
  for (int i = 0; i < kBefore; ++i) {
    ASSERT_EQ(got[i].offset, static_cast<pubsub::Offset>(i)) << "gap or reorder at " << i;
  }

  // And the stream stays live: post-failover appends flow through the
  // re-armed waiter on the new broker.
  for (int i = 0; i < kAfter; ++i) {
    ASSERT_TRUE(broker.PublishSync("t", {"", "w" + std::to_string(i), 0}, 0).ok());
  }
  auto tail = DrainAll(sub.get(), kAfter);
  ASSERT_EQ(tail.size(), static_cast<std::size_t>(kAfter));
  EXPECT_EQ(tail.front().offset, static_cast<pubsub::Offset>(kBefore));
  EXPECT_EQ(tail.back().message.value, "w" + std::to_string(kAfter - 1));
  EXPECT_FALSE(sub->broken());
  sub.reset();
  pool.Stop();
}

TEST(StallFailoverTest, FullDisconnectSubscriptionIsNotCutByFailover) {
  // Exactly fill the handoff: the pump breaks mid-loop with the buffer at
  // capacity and RE-ARMS (full-but-not-overflowed is not a cut), leaving a
  // parked waiter + full buffer. The failover then fires that waiter with no
  // new data behind it — which must not read as an overflow.
  constexpr int kCapacity = 8;
  wal::FaultVfs vfs;
  ShardPool pool(ReplicatedOptions(&vfs));
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0,
                              {.handoff_capacity = kCapacity,
                               .shard_batch = kCapacity,
                               .slow_consumer = SlowConsumerPolicy::kDisconnect});
  ASSERT_NE(sub, nullptr);
  for (int i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(broker.PublishSync("t", {"", "v" + std::to_string(i), 0}, 0).ok());
  }
  pool.Quiesce();

  ASSERT_TRUE(pool.FailoverShard(0).ok()) << pool.durable_status().message();
  pool.Quiesce();
  EXPECT_FALSE(sub->broken()) << "failover's waiter fire was mistaken for an overflow";
  EXPECT_EQ(pool.metrics().counter("runtime.slow_consumer.disconnects").value(), 0u);

  // The stream survives: drain, then publish through the new broker.
  auto got = DrainAll(sub.get(), kCapacity);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCapacity));
  ASSERT_TRUE(broker.PublishSync("t", {"", "tail", 0}, 0).ok());
  auto tail = DrainAll(sub.get(), 1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail.front().message.value, "tail");
  EXPECT_FALSE(sub->broken());
  sub.reset();
  pool.Stop();
}

TEST(StallFailoverTest, StalledFilteredSubscriptionReregistersOnPromotedBroker) {
  constexpr int kBefore = 60;  // Every other record matches.
  wal::FaultVfs vfs;
  ShardPool pool(ReplicatedOptions(&vfs));
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  pubsub::Filter filter;
  filter.key_prefix = "hot";
  auto sub = broker.Subscribe("t", 0, 0,
                              {.handoff_capacity = 4, .shard_batch = 4, .filter = filter});
  ASSERT_NE(sub, nullptr);
  for (int i = 0; i < kBefore; ++i) {
    const std::string key = (i % 2 == 0) ? "hot" + std::to_string(i) : "cold" + std::to_string(i);
    ASSERT_TRUE(broker.PublishSync("t", {key, "v" + std::to_string(i), 0}, 0).ok());
  }
  pool.Quiesce();
  ASSERT_GE(pool.metrics().counter("runtime.slow_consumer.stalls").value(), 1u);

  ASSERT_TRUE(pool.FailoverShard(0).ok()) << pool.durable_status().message();

  // Drain the matching half: the resume must re-register the interest on the
  // new broker (the old registration died with it) and keep filtering.
  auto got = DrainAll(sub.get(), kBefore / 2);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBefore / 2));
  for (const auto& m : got) {
    EXPECT_EQ(m.message.key.rfind("hot", 0), 0u) << "non-matching record leaked through";
  }

  // New matching appends keep flowing; new non-matching ones stay invisible.
  ASSERT_TRUE(broker.PublishSync("t", {"cold-tail", "x", 0}, 0).ok());
  ASSERT_TRUE(broker.PublishSync("t", {"hot-tail", "y", 0}, 0).ok());
  auto tail = DrainAll(sub.get(), 1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail.front().message.key, "hot-tail");
  sub.reset();
  pool.Stop();
}

// Stalls a kBlock subscription on 60 records it subscribes to, fails the
// shard over twice while it is stalled, drains, and checks that one more
// record it subscribes to still arrives.
void StallThroughTwoFailoversThenPublish(std::optional<pubsub::Filter> filter) {
  constexpr int kBefore = 60;
  wal::FaultVfs vfs;
  RuntimeOptions options = ReplicatedOptions(&vfs);
  options.replication_factor = 4;  // A follower left to promote each time.
  ShardPool pool(options);
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0,
                              {.handoff_capacity = 4, .shard_batch = 4, .filter = filter});
  ASSERT_NE(sub, nullptr);
  for (int i = 0; i < kBefore; ++i) {
    ASSERT_TRUE(broker.PublishSync("t", {.key = "hot" + std::to_string(i), .value = "v"}, 0).ok());
  }
  pool.Quiesce();
  ASSERT_GE(pool.metrics().counter("runtime.slow_consumer.stalls").value(), 1u);

  ASSERT_TRUE(pool.FailoverShard(0).ok()) << pool.durable_status().message();
  ASSERT_TRUE(pool.FailoverShard(0).ok()) << pool.durable_status().message();

  auto got = DrainAll(sub.get(), kBefore);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBefore));
  for (int i = 0; i < kBefore; ++i) {
    ASSERT_EQ(got[i].offset, static_cast<pubsub::Offset>(i)) << "gap or reorder at " << i;
  }
  ASSERT_TRUE(broker.PublishSync("t", {.key = "hot-tail", .value = "y"}, 0).ok());
  auto tail = DrainAll(sub.get(), 1, /*deadline_sec=*/10);
  ASSERT_EQ(tail.size(), 1u) << "the subscription went silent after two failovers";
  EXPECT_EQ(tail.front().message.key, "hot-tail");
  EXPECT_FALSE(sub->broken());
  sub.reset();
  pool.Stop();
}

TEST(StallFailoverTest, StalledFilteredSubscriptionSurvivesTwoFailovers) {
  pubsub::Filter filter;
  filter.key_prefix = "hot";
  StallThroughTwoFailoversThenPublish(filter);
}

TEST(StallFailoverTest, StalledSubscriptionSurvivesTwoFailovers) {
  StallThroughTwoFailoversThenPublish(std::nullopt);
}

}  // namespace
}  // namespace runtime
