// Runtime-level failover: ShardPool::FailoverShard promotes a shard's durable
// journal to its most caught-up WAL follower mid-traffic, rebuilds the
// shard's broker from the promoted tree, and re-points live subscriptions
// and publishers at the replacement. These tests drive that path through the
// public ConcurrentBroker facade.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "pubsub/types.h"
#include "runtime/concurrent_broker.h"
#include "runtime/shard_pool.h"
#include "runtime/subscription.h"
#include "wal/fault_vfs.h"

namespace wal {
namespace {

runtime::RuntimeOptions ReplicatedOptions(FaultVfs* vfs, std::size_t shards,
                                          std::size_t replication_factor) {
  runtime::RuntimeOptions options;
  options.shards = shards;
  options.durable_vfs = vfs;
  options.replication_factor = replication_factor;
  return options;
}

TEST(RuntimeFailoverTest, FailoverRequiresAReplicatedDurableShard) {
  {
    runtime::ShardPool pool({.shards = 1});  // In-memory: nothing to promote.
    pool.Start();
    EXPECT_EQ(pool.FailoverShard(0).code(), common::StatusCode::kFailedPrecondition);
    pool.Stop();
  }
  {
    FaultVfs vfs;
    runtime::RuntimeOptions options;
    options.shards = 1;
    options.durable_vfs = &vfs;  // Durable but replication_factor 1.
    runtime::ShardPool pool(options);
    pool.Start();
    EXPECT_EQ(pool.FailoverShard(0).code(), common::StatusCode::kFailedPrecondition);
    pool.Stop();
  }
}

TEST(RuntimeFailoverTest, FailoverMidTrafficPreservesStreamsAndOrder) {
  constexpr pubsub::PartitionId kPartitions = 2;
  constexpr int kBefore = 100;
  constexpr int kAfter = 100;
  FaultVfs vfs;
  runtime::ShardPool pool(ReplicatedOptions(&vfs, 2, 2));
  runtime::ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = kPartitions}).ok());

  std::vector<std::unique_ptr<runtime::Subscription>> subs;
  for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
    subs.push_back(broker.Subscribe("t", p, 0));
    ASSERT_NE(subs.back(), nullptr);
  }
  for (int i = 0; i < kBefore; ++i) {
    ASSERT_TRUE(broker
                    .PublishSync("t", {"", "v" + std::to_string(i), 0},
                                 static_cast<pubsub::PartitionId>(i % kPartitions))
                    .ok());
  }

  // Both shards fail over while subscriptions hold parked waiters and the
  // consumer keeps draining afterwards. Every accepted record is in the
  // promoted WAL (the private replication transport runs inside the shard's
  // flush window), so the streams continue without a gap or duplicate.
  ASSERT_TRUE(pool.FailoverShard(0).ok()) << pool.durable_status().message();
  ASSERT_TRUE(pool.FailoverShard(1).ok()) << pool.durable_status().message();
  EXPECT_TRUE(pool.durable_status().ok());

  for (int i = kBefore; i < kBefore + kAfter; ++i) {
    ASSERT_TRUE(broker
                    .PublishSync("t", {"", "v" + std::to_string(i), 0},
                                 static_cast<pubsub::PartitionId>(i % kPartitions))
                    .ok());
  }

  for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
    constexpr std::size_t kPerPartition = (kBefore + kAfter) / kPartitions;
    std::vector<pubsub::StoredMessage> got;
    while (got.size() < kPerPartition) {
      if (subs[p]->PollBatch(&got, 64) == 0) {
        ASSERT_TRUE(subs[p]->Wait(/*timeout_us=*/10 * 1000 * 1000))
            << "partition " << p << " stalled at " << got.size();
      }
    }
    ASSERT_EQ(got.size(), kPerPartition);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].offset, static_cast<pubsub::Offset>(i)) << "partition " << p;
      EXPECT_EQ(got[i].message.value,
                "v" + std::to_string(i * kPartitions + static_cast<std::size_t>(p)));
    }
  }
  EXPECT_EQ(pool.metrics().counter("runtime.failovers").value(), 2);
  subs.clear();
  pool.Stop();
}

TEST(RuntimeFailoverTest, CommittedOffsetsAndTopicsSurviveFailover) {
  FaultVfs vfs;
  runtime::ShardPool pool(ReplicatedOptions(&vfs, 1, 2));
  runtime::ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  ASSERT_TRUE(broker.JoinGroup("g", "t", "m1").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(broker.PublishSync("t", {"", "v" + std::to_string(i), 0}, 0).ok());
  }
  broker.CommitOffset("g", 0, 20);
  pool.Quiesce();

  ASSERT_TRUE(pool.FailoverShard(0).ok()) << pool.durable_status().message();
  // The promoted journal replayed the topic, the log, and the commit.
  EXPECT_TRUE(broker.HasTopic("t"));
  EXPECT_EQ(broker.EndOffset("t", 0), 20u);
  EXPECT_EQ(broker.CommittedOffset("g", 0), 20u);

  // The failed-over shard keeps accepting traffic (offsets continue).
  auto r = broker.PublishSync("t", {"", "after", 0}, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->offset, 20u);
  pool.Stop();
}

TEST(RuntimeFailoverTest, SecondFailoverExhaustsFollowersLoudly) {
  // RF 2 has one follower: the first promotion retires it, the second must
  // fail loudly (kUnavailable from the replica set) instead of fabricating a
  // copy. The shard keeps serving from the current leader either way.
  FaultVfs vfs;
  runtime::ShardPool pool(ReplicatedOptions(&vfs, 1, 2));
  runtime::ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  ASSERT_TRUE(broker.PublishSync("t", {"", "v", 0}, 0).ok());
  pool.Quiesce();
  ASSERT_TRUE(pool.FailoverShard(0).ok());
  EXPECT_FALSE(pool.FailoverShard(0).ok());
  EXPECT_TRUE(pool.durable_status().ok());  // Failed promotion is not corruption.
  EXPECT_EQ(broker.EndOffset("t", 0), 1u);
  pool.Stop();
}

}  // namespace
}  // namespace wal
