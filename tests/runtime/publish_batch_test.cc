// Batched arena-staged publishing (PublishBatch + TryPublishBatch). The
// contract: a batch delivers exactly what an equivalent TryPublish loop
// delivers — same routing, same per-partition order, same bytes — while
// backpressure stays loud (kUnavailable + retry_after + accepted count) and
// batch reuse via Clear() settles into zero allocation.
#include <gtest/gtest.h>

#include <cstddef>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "pubsub/broker.h"
#include "pubsub/log.h"
#include "pubsub/types.h"
#include "runtime/concurrent_broker.h"
#include "runtime/publish_batch.h"
#include "runtime/shard_pool.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace runtime {
namespace {

TEST(PublishBatchTest, StagingCopiesBytesIntoTheArena) {
  PublishBatch batch;
  std::string key = "user-1";
  std::string value = "payload";
  batch.Add(key, value);
  // The staged views are the batch's own copies, not aliases of the caller's
  // strings — producers may reuse their buffers immediately.
  key.assign("XXXXXX");
  value.assign("YYYYYYY");
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.staged()[0].key, "user-1");
  EXPECT_EQ(batch.staged()[0].value, "payload");
  EXPECT_EQ(batch.staged()[0].headers, nullptr);
  EXPECT_EQ(batch.arena().bytes_allocated(), 13u);
}

TEST(PublishBatchTest, HeaderPointersStayStableAsTheBatchGrows) {
  PublishBatch batch(2);  // Small reserve: force staged_ reallocation.
  const pubsub::Headers headers = {{"h", "v"}};
  batch.Add("k0", "v0", headers);
  const pubsub::Headers* first = batch.staged()[0].headers;
  for (int i = 1; i < 100; ++i) {
    batch.Add("k" + std::to_string(i), "v", headers);
  }
  // Deque-backed header storage: growth must not move earlier headers.
  EXPECT_EQ(batch.staged()[0].headers, first);
  EXPECT_EQ(*batch.staged()[0].headers, headers);
}

TEST(PublishBatchTest, ClearRecyclesTheArenaToZeroAllocation) {
  PublishBatch batch(64, 4096);
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 50; ++i) {
      batch.Add("key-" + std::to_string(i), "value-" + std::to_string(i));
    }
    ASSERT_EQ(batch.size(), 50u);
    const std::size_t reserved = batch.arena().bytes_reserved();
    batch.Clear();
    EXPECT_TRUE(batch.empty());
    // Reset retained the slab: steady-state reuse allocates nothing new.
    EXPECT_EQ(batch.arena().bytes_reserved(), reserved) << "cycle " << cycle;
    EXPECT_EQ(batch.arena().slab_count(), 1u) << "cycle " << cycle;
  }
}

// A batch and a TryPublish loop fed the same records land identical logs:
// same routing, same per-partition sequence, same bytes.
TEST(PublishBatchTest, BatchDeliveryMatchesPerMessagePublishLoop) {
  constexpr pubsub::PartitionId kPartitions = 4;
  auto run = [&](bool batched) {
    ShardPool pool({.shards = 2});
    ConcurrentBroker broker(&pool);
    pool.Start();
    EXPECT_TRUE(broker.CreateTopic("t", {.partitions = kPartitions}).ok());

    common::Rng rng(5);
    auto batch = std::make_shared<PublishBatch>();
    for (int i = 0; i < 300; ++i) {
      // Mixed routing: keyed (hash) and keyless (facade round-robin cursor).
      const std::string key = rng.Below(2) ? "user-" + std::to_string(rng.Below(16)) : "";
      const std::string value = "v" + std::to_string(i);
      if (batched) {
        batch->Add(key, value);
      } else {
        common::TimeMicros backoff = 0;
        while (!broker.TryPublish("t", {key, value, 0}, std::nullopt, &backoff).ok()) {
          std::this_thread::yield();
        }
      }
    }
    if (batched) {
      std::size_t accepted = 0;
      EXPECT_TRUE(broker.TryPublishBatch("t", batch, nullptr, &accepted).ok());
      EXPECT_EQ(accepted, 300u);
    }
    pool.Quiesce();
    pool.Stop();
    std::vector<std::vector<pubsub::StoredMessage>> logs;
    for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
      const auto& entries = pool.core(broker.OwnerShard(p)).broker->Log("t", p)->entries();
      logs.emplace_back(entries.begin(), entries.end());
    }
    return logs;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(PublishBatchTest, HeadersRideTheBatchPath) {
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());

  const pubsub::Headers headers = {{"content-type", "x"}, {"priority", "9"}};
  auto batch = std::make_shared<PublishBatch>();
  batch->Add("k", "with", headers);
  batch->Add("k", "without");
  ASSERT_TRUE(broker.TryPublishBatch("t", batch).ok());
  pool.Quiesce();

  const auto fetched = broker.Fetch("t", 0, 0, 10);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->size(), 2u);
  EXPECT_EQ((*fetched)[0].message.headers, headers);
  EXPECT_TRUE((*fetched)[1].message.headers.empty());
  pool.Stop();
}

TEST(PublishBatchTest, SaturatedShardRejectsTheWholeBatchLoudly) {
  RuntimeOptions options;
  options.shards = 1;
  options.queue_capacity = 2;
  ShardPool pool(options);
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());

  // Park the worker, fill the queue; the batch's single task cannot post.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Post(0, [gate] { gate.wait(); });
  while (pool.queue_depth(0) != 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(broker.TryPublish("t", {"", "a", 0}, 0).ok());
  ASSERT_TRUE(broker.TryPublish("t", {"", "b", 0}, 0).ok());

  auto batch = std::make_shared<PublishBatch>();
  batch->Add("", "c");
  batch->Add("", "d");
  common::TimeMicros retry_after = 0;
  std::size_t accepted = 7;  // Poisoned: must be zeroed on rejection.
  const common::Status status = broker.TryPublishBatch("t", batch, &retry_after, &accepted);
  EXPECT_EQ(status.code(), common::StatusCode::kUnavailable);
  EXPECT_GT(retry_after, 0);
  EXPECT_EQ(accepted, 0u);  // Single-shard batches are all-or-nothing.
  EXPECT_EQ(pool.metrics().counter("runtime.publish_rejected").value(), 2);

  release.set_value();
  pool.Quiesce();
  pool.Stop();
  // Only the two accepted singles landed; no partial batch leaked through.
  EXPECT_EQ(pool.core(0).broker->EndOffset("t", 0), 2u);
}

TEST(PublishBatchTest, EmptyAndUnknownBatchesAreHandled) {
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  std::size_t accepted = 9;
  EXPECT_TRUE(broker.TryPublishBatch("t", nullptr, nullptr, &accepted).ok());
  EXPECT_EQ(accepted, 0u);
  auto batch = std::make_shared<PublishBatch>();
  EXPECT_TRUE(broker.TryPublishBatch("t", batch, nullptr, &accepted).ok());
  EXPECT_EQ(accepted, 0u);
  batch->Add("k", "v");
  EXPECT_EQ(broker.TryPublishBatch("missing", batch).code(),
            common::StatusCode::kNotFound);
  pool.Quiesce();
  pool.Stop();
}

}  // namespace
}  // namespace runtime
