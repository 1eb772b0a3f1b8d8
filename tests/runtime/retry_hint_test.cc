// Regression suite for retry_after hints under sustained overload.
//
// The contract (ConcurrentBroker header): on EVERY kUnavailable rejection
// the hint is NONZERO — callers may sleep it verbatim with no zero-spin
// guard — and bounded (<= ShardPool::kRetryHintMaxScale x the configured
// base). The pre-fix bugs this pins:
//
//   * ConcurrentWatchService::TryIngest echoed the raw configured
//     retry_after, so a pool configured with retry_after = 0 handed
//     rejected feeders a 0 hint — "retry immediately, forever" — while the
//     broker paths clamped to >= 1. A CDC feeder sleeping the hint verbatim
//     spun the CPU against a saturated shard.
//   * Hints were a flat constant regardless of ring depth; now they scale
//     with occupancy through ShardPool::RetryAfterHint, and a full ring
//     never resets the hint back toward zero while it stays full.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/types.h"
#include "obs/trace.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"
#include "runtime/publish_batch.h"
#include "runtime/shard_pool.h"

namespace runtime {
namespace {

// Parks shard 0's worker inside a task and fills the ring to the brim, so
// every Try* below rejects deterministically at depth == capacity.
struct SaturatedShard {
  explicit SaturatedShard(ShardPool* pool) : pool(pool) {
    gate = release.get_future().share();
    auto g = gate;
    pool->Post(0, [g] { g.wait(); });
    while (pool->queue_depth(0) != 0) std::this_thread::yield();
    while (pool->TryPost(0, [] {})) {
    }
  }

  ~SaturatedShard() {
    release.set_value();
    pool->Quiesce();
  }

  ShardPool* pool;
  std::promise<void> release;
  std::shared_future<void> gate;
};

TEST(RetryHintTest, HintIsNeverZeroEvenWhenConfiguredZero) {
  // retry_after = 0 is the lying configuration: pre-fix, the watch ingest
  // path echoed it verbatim.
  RuntimeOptions o;
  o.shards = 1;
  o.queue_capacity = 8;
  o.retry_after = 0;
  ShardPool pool(o);
  ConcurrentBroker broker(&pool);
  ConcurrentWatchService watch(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  {
    SaturatedShard full(&pool);

    common::TimeMicros hint = 0;
    EXPECT_FALSE(broker.TryPublish("t", {"", "v", 0}, 0, &hint).ok());
    EXPECT_GE(hint, 1) << "publish hint of 0 means spin-retry";
    EXPECT_LE(hint, ShardPool::kRetryHintMaxScale);

    hint = 0;
    EXPECT_FALSE(watch.TryIngest({"k", common::Mutation::Put("v"), 1, true}, &hint).ok());
    EXPECT_GE(hint, 1) << "ingest hint of 0 means spin-retry (the pre-fix bug)";
    EXPECT_LE(hint, ShardPool::kRetryHintMaxScale);
  }
  pool.Stop();
}

TEST(RetryHintTest, HintScalesWithDepthAndStaysBoundedWhileFull) {
  RuntimeOptions o;
  o.shards = 1;
  o.queue_capacity = 16;
  o.retry_after = 100;
  ShardPool pool(o);
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());

  // Empty ring: the hint is the configured base.
  EXPECT_EQ(pool.RetryAfterHint(0), 100);

  {
    SaturatedShard full(&pool);
    // Full ring (worker parked, depth pinned at capacity): the hint is the
    // full-scale bound — and STAYS there across repeated rejections. The
    // regression guarded against: a later rejection resetting the hint to
    // zero (or the base) while the ring is still full.
    const common::TimeMicros full_hint = ShardPool::kRetryHintMaxScale * 100;
    EXPECT_EQ(pool.RetryAfterHint(0), full_hint);
    for (int i = 0; i < 100; ++i) {
      common::TimeMicros hint = 0;
      EXPECT_FALSE(broker.TryPublish("t", {"", "v", 0}, 0, &hint).ok());
      ASSERT_EQ(hint, full_hint) << "rejection " << i << " broke the sustained-overload bound";
    }
  }
  pool.Stop();
}

TEST(RetryHintTest, AsyncPathsCarryTheSameScaledHint) {
  RuntimeOptions o;
  o.shards = 1;
  o.queue_capacity = 4;
  o.retry_after = 50;
  ShardPool pool(o);
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  {
    SaturatedShard full(&pool);
    const common::TimeMicros full_hint = ShardPool::kRetryHintMaxScale * 50;

    common::TimeMicros hint = 0;
    EXPECT_FALSE(broker
                     .TryPublishAsync("t", {"", "v", 0}, 0, &hint,
                                      [](common::Result<pubsub::PublishResult>) {
                                        FAIL() << "rejected publish must not complete";
                                      })
                     .ok());
    EXPECT_EQ(hint, full_hint);

    hint = 0;
    EXPECT_FALSE(broker
                     .TryFetchAsync("t", 0, 0, 16, &hint,
                                    [](common::Result<std::vector<pubsub::StoredMessage>>) {
                                      FAIL() << "rejected fetch must not complete";
                                    })
                     .ok());
    EXPECT_EQ(hint, full_hint);

    hint = 0;
    EXPECT_FALSE(broker.TryCommitAsync("g", 0, 7, &hint, nullptr).ok());
    EXPECT_EQ(hint, full_hint);

    hint = 0;
    auto batch = std::make_shared<PublishBatch>();
    batch->Add("", "v");
    EXPECT_FALSE(broker.TryPublishBatch("t", batch, &hint).ok());
    EXPECT_EQ(hint, full_hint);
  }
  pool.Stop();
}

TEST(RetryHintTest, StoppedPoolAnswersFailedPreconditionWithNoHint) {
  // A stopped pool never drains. Answering "saturated; retry after …" there
  // kept a hint-obeying caller retrying until its budget ran out, and
  // counted every attempt as a full-ring rejection.
  RuntimeOptions o;
  o.shards = 1;
  o.retry_after = 100;
  ShardPool pool(o);
  ConcurrentBroker broker(&pool);
  ConcurrentWatchService watch(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  pool.Stop();
  const std::int64_t rejected = pool.metrics().counter("runtime.post_rejected").value();

  common::TimeMicros hint = 0;
  auto expect_stopped = [&hint](const common::Status& status, const char* path) {
    EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition)
        << path << ": " << status.message();
    EXPECT_EQ(hint, 0) << path << " handed out a retry hint";
    hint = 0;
  };
  expect_stopped(broker.TryPublish("t", {.value = "v"}, 0, &hint), "TryPublish");
  auto batch = std::make_shared<PublishBatch>();
  batch->Add("", "v");
  expect_stopped(broker.TryPublishBatch("t", batch, &hint), "TryPublishBatch");
  expect_stopped(broker.TryFetchAsync("t", 0, 0, 16, &hint,
                                      [](common::Result<std::vector<pubsub::StoredMessage>>) {
                                        FAIL() << "refused fetch must not complete";
                                      }),
                 "TryFetchAsync");
  expect_stopped(broker.TryCommitAsync("g", 0, 7, &hint, nullptr), "TryCommitAsync");
  expect_stopped(watch.TryIngest({"k", common::Mutation::Put("v"), 1, true}, &hint),
                 "TryIngest");
  EXPECT_EQ(pool.metrics().counter("runtime.post_rejected").value(), rejected);
}

}  // namespace
}  // namespace runtime
