#include "runtime/shard_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "watch/api.h"

namespace runtime {
namespace {

RuntimeOptions SmallOptions(std::size_t shards) {
  RuntimeOptions o;
  o.shards = shards;
  o.queue_capacity = 64;
  return o;
}

TEST(ShardPoolTest, CoresAreIndependentSingleThreadedStacks) {
  ShardPool pool(SmallOptions(2));
  EXPECT_EQ(pool.shard_count(), 2u);
  EXPECT_FALSE(pool.running());
  EXPECT_NE(pool.core(0).broker.get(), pool.core(1).broker.get());
  // Not running: cores are plain single-threaded objects, touchable directly.
  EXPECT_TRUE(pool.core(0).broker->CreateTopic("t", {.partitions = 2}).ok());
  EXPECT_TRUE(pool.core(0).broker->HasTopic("t"));
  EXPECT_FALSE(pool.core(1).broker->HasTopic("t"));
  EXPECT_EQ(pool.core(0).broker->node(), "broker-0");
  EXPECT_EQ(pool.core(1).broker->node(), "broker-1");
}

TEST(ShardPoolTest, RunOnExecutesOnWorkerAndReturnsValue) {
  ShardPool pool(SmallOptions(2));
  pool.Start();
  EXPECT_TRUE(pool.running());
  const std::string node =
      pool.RunOn(1, [](ShardCore& core) { return std::string(core.broker->node()); });
  EXPECT_EQ(node, "broker-1");
  const std::thread::id worker =
      pool.RunOn(0, [](ShardCore&) { return std::this_thread::get_id(); });
  EXPECT_NE(worker, std::this_thread::get_id());
  pool.Stop();
  EXPECT_FALSE(pool.running());
}

TEST(ShardPoolTest, PostRunsInlineWhenStopped) {
  ShardPool pool(SmallOptions(1));
  bool ran = false;
  pool.Post(0, [&ran] { ran = true; });
  EXPECT_TRUE(ran);  // Inline: the pool never started.
}

TEST(ShardPoolTest, StopIsIdempotentAndDrains) {
  ShardPool pool(SmallOptions(2));
  pool.Start();
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Post(i % 2, [&ran] { ran.fetch_add(1); });
  }
  pool.Stop();
  pool.Stop();
  EXPECT_EQ(ran.load(), 100);  // Stop drains what was enqueued.
}

TEST(ShardPoolTest, TryPostBackpressureWhenSaturated) {
  RuntimeOptions o;
  o.shards = 1;
  o.queue_capacity = 2;
  ShardPool pool(o);
  pool.Start();

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Post(0, [gate] { gate.wait(); });
  // Wait until the worker has dequeued the gate task and is parked in it.
  while (pool.queue_depth(0) != 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(pool.TryPost(0, [] {}));
  EXPECT_TRUE(pool.TryPost(0, [] {}));
  EXPECT_FALSE(pool.TryPost(0, [] {}));  // Queue full: loud rejection.
  release.set_value();
  pool.Quiesce();
  EXPECT_EQ(pool.metrics().counter("runtime.post_rejected").value(), 1);
  pool.Stop();
}

TEST(ShardPoolTest, RunFencedTouchesEveryCore) {
  ShardPool pool(SmallOptions(4));
  pool.Start();
  // The fence parks all workers; the caller may touch any core, cross-shard.
  pool.RunFenced([&] {
    for (std::size_t s = 0; s < pool.shard_count(); ++s) {
      EXPECT_TRUE(pool.core(s).broker->CreateTopic("fenced", {.partitions = 4}).ok());
    }
  });
  for (std::size_t s = 0; s < pool.shard_count(); ++s) {
    EXPECT_TRUE(pool.RunOn(s, [](ShardCore& core) { return core.broker->HasTopic("fenced"); }));
  }
  pool.Stop();
}

TEST(ShardPoolTest, QuiesceFlushesZeroLatencyDeliveries) {
  struct CountingCallback : watch::WatchCallback {
    std::atomic<int> events{0};
    void OnEvent(const common::ChangeEvent&) override { events.fetch_add(1); }
    void OnProgress(const common::ProgressEvent&) override {}
    void OnResync() override {}
  };
  ShardPool pool(SmallOptions(1));
  CountingCallback cb;
  std::unique_ptr<watch::WatchHandle> handle;
  pool.Start();
  pool.RunOn(0, [&](ShardCore& core) {
    handle = core.watch->Watch(common::Key(), common::Key(), 0, &cb);
  });
  for (int i = 0; i < 10; ++i) {
    pool.Post(0, [&pool, i] {
      pool.core(0).watch->Append({"k" + std::to_string(i), common::Mutation::Put("v"),
                                  static_cast<common::Version>(i + 1), true});
    });
  }
  pool.Quiesce();
  // Every append's zero-latency delivery has run by the time Quiesce returns.
  EXPECT_EQ(cb.events.load(), 10);
  pool.Stop();
  handle.reset();  // Inline cancel: the pool is stopped.
}

TEST(ShardPoolTest, TaskAndBatchCountersAdvance) {
  ShardPool pool(SmallOptions(2));
  pool.Start();
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.Post(i % 2, [&ran] { ran.fetch_add(1); });
  }
  pool.Quiesce();
  pool.Stop();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_GE(pool.metrics().counter("runtime.tasks_run").value(), 50);
  EXPECT_GE(pool.metrics().counter("runtime.batches_run").value(), 1);
}

TEST(ShardPoolTest, ShardSimulatorsAdvanceByTickPerBatch) {
  RuntimeOptions o = SmallOptions(1);
  o.tick = 10;
  ShardPool pool(o);
  pool.Start();
  pool.Post(0, [] {});
  pool.Quiesce();
  pool.Stop();
  EXPECT_GT(pool.core(0).sim->Now(), 0);
}

TEST(ShardPoolTest, DefaultTickKeepsClocksAtZeroForDeterminism) {
  ShardPool pool(SmallOptions(2));
  pool.Start();
  for (int i = 0; i < 20; ++i) {
    pool.Post(i % 2, [] {});
  }
  pool.Quiesce();
  pool.Stop();
  EXPECT_EQ(pool.core(0).sim->Now(), 0);
  EXPECT_EQ(pool.core(1).sim->Now(), 0);
}

TEST(ShardPoolTest, PinShardsFallsBackGracefullyWhenOversubscribed) {
  // More shards than CPUs: pinning would serialize shards behind each other,
  // so the pool must run unpinned — visibly (gauge and accessor at 0) — and
  // still work.
  RuntimeOptions o = SmallOptions(std::thread::hardware_concurrency() + 1);
  o.pin_shards = true;
  ShardPool pool(o);
  pool.Start();
  EXPECT_EQ(pool.pinned_shards(), 0u);
  EXPECT_EQ(pool.metrics().gauge("runtime.shards_pinned").value(), 0);
  std::atomic<int> ran{0};
  for (std::size_t s = 0; s < pool.shard_count(); ++s) {
    pool.Post(s, [&ran] { ran.fetch_add(1); });
  }
  pool.Quiesce();
  EXPECT_EQ(ran.load(), static_cast<int>(pool.shard_count()));
  pool.Stop();
}

TEST(ShardPoolTest, PinShardsPinsWorkersWhenCapacityAllows) {
  RuntimeOptions o = SmallOptions(1);
  o.pin_shards = true;
  ShardPool pool(o);
  pool.Start();
  // Workers pin themselves before entering their loop; a task round trip
  // proves the worker is past that point.
  pool.RunOn(0, [](ShardCore&) { return 0; });
#if defined(__linux__)
  // One shard always fits: hardware_concurrency() >= 1.
  EXPECT_EQ(pool.pinned_shards(), 1u);
  EXPECT_EQ(pool.metrics().gauge("runtime.shards_pinned").value(), 1);
#else
  // Non-Linux: affinity is unsupported; the fallback is the contract.
  EXPECT_EQ(pool.pinned_shards(), 0u);
#endif
  pool.Stop();
  // Restart re-derives the pin decision from scratch.
  pool.Start();
  pool.RunOn(0, [](ShardCore&) { return 0; });
#if defined(__linux__)
  EXPECT_EQ(pool.pinned_shards(), 1u);
#endif
  pool.Stop();
}

TEST(ShardPoolTest, IdleWorkersPollOnlyWithAHardwareThreadToSpare) {
  // Dense round trips to shard 0: each task lands ~20 us after the worker
  // ran the previous one, far inside the poll limit.
  const auto dense_round_trips = [](ShardPool& pool) {
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i) {
      const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(20);
      while (std::chrono::steady_clock::now() < until) {
      }
      ASSERT_TRUE(pool.TryPost(0, [&ran] { ran.fetch_add(1); }));
      while (ran.load() <= i) {
        std::this_thread::yield();
      }
    }
  };
  const std::size_t cpus = common::IdlePolicy::HardwareThreads();
  if (cpus >= 2) {
    ShardPool pool(SmallOptions(1));
    pool.Start();
    // While other processes hold every core, each poll times out with this
    // thread descheduled; retry until the host leaves both threads a core.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    do {
      dense_round_trips(pool);
    } while (pool.metrics().counter("runtime.idle_polled").value() == 0 &&
             std::chrono::steady_clock::now() < deadline);
    pool.Stop();
    EXPECT_GT(pool.metrics().counter("runtime.idle_polled").value(), 0);
  }
  // As many shards as hardware threads: a polling worker would spin on a
  // core another shard needs, so every idle period parks at once.
  ShardPool pool(SmallOptions(cpus));
  pool.Start();
  dense_round_trips(pool);
  pool.Stop();
  EXPECT_EQ(pool.metrics().counter("runtime.idle_polled").value(), 0);
  EXPECT_GT(pool.metrics().counter("runtime.idle_parked").value(), 0);
}

TEST(ShardPoolTest, PinShardsOffByDefault) {
  ShardPool pool(SmallOptions(1));
  pool.Start();
  EXPECT_EQ(pool.pinned_shards(), 0u);
  pool.Stop();
}

}  // namespace
}  // namespace runtime
