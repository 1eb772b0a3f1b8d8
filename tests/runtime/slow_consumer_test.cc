// The slow-consumer policy matrix (SlowConsumerPolicy), pinned as
// properties:
//
//   * kBlock      — loses nothing, ever: every published offset is delivered
//                   in order, and the stall counter proves backpressure
//                   actually engaged.
//   * kDropOldest — loss is exact: delivered + drops() == published, the
//                   drops() accessor equals the runtime.slow_consumer.drops
//                   counter, and what survives is in order (a gap is allowed,
//                   a reorder or duplicate is not). Run across seeds with an
//                   erratically pausing consumer.
//   * kDisconnect — overflow is terminal and loud: broken() latches, Wait()
//                   returns false once drained, the disconnect counter bumps,
//                   and an obs kSessionBreak with cause "slow_consumer" is
//                   logged. An idle-but-full subscription is NOT cut — only
//                   an overflow with data pending escalates.
//
// The over-socket variant drives the same kDisconnect path through pubsubd
// (ServerOptions::slow_consumer) with a subscriber that never drains its
// connection, and asserts the whole session is torn down with the same
// cause. Suite label: overload.
#include "runtime/subscription.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/rng.h"
#include "obs/collector.h"
#include "pubsub/types.h"
#include "runtime/concurrent_broker.h"
#include "runtime/shard_pool.h"
#include "server/pubsubd.h"

namespace runtime {
namespace {

using Clock = std::chrono::steady_clock;

void SleepUs(std::int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// Publishes kMessages to t/0, riding backpressure.
void PublishAll(ConcurrentBroker* broker, int messages) {
  for (int i = 0; i < messages; ++i) {
    common::TimeMicros backoff = 0;
    while (!broker->TryPublish("t", {"", "v" + std::to_string(i), 0}, 0, &backoff).ok()) {
      SleepUs(backoff);
    }
  }
}

TEST(SlowConsumerPolicyTest, BlockStallsAndLosesNothing) {
  constexpr int kMessages = 3000;
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0,
                              {.handoff_capacity = 32,
                               .shard_batch = 16,
                               .slow_consumer = SlowConsumerPolicy::kBlock});
  ASSERT_NE(sub, nullptr);

  std::thread producer([&] { PublishAll(&broker, kMessages); });
  std::vector<pubsub::StoredMessage> got;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (got.size() < static_cast<std::size_t>(kMessages) && Clock::now() < deadline) {
    if (sub->PollBatch(&got, 16) == 0) (void)sub->Wait(2000);
  }
  producer.join();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_EQ(got[i].offset, static_cast<pubsub::Offset>(i)) << "gap or reorder at " << i;
  }
  EXPECT_EQ(sub->drops(), 0u);
  EXPECT_FALSE(sub->broken());
  // The handoff (32) is far smaller than the feed: kBlock must actually have
  // stalled, not just happened to keep up.
  EXPECT_GT(pool.metrics().counter("runtime.slow_consumer.stalls").value(), 0u);
  EXPECT_EQ(pool.metrics().counter("runtime.slow_consumer.drops").value(), 0u);
  EXPECT_EQ(pool.metrics().counter("runtime.slow_consumer.disconnects").value(), 0u);
  sub.reset();
  pool.Stop();
}

TEST(SlowConsumerPolicyTest, DropOldestLossIsExactAcrossSeeds) {
  constexpr int kMessages = 4000;
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ShardPool pool({.shards = 1});
    ConcurrentBroker broker(&pool);
    pool.Start();
    ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
    auto sub = broker.Subscribe("t", 0, 0,
                                {.handoff_capacity = 64,
                                 .shard_batch = 32,
                                 .slow_consumer = SlowConsumerPolicy::kDropOldest});
    ASSERT_NE(sub, nullptr);

    std::thread producer([&] { PublishAll(&broker, kMessages); });
    // Erratic consumer: seeded bursts of draining interleaved with pauses
    // long enough to overflow the handoff repeatedly.
    common::Rng rng(seed);
    std::vector<pubsub::StoredMessage> got;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (got.size() + sub->drops() < static_cast<std::size_t>(kMessages) &&
           Clock::now() < deadline) {
      const std::size_t sip = 1 + rng.Next() % 48;
      if (sub->PollBatch(&got, sip) == 0) {
        (void)sub->Wait(1000);
      } else if (rng.Next() % 4 == 0) {
        SleepUs(static_cast<std::int64_t>(rng.Next() % 2000));
      }
    }
    producer.join();

    // Loss accounting is exact: every published record was either delivered
    // or counted as a drop — nothing silent.
    EXPECT_EQ(got.size() + sub->drops(), static_cast<std::size_t>(kMessages));
    EXPECT_EQ(sub->drops(), pool.metrics().counter("runtime.slow_consumer.drops").value());
    EXPECT_GT(sub->drops(), 0u) << "consumer kept up; the property was not exercised";
    // Survivors are in order — gaps allowed, duplicates and reorders not.
    for (std::size_t i = 1; i < got.size(); ++i) {
      ASSERT_LT(got[i - 1].offset, got[i].offset) << "duplicate or reorder at " << i;
    }
    EXPECT_FALSE(sub->broken());
    EXPECT_EQ(pool.metrics().counter("runtime.slow_consumer.disconnects").value(), 0u);
    sub.reset();
    pool.Stop();
  }
}

TEST(SlowConsumerPolicyTest, DisconnectCutsOverflowAndLogsSessionBreak) {
  common::MetricsRegistry obs_metrics;
  obs::Collector obs(&obs_metrics);
  RuntimeOptions opts{.shards = 1};
  opts.obs = &obs;
  ShardPool pool(opts);
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0,
                              {.handoff_capacity = 8,
                               .shard_batch = 4,
                               .slow_consumer = SlowConsumerPolicy::kDisconnect});
  ASSERT_NE(sub, nullptr);

  // Never drain; keep publishing until the overflow cuts the subscription.
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  int published = 0;
  while (!sub->broken() && Clock::now() < deadline) {
    common::TimeMicros backoff = 0;
    if (broker.TryPublish("t", {"", "v" + std::to_string(published), 0}, 0, &backoff).ok()) {
      ++published;
    } else {
      SleepUs(backoff);
    }
  }
  ASSERT_TRUE(sub->broken()) << "overflow never cut the subscription";
  EXPECT_GE(pool.metrics().counter("runtime.slow_consumer.disconnects").value(), 1u);
  EXPECT_EQ(sub->drops(), 0u);

  // The break is loud in obs: a kSessionBreak with cause "slow_consumer".
  bool saw_break = false;
  for (const obs::ObsEvent& e : obs.Events()) {
    if (e.kind == obs::EventKind::kSessionBreak && e.cause == "slow_consumer") saw_break = true;
  }
  EXPECT_TRUE(saw_break);
  EXPECT_GE(obs_metrics.counter("obs.event.session_break.slow_consumer").value(), 1u);

  // Buffered messages stay drainable; once they are gone Wait reports the
  // terminal state.
  std::vector<pubsub::StoredMessage> leftovers;
  while (sub->PollBatch(&leftovers, 256) > 0) {
  }
  EXPECT_FALSE(sub->Wait(1000));
  sub.reset();
  pool.Stop();
}

TEST(SlowConsumerPolicyTest, DisconnectSparesIdleFullSubscription) {
  // The cut fires only on overflow WITH data pending (a waiter firing into a
  // full buffer). A subscription whose buffer is merely full — consumer
  // paused, publisher quiet — must survive and resume cleanly.
  constexpr int kCapacity = 16;
  ShardPool pool({.shards = 1});
  ConcurrentBroker broker(&pool);
  pool.Start();
  ASSERT_TRUE(broker.CreateTopic("t", {.partitions = 1}).ok());
  auto sub = broker.Subscribe("t", 0, 0,
                              {.handoff_capacity = kCapacity,
                               .shard_batch = kCapacity,
                               .slow_consumer = SlowConsumerPolicy::kDisconnect});
  ASSERT_NE(sub, nullptr);

  // Fill the handoff to exactly its bound, then go quiet.
  PublishAll(&broker, kCapacity);
  SleepUs(200'000);
  EXPECT_FALSE(sub->broken()) << "idle-but-full subscription was cut";

  // Drain, publish one more: delivery resumes as if nothing happened.
  std::vector<pubsub::StoredMessage> got;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (got.size() < kCapacity && Clock::now() < deadline) {
    if (sub->PollBatch(&got, 256) == 0) (void)sub->Wait(2000);
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCapacity));
  ASSERT_TRUE(broker.PublishSync("t", {"", "tail", 0}, 0).ok());
  while (got.size() < kCapacity + 1 && Clock::now() < deadline) {
    if (sub->PollBatch(&got, 256) == 0) (void)sub->Wait(2000);
  }
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kCapacity + 1));
  EXPECT_EQ(got.back().message.value, "tail");
  EXPECT_FALSE(sub->broken());
  sub.reset();
  pool.Stop();
}

TEST(SlowConsumerPolicyTest, PolicyNamesAreStable) {
  EXPECT_STREQ(SlowConsumerPolicyName(SlowConsumerPolicy::kBlock), "block");
  EXPECT_STREQ(SlowConsumerPolicyName(SlowConsumerPolicy::kDropOldest), "drop_oldest");
  EXPECT_STREQ(SlowConsumerPolicyName(SlowConsumerPolicy::kDisconnect), "disconnect");
}

// -- Over the socket -----------------------------------------------------------

TEST(SlowConsumerSocketTest, DisconnectTearsDownNonDrainingSession) {
  common::MetricsRegistry obs_metrics;
  obs::Collector obs(&obs_metrics);
  RuntimeOptions pool_opts{.shards = 1};
  pool_opts.obs = &obs;
  ShardPool pool(pool_opts);
  ConcurrentBroker broker(&pool);
  pool.Start();

  server::ServerOptions server_opts;
  server_opts.obs = &obs;
  // Tight budgets so a non-draining subscriber overflows fast: a small
  // socket-side watermark pauses session draining early, the small handoff
  // lane then fills, and the next append escalates to the policy.
  server_opts.send_buffer_limit = 32 * 1024;
  server_opts.subscription_handoff = 16;
  server_opts.slow_consumer = SlowConsumerPolicy::kDisconnect;
  server::Server srv(&broker, nullptr, &pool.metrics(), server_opts);
  ASSERT_TRUE(srv.Start().ok());

  auto consumer_r = client::Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(consumer_r.ok());
  auto consumer = std::move(consumer_r).value();
  ASSERT_TRUE(consumer->CreateTopic("t", {.partitions = 1}).ok());
  auto stream_r = consumer->Subscribe("t", 0, 0);
  ASSERT_TRUE(stream_r.ok());
  auto stream = std::move(stream_r).value();
  // The consumer now never reads: no Poll calls, so DELIVER frames pile up
  // in the kernel buffers, then in the session's out buffer, then in the
  // subscription handoff. (The heartbeat thread only writes, keeping the
  // session alive — the teardown we want must be the policy's, not the
  // dead-peer sweep's.)

  auto producer_r = client::Client::Connect("127.0.0.1", srv.port());
  ASSERT_TRUE(producer_r.ok());
  auto producer = std::move(producer_r).value();

  const std::string value(4096, 'x');
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  bool saw_break = false;
  while (!saw_break && Clock::now() < deadline) {
    for (int i = 0; i < 64 && !saw_break; ++i) {
      (void)producer->Publish("t", "", value, 0, net::PublishAck::kNone);
      for (const obs::ObsEvent& e : obs.Events()) {
        if (e.kind == obs::EventKind::kSessionBreak && e.cause == "slow_consumer") {
          saw_break = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_break) << "server never cut the slow consumer";
  EXPECT_GE(obs_metrics.counter("obs.event.session_break.slow_consumer").value(), 1u);
  EXPECT_GE(pool.metrics().counter("runtime.slow_consumer.disconnects").value(), 1u);

  // The torn-down session is gone server-side.
  for (auto waited = 0; waited < 5'000'000 && srv.sessions_closed() < 1; waited += 2000) {
    SleepUs(2000);
  }
  EXPECT_GE(srv.sessions_closed(), 1u);

  stream.reset();
  consumer.reset();
  producer.reset();
  srv.Stop();
  pool.Stop();
}

}  // namespace
}  // namespace runtime
