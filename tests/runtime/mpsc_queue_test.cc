// Contract suite for the shard ingress ring (MpscQueue): loud TryPush
// backpressure with exact rejection behaviour, per-producer FIFO,
// close-drains-then-exit, reopen, and edge parking. The 8-producer stress at
// the bottom is TSan-facing: CI runs it under -DPUBSUB_SANITIZE=thread. The
// ring's idle poll is pinned with the policy in tests/common/idle_policy_test.cc.
#include "runtime/mpsc_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace runtime {
namespace {

TEST(MpscQueueTest, FifoSingleProducer) {
  MpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.TryPush(i));
  }
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(out, 16), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MpscQueueTest, ExactCapacityAndRejectionAtTheFullEdge) {
  // Deliberately NOT a power of two: the capacity is exact, not rounded up.
  MpscQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_FALSE(q.TryPush(4));  // Full: loud, item untouched.
  EXPECT_FALSE(q.TryPush(5));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(out, 1), 1u);
  EXPECT_TRUE(q.TryPush(4));   // Exactly one slot freed.
  EXPECT_FALSE(q.TryPush(5));
  out.clear();
  EXPECT_EQ(q.PopBatch(out, 8), 3u);
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

TEST(MpscQueueTest, RejectedPushLeavesItemUntouched) {
  // Capacity 1, the smallest ring: one push fills it.
  MpscQueue<std::vector<int>> q(1);
  ASSERT_TRUE(q.TryPush(std::vector<int>{0}));
  std::vector<int> item{1, 2, 3};
  EXPECT_FALSE(q.TryPush(std::move(item)));
  // The backpressure contract: a rejected move-push must leave the caller
  // owning the intact value (it retries or surfaces kUnavailable with it).
  EXPECT_EQ(item, (std::vector<int>{1, 2, 3}));
}

TEST(MpscQueueTest, CloseDrainsRemainderThenSignalsExit) {
  MpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_FALSE(q.Push(3));
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(out, 8), 2u);  // Remainder drains.
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.PopBatch(out, 8), 0u);  // Closed-and-drained.
}

TEST(MpscQueueTest, ReopenRestoresServiceAfterCloseAndDrain) {
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.TryPush(1));
  q.Close();
  std::vector<int> out;
  ASSERT_EQ(q.PopBatch(out, 8), 1u);
  ASSERT_EQ(q.PopBatch(out, 8), 0u);
  q.Reopen();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.TryPush(7));  // The Stop→Start cycle of a ShardPool.
  EXPECT_TRUE(q.TryPush(8));
  EXPECT_FALSE(q.TryPush(9));  // Capacity intact across the cycle.
  out.clear();
  EXPECT_EQ(q.PopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{7, 8}));
}

TEST(MpscQueueTest, BlockingPushWaitsForSpace) {
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.TryPush(0));
  ASSERT_TRUE(q.TryPush(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // Parked on the full edge.
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(out, 1), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  out.clear();
  EXPECT_EQ(q.PopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(MpscQueueTest, CloseWakesBlockedProducer) {
  // No consumer thread: nothing can free a slot, so the blocked Push can only
  // return via the close wake (a drain racing ahead of Close would otherwise
  // let the push legitimately succeed).
  MpscQueue<int> q(2);
  ASSERT_TRUE(q.TryPush(0));
  ASSERT_TRUE(q.TryPush(1));
  std::thread producer([&] { EXPECT_FALSE(q.Push(2)); });  // Full, then closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  // The accepted items survived the rejected push and the close.
  std::vector<int> out;
  EXPECT_EQ(q.PopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.PopBatch(out, 8), 0u);
}

TEST(MpscQueueTest, CloseWakesParkedConsumer) {
  MpscQueue<int> q(2);
  std::thread consumer([&] {
    std::vector<int> out;
    // Empty and open: parks until the close wake, then reports drained.
    EXPECT_EQ(q.PopBatch(out, 8), 0u);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

// The accounting property the backpressure contract is built on, at the CI
// stress width (8 producers): every push that returned true drains exactly
// once, every TryPush that returned false drained zero times, and each
// producer's accepted items drain in its push order. Runs blocking Push on
// half the producers and TryPush (counting rejections) on the other half so
// both the parked-edge and the loud-failure paths are exercised under TSan.
TEST(MpscQueueTest, EightProducerStressExactAccountingAndFifo) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 5000;
  MpscQueue<std::pair<int, int>> q(64);

  std::vector<std::vector<int>> drained(kProducers);
  std::thread consumer([&] {
    std::vector<std::pair<int, int>> batch;
    while (true) {
      batch.clear();
      if (q.PopBatch(batch, 128) == 0) {
        break;
      }
      for (const auto& [producer, seq] : batch) {
        drained[static_cast<std::size_t>(producer)].push_back(seq);
      }
    }
  });

  std::vector<std::size_t> accepted(kProducers, 0);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &accepted, p] {
      const bool blocking = (p % 2) == 0;
      std::size_t ok = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        if (blocking) {
          ASSERT_TRUE(q.Push({p, i}));
          ++ok;
        } else if (q.TryPush({p, i})) {
          ++ok;
        }
        // Rejected TryPush items are simply dropped by this producer; the
        // accounting below proves the queue dropped nothing it accepted and
        // invented nothing it rejected.
      }
      accepted[static_cast<std::size_t>(p)] = ok;
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  q.Close();
  consumer.join();

  for (int p = 0; p < kProducers; ++p) {
    const auto& seqs = drained[static_cast<std::size_t>(p)];
    ASSERT_EQ(seqs.size(), accepted[static_cast<std::size_t>(p)])
        << "producer " << p << ": accepted/drained mismatch";
    if ((p % 2) == 0) {
      ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kPerProducer));
    }
    // Per-producer FIFO: drained sequence numbers strictly increase.
    for (std::size_t i = 1; i < seqs.size(); ++i) {
      ASSERT_LT(seqs[i - 1], seqs[i]) << "producer " << p << " reordered";
    }
  }
}

}  // namespace
}  // namespace runtime
