// Contract suite for the shard ingress ring (MpscQueue): loud TryPush
// backpressure with exact rejection behaviour, per-producer FIFO,
// close-drains-then-exit, reopen, and edge parking. The 8-producer stress and
// the idle-policy tests at the bottom are TSan-facing: CI runs them under
// -DPUBSUB_SANITIZE=thread.
#include "runtime/mpsc_queue.h"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "runtime/idle_policy.h"

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

// --- Idle policy: poll, then park (runtime/idle_policy.h) ---

using SteadyClock = std::chrono::steady_clock;
constexpr std::int64_t kPollLimitNs = IdlePolicy::kPollLimit.count();

// A poll ends in work only if the producer runs while the consumer polls.
// When other processes hold every core (a parallel test run), the producer
// is descheduled mid-poll, polls time out and the policy parks instead: the
// rule working, not failing. Tests that need polls retry for this long.
constexpr auto kBusyHostBudget = std::chrono::seconds(30);

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Busy-waits: a sleep would stretch the gap by the producer's own wake-up.
void SpinUs(int us) {
  const auto until = SteadyClock::now() + std::chrono::microseconds(us);
  while (SteadyClock::now() < until) {
  }
}

// A ring whose consumer may poll, with its idle counters, drained by a
// thread that records the CPU time it spent inside each PopBatch call.
struct IdleRig {
  IdleRig() : q(64, IdlePolicy(true, &polled, &parked)) {}
  ~IdleRig() {
    q.Close();
    Join();
  }

  void Join() {
    if (consumer.joinable()) {
      consumer.join();
    }
  }

  // Pushes one item and waits until the consumer has drained it.
  void RoundTrip() {
    const std::size_t before = drained.load();
    ASSERT_TRUE(q.TryPush(1));
    while (drained.load() == before) {
      std::this_thread::yield();
    }
  }

  // `rounds` round trips, each pushed `gap_us` after the previous drain:
  // with a gap well under the limit, the consumer's idle periods are short.
  void Dense(int rounds, int gap_us = 20) {
    for (int i = 0; i < rounds; ++i) {
      SpinUs(gap_us);
      RoundTrip();
    }
  }

  // Dense batches of 100 round trips until one batch ends mostly in the
  // poll (true) or kBusyHostBudget runs out (false). Each push lands 20 us
  // into a poll that lasts up to 200 us, so only a descheduled thread makes
  // a period park.
  bool DenseUntilPolling() {
    const auto deadline = SteadyClock::now() + kBusyHostBudget;
    Dense(32);  // More than half of the last 15 idle periods short: polls.
    for (;;) {
      const std::int64_t polled_before = polled.value();
      const std::int64_t parked_before = parked.value();
      Dense(100);
      batch_polled = polled.value() - polled_before;
      batch_parked = parked.value() - parked_before;
      if (batch_polled >= 50 && batch_polled > batch_parked) {
        return true;
      }
      if (SteadyClock::now() >= deadline) {
        return false;
      }
    }
  }

  common::Counter polled;
  common::Counter parked;
  std::int64_t batch_polled = 0;  // The last DenseUntilPolling batch.
  std::int64_t batch_parked = 0;
  MpscQueue<int> q;
  std::atomic<std::size_t> drained{0};
  std::atomic<std::int64_t> last_pop_cpu_ns{0};
  std::thread consumer{[this] {
    std::vector<int> out;
    for (;;) {
      const std::int64_t cpu = ThreadCpuNs();
      const std::size_t n = q.PopBatch(out, 64);
      last_pop_cpu_ns.store(ThreadCpuNs() - cpu);
      if (n == 0) {
        return;
      }
      out.clear();
      drained.fetch_add(n);
    }
  }};
};

bool HasSpareCore() { return std::thread::hardware_concurrency() >= 2; }

TEST(MpscQueueTest, IdlePushDuringPollIsDrainedWithoutPark) {
  if (!HasSpareCore()) {
    GTEST_SKIP() << "a polling consumer needs a core of its own";
  }
  IdleRig rig;
  EXPECT_TRUE(rig.DenseUntilPolling())
      << "last batch: polled " << rig.batch_polled << ", parked " << rig.batch_parked;
}

TEST(MpscQueueTest, IdleCloseDuringPollReturnsZeroPromptly) {
  if (!HasSpareCore()) {
    GTEST_SKIP() << "a polling consumer needs a core of its own";
  }
  // A descheduled consumer can time its poll out and park before Close
  // lands; that attempt proves nothing, so take the first that polled.
  bool ended_in_poll = false;
  const auto deadline = SteadyClock::now() + kBusyHostBudget;
  while (!ended_in_poll && SteadyClock::now() < deadline) {
    IdleRig rig;
    rig.Dense(32);
    const std::int64_t polled = rig.polled.value();
    const std::int64_t parked = rig.parked.value();
    SpinUs(20);  // The consumer is inside its poll.
    const auto closed_at = SteadyClock::now();
    rig.q.Close();
    rig.Join();  // The consumer exits only when PopBatch returns 0.
    const auto took = SteadyClock::now() - closed_at;
    ended_in_poll = rig.polled.value() == polled + 1 && rig.parked.value() == parked;
    if (ended_in_poll) {
      EXPECT_LT(took, std::chrono::milliseconds(100));
    }
  }
  EXPECT_TRUE(ended_in_poll) << "Close never ended a poll";
}

TEST(MpscQueueTest, IdleSparseArrivalsNeverPoll) {
  IdleRig rig;
  std::vector<std::int64_t> idle_cpu_ns;
  for (int i = 0; i < 24; ++i) {
    // 1 ms apart: every idle period is five times the poll limit.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    rig.RoundTrip();
    idle_cpu_ns.push_back(rig.last_pop_cpu_ns.load());
  }
  EXPECT_EQ(rig.polled.value(), 0);
  EXPECT_GE(rig.parked.value(), 24);
  // Parked, the consumer's CPU clock stands still across the 1 ms gap;
  // one poll alone would have charged it the full 200 us.
  std::nth_element(idle_cpu_ns.begin(), idle_cpu_ns.begin() + 12, idle_cpu_ns.end());
  EXPECT_LT(idle_cpu_ns[12], kPollLimitNs / 2);
}

TEST(MpscQueueTest, IdleAfterDenseBurstParksWithinLimit) {
  if (!HasSpareCore()) {
    GTEST_SKIP() << "a polling consumer needs a core of its own";
  }
  IdleRig rig;
  ASSERT_TRUE(rig.DenseUntilPolling());
  // The burst is over: the consumer polls for at most the limit, then parks.
  const std::int64_t polled = rig.polled.value();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  rig.RoundTrip();
  // A poll that outlived the limit would have seen this push and ended
  // polled, after charging the consumer for the whole 20 ms.
  EXPECT_EQ(rig.polled.value(), polled);
  EXPECT_LT(rig.last_pop_cpu_ns.load(), 5 * kPollLimitNs);
}

}  // namespace
}  // namespace runtime
