// The idle policy (common/idle_policy.h): poll, then park. Its first waiter,
// the shard ring (runtime::MpscQueue::PopBatch), drives it here; the pubsubd
// loop and the client reader are pinned over real sockets in
// tests/net/server_test.cc. These tests are TSan-facing: CI runs them under
// -DPUBSUB_SANITIZE=thread.
#include "common/idle_policy.h"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "runtime/mpsc_queue.h"

namespace common {
namespace {

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
  runtime::MpscQueue<int> q;
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

bool HasSpareCore() { return IdlePolicy::HardwareThreads() >= 2; }

TEST(IdlePolicyTest, PushDuringPollIsDrainedWithoutPark) {
  if (!HasSpareCore()) {
    GTEST_SKIP() << "a polling consumer needs a core of its own";
  }
  IdleRig rig;
  EXPECT_TRUE(rig.DenseUntilPolling())
      << "last batch: polled " << rig.batch_polled << ", parked " << rig.batch_parked;
}

TEST(IdlePolicyTest, CloseDuringPollReturnsZeroPromptly) {
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

TEST(IdlePolicyTest, SparseArrivalsNeverPoll) {
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

// Polls are counted across the process, whichever policy runs them. Each
// level's probe below runs the next level's idle period, so every level
// holds its poll while the next one starts: the level that would take the
// last free hardware thread parks at once instead.
TEST(IdlePolicyTest, PollsLeaveAHardwareThreadFree) {
  const std::size_t cpus = IdlePolicy::HardwareThreads();
  std::vector<Counter> polled(cpus);
  std::vector<Counter> parked(cpus);
  std::vector<IdlePolicy> levels;
  for (std::size_t i = 0; i < cpus; ++i) {
    levels.emplace_back(true, &polled[i], &parked[i]);
    for (int k = 0; k < IdlePolicy::kHistory; ++k) {
      levels[i].Idle([] { return true; }, [] {});  // Short periods: it polls next.
    }
  }
  std::vector<std::int64_t> polled_before;
  std::vector<std::int64_t> parked_before;
  for (std::size_t i = 0; i < cpus; ++i) {
    polled_before.push_back(polled[i].value());
    parked_before.push_back(parked[i].value());
  }
  std::function<void(std::size_t)> idle_at = [&](std::size_t level) {
    levels[level].Idle(
        [&] {
          if (level + 1 < cpus) {
            idle_at(level + 1);
          }
          return true;
        },
        [] {});
  };
  idle_at(0);
  for (std::size_t i = 0; i + 1 < cpus; ++i) {
    EXPECT_EQ(polled[i].value() - polled_before[i], 1) << "level " << i;
  }
  EXPECT_EQ(polled[cpus - 1].value() - polled_before[cpus - 1], 0);
  EXPECT_EQ(parked[cpus - 1].value() - parked_before[cpus - 1], 1)
      << "the poll that would have taken the last free hardware thread ran";
}

TEST(IdlePolicyTest, AfterDenseBurstParksWithinLimit) {
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
}  // namespace common
