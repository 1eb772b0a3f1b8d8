// IdlePolicy: what a thread does when it finds nothing to do — poll, then
// park. Three waiters share the rule: a shard ring's consumer
// (runtime::MpscQueue::PopBatch), the pubsubd event loop before it blocks in
// epoll_wait, and a client's reader before it blocks on its socket.
//
// Parking costs a round trip through the kernel on both sides of the wait:
// the producer's notify becomes a syscall (a futex wake, an eventfd write, a
// socket wake-up), and the parked thread waits for the scheduler before it
// runs again. When the next event tends to arrive within microseconds,
// polling a cheap "work arrived" probe instead keeps the thread on its core,
// and the producer's notify then finds no sleeper and skips the syscall.
// Linux guest halt-polling applies the same trade to idle vCPUs
// (https://docs.kernel.org/virt/guest-halt-polling.html).
//
// The rule: poll for up to kPollLimit, then park, but only while the median
// of the last kHistory idle periods is under kPollLimit; otherwise park at
// once. An idle period runs from the waiter finding nothing to it seeing
// work (or shutdown) again. Sparse arrivals therefore never pay for a poll
// that would time out, and a burst that ends costs at most one kPollLimit of
// CPU before the waiter parks.
//
// A poller must not take the core that the thread it waits for needs. So
// polls are counted across the process, whichever owner runs them: a poll
// starts only while the threads polling leave a hardware thread free
// (HardwareThreads(), the CPUs this process may run on), and otherwise the
// waiter parks at once. A shard pool also disables polling outright when
// its workers alone would fill the host (HardwareThreadToSpare).
//
// Waiter-confined: only the one thread that waits calls Idle().
#ifndef SRC_COMMON_IDLE_POLICY_H_
#define SRC_COMMON_IDLE_POLICY_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "common/metrics.h"

namespace common {

class IdlePolicy {
 public:
  using Clock = std::chrono::steady_clock;

  // Longest poll before parking: haltpoll's default guest_halt_poll_ns.
  static constexpr std::chrono::nanoseconds kPollLimit{200'000};
  // Idle periods the median is taken over.
  static constexpr int kHistory = 15;

  // Hardware threads the calling thread may run on: its CPU affinity mask,
  // which a cpuset or taskset narrows below hardware_concurrency().
  static std::size_t HardwareThreads() {
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      return static_cast<std::size_t>(CPU_COUNT(&set));
    }
#endif
    return std::max(1u, std::thread::hardware_concurrency());
  }

  // Whether `pollers` threads that may poll can each keep a hardware thread
  // to themselves and still leave one free: with fewer, a polling thread
  // would spin on the core that the thread it waits for needs.
  static bool HardwareThreadToSpare(std::size_t pollers) { return pollers < HardwareThreads(); }

  // Never polls: every idle period parks at once, uncounted.
  IdlePolicy() = default;
  // `may_poll` false, or a host with one hardware thread, also parks at
  // once. The counters (either may be null) receive one increment per idle
  // period: `polled` when the poll saw work arrive, `parked` when the waiter
  // parked.
  IdlePolicy(bool may_poll, Counter* polled, Counter* parked)
      : poll_slots_(may_poll ? HardwareThreads() - 1 : 0), polled_(polled), parked_(parked) {}

  // Runs one idle period. `ready` is the waiter's cheap probe (work or
  // shutdown arrived); `park` blocks until work or shutdown arrives (or a
  // timeout of the owner's). Returns once either has returned.
  template <typename Ready, typename Park>
  void Idle(const Ready& ready, const Park& park) {
    if (poll_slots_ == 0) {
      Count(parked_);
      park();
      return;
    }
    const Clock::time_point start = Clock::now();
    if (ShouldPoll() && TakePollSlot()) {
      for (Clock::time_point now = start; now - start < kPollLimit; now = Clock::now()) {
        if (ready()) {
          polling_.fetch_sub(1, std::memory_order_relaxed);
          Record(now - start);
          Count(polled_);
          return;
        }
        CpuRelax();
      }
      polling_.fetch_sub(1, std::memory_order_relaxed);
    }
    Count(parked_);
    park();
    Record(Clock::now() - start);
  }

 private:
  // The median of kHistory samples is under the limit exactly when more
  // than half of them are, so one bit per sample ("short") is all the
  // history needs.
  bool ShouldPoll() const { return std::popcount(short_periods_) > kHistory / 2; }

  // Counts this thread in polling_ if that leaves a hardware thread free.
  bool TakePollSlot() {
    if (polling_.fetch_add(1, std::memory_order_relaxed) < poll_slots_) {
      return true;
    }
    polling_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }

  void Record(Clock::duration idle) {
    constexpr std::uint32_t kMask = (std::uint32_t{1} << kHistory) - 1;
    short_periods_ = ((short_periods_ << 1) | (idle < kPollLimit ? 1u : 0u)) & kMask;
  }

  static void Count(Counter* counter) {
    if (counter != nullptr) {
      counter->Increment();
    }
  }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  // Threads of this process polling right now, across every IdlePolicy. A
  // count, not a lock: nothing is published through it.
  alignas(64) inline static std::atomic<std::size_t> polling_{0};

  // Threads that may poll at once: one fewer than HardwareThreads() when
  // the owner lets this waiter poll, else 0 (never poll).
  std::size_t poll_slots_ = 0;
  Counter* polled_ = nullptr;
  Counter* parked_ = nullptr;
  // Bit i: whether the i-th most recent idle period was under kPollLimit.
  // Starts all-long, so a waiter parks until arrivals prove dense.
  std::uint32_t short_periods_ = 0;
};

}  // namespace common

#endif  // SRC_COMMON_IDLE_POLICY_H_
