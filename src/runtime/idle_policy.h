// IdlePolicy: what a shard ring's consumer does when it finds the ring empty
// — poll, then park. MpscQueue::PopBatch calls Idle(), so the rule lives
// here, apart from the ring's locking.
//
// Parking costs a round trip through the kernel on both sides of the ring:
// the producer's notify becomes a futex wake, and the parked worker waits
// for the scheduler before it runs again. When the next task tends to arrive
// within microseconds, polling a lock-free "work arrived" probe instead keeps
// the worker on its core, and a producer's notify then finds no sleeper and
// skips the syscall. Linux guest halt-polling applies the same trade to idle
// vCPUs (https://docs.kernel.org/virt/guest-halt-polling.html).
//
// The rule: poll for up to kPollLimit, then park, but only while the median
// of the last kHistory idle periods is under kPollLimit; otherwise park at
// once. An idle period runs from the consumer finding the ring empty to it
// seeing work (or Close) again. Sparse arrivals therefore never pay for a
// poll that would time out, and a burst that ends costs at most one
// kPollLimit of CPU before the worker parks. The owner disables polling
// outright where it cannot pay (ShardPool: when shards >= hardware threads,
// a polling worker would steal the core another shard needs).
//
// Consumer-confined: only the ring's single consumer calls Idle().
#ifndef SRC_RUNTIME_IDLE_POLICY_H_
#define SRC_RUNTIME_IDLE_POLICY_H_

#include <bit>
#include <chrono>
#include <cstdint>

#include "common/metrics.h"

namespace runtime {

class IdlePolicy {
 public:
  using Clock = std::chrono::steady_clock;

  // Longest poll before parking: haltpoll's default guest_halt_poll_ns.
  static constexpr std::chrono::nanoseconds kPollLimit{200'000};
  // Idle periods the median is taken over.
  static constexpr int kHistory = 15;

  // Never polls: every idle period parks at once, uncounted.
  IdlePolicy() = default;
  // `may_poll` false also parks at once. The counters (either may be null)
  // receive one increment per idle period: `polled` when the poll saw work
  // arrive, `parked` when the consumer parked.
  IdlePolicy(bool may_poll, common::Counter* polled, common::Counter* parked)
      : may_poll_(may_poll), polled_(polled), parked_(parked) {}

  // Runs one idle period. `ready` is the ring's lock-free probe (work or
  // Close arrived); `park` blocks on the ring's locked predicate. Returns
  // once either has seen work or Close.
  template <typename Ready, typename Park>
  void Idle(const Ready& ready, const Park& park) {
    if (!may_poll_) {
      Count(parked_);
      park();
      return;
    }
    const Clock::time_point start = Clock::now();
    if (ShouldPoll()) {
      for (Clock::time_point now = start; now - start < kPollLimit; now = Clock::now()) {
        if (ready()) {
          Record(now - start);
          Count(polled_);
          return;
        }
        CpuRelax();
      }
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

  void Record(Clock::duration idle) {
    constexpr std::uint32_t kMask = (std::uint32_t{1} << kHistory) - 1;
    short_periods_ = ((short_periods_ << 1) | (idle < kPollLimit ? 1u : 0u)) & kMask;
  }

  static void Count(common::Counter* counter) {
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

  bool may_poll_ = false;
  common::Counter* polled_ = nullptr;
  common::Counter* parked_ = nullptr;
  // Bit i: whether the i-th most recent idle period was under kPollLimit.
  // Starts all-long, so a consumer parks until arrivals prove dense.
  std::uint32_t short_periods_ = 0;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_IDLE_POLICY_H_
