// Doorbell: a cross-thread wake-up. A shard thread rings it after making
// data available; a consumer thread parks on it instead of sleeping a poll
// period.
//
// The primitive is an epoch counter under a mutex/condvar. Waiting is
// expressed against an epoch the consumer read *before* checking for data,
// which makes the check-then-park discipline race-free across real threads:
//
//   1. seen = bell.Epoch();
//   2. check for data — consume and return if any;
//   3. bell.WaitPast(seen, timeout);
//
// A producer that slips between (2) and (3) bumps the epoch past `seen`, so
// the wait returns immediately: the classic lost-wakeup window is closed
// without holding the data lock across the park. The doorbell carries no
// payload and rings are not counted per-waiter — a woken consumer re-checks
// shared state and may find it spuriously unchanged.
#ifndef SRC_RUNTIME_DOORBELL_H_
#define SRC_RUNTIME_DOORBELL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/types.h"

namespace runtime {

class Doorbell {
 public:
  Doorbell() = default;

  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  std::uint64_t Epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

  // Wakes every thread parked in WaitPast.
  void Signal() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    cv_.notify_all();
  }

  // Blocks until the epoch passes `seen` or `timeout_us` of host time
  // elapses (timeout_us <= 0 waits indefinitely). Returns the current epoch;
  // the caller detects a timeout by comparing it to `seen`.
  std::uint64_t WaitPast(std::uint64_t seen, common::TimeMicros timeout_us) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto signaled = [&] { return epoch_ > seen; };
    if (timeout_us <= 0) {
      cv_.wait(lock, signaled);
    } else {
      cv_.wait_for(lock, std::chrono::microseconds(timeout_us), signaled);
    }
    return epoch_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_ = 0;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_DOORBELL_H_
