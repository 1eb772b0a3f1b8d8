// TaskRing: the shard ingress lane behind RuntimeOptions::lockfree_ring. Both
// ring implementations — the mutex+condvar MpscQueue and the CAS-claimed
// LockFreeMpscQueue — satisfy the same contract (loud TryPush backpressure,
// per-producer FIFO, close-drains-then-exit), so the pool talks to them
// through this one-virtual-call facade. The indirection is off the contention
// path: one predicted indirect call per operation versus a lock acquisition
// (mutex ring) or a CAS (lock-free ring) is noise; it is what lets the
// equivalence suites run the *identical* pool code over both rings.
#ifndef SRC_RUNTIME_TASK_RING_H_
#define SRC_RUNTIME_TASK_RING_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/idle_policy.h"
#include "runtime/lockfree_mpsc_queue.h"
#include "runtime/mpsc_queue.h"

namespace runtime {

using Task = std::function<void()>;

class TaskRing {
 public:
  virtual ~TaskRing() = default;

  virtual bool TryPush(Task&& task) = 0;
  // All-or-nothing: accepts every task (moved out) or none (tasks untouched).
  virtual bool TryPushBatch(Task* tasks, std::size_t n) = 0;
  virtual bool Push(Task&& task) = 0;
  virtual std::size_t PopBatch(std::vector<Task>& out, std::size_t max) = 0;
  virtual void Close() = 0;
  virtual void Reopen() = 0;
  virtual std::size_t size() const = 0;
  virtual std::size_t capacity() const = 0;
  virtual bool closed() const = 0;
};

template <typename Queue>
class TaskRingImpl final : public TaskRing {
 public:
  TaskRingImpl(std::size_t capacity, IdlePolicy idle) : queue_(capacity, idle) {}

  bool TryPush(Task&& task) override { return queue_.TryPush(std::move(task)); }
  bool TryPushBatch(Task* tasks, std::size_t n) override {
    return queue_.TryPushBatch(tasks, n);
  }
  bool Push(Task&& task) override { return queue_.Push(std::move(task)); }
  std::size_t PopBatch(std::vector<Task>& out, std::size_t max) override {
    return queue_.PopBatch(out, max);
  }
  void Close() override { queue_.Close(); }
  void Reopen() override { queue_.Reopen(); }
  std::size_t size() const override { return queue_.size(); }
  std::size_t capacity() const override { return queue_.capacity(); }
  bool closed() const override { return queue_.closed(); }

 private:
  Queue queue_;
};

// `idle` decides whether the ring's consumer polls before it parks.
inline std::unique_ptr<TaskRing> MakeTaskRing(bool lockfree, std::size_t capacity,
                                              IdlePolicy idle) {
  if (lockfree) {
    return std::make_unique<TaskRingImpl<LockFreeMpscQueue<Task>>>(capacity, idle);
  }
  return std::make_unique<TaskRingImpl<MpscQueue<Task>>>(capacity, idle);
}

}  // namespace runtime

#endif  // SRC_RUNTIME_TASK_RING_H_
