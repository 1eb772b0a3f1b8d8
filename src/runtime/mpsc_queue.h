// Bounded multi-producer / single-consumer ring queue: the ingress lane of a
// runtime shard. Producers (client threads) push tasks; the shard's worker
// thread drains them in batches. The bound is the backpressure mechanism —
// TryPush fails loudly when the shard is saturated instead of queueing
// unboundedly, exactly the "better treatment of backlogs" posture (paper
// §4.4) applied to the execution layer.
//
// The implementation is a mutex + condvar ring. That is deliberate: every
// operation is a handful of instructions under an uncontended lock, batched
// dequeue amortizes the consumer's lock acquisitions over up to `max` tasks,
// and the queue is trivially clean under ThreadSanitizer. Per-producer FIFO
// order is preserved (a single producer's pushes drain in push order), which
// the equivalence tests rely on. A CAS-claimed lock-free ring was measured
// against it and was no faster at equal publish batch sizes (docs/RUNTIME.md,
// "The data plane").
//
// The count and the closed flag change only under the lock but are atomics,
// so the consumer's idle poll (IdlePolicy) and size() read them without it.
#ifndef SRC_RUNTIME_MPSC_QUEUE_H_
#define SRC_RUNTIME_MPSC_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/idle_policy.h"

namespace runtime {

template <typename T>
class MpscQueue {
 public:
  explicit MpscQueue(std::size_t capacity, common::IdlePolicy idle = {})
      : ring_(capacity == 0 ? 1 : capacity), idle_(idle) {}

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  // Non-blocking push; false when the queue is full or closed. This is the
  // backpressure edge: the caller turns false into kUnavailable + retry-after.
  // On failure `item` is untouched — the caller still owns a valid value.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!Fits()) {
        return false;
      }
      Append(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Lvalue overload: copies, leaving the caller's value untouched either way.
  // The full/closed check runs before the copy is made, so a rejected push
  // under saturation costs no allocation (the copy is paid only for an
  // accepted item, and it lands directly in the ring slot).
  bool TryPush(const T& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!Fits()) {
        return false;
      }
      Append(item);
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocking push; waits while full. False only if the queue is (or becomes)
  // closed, in which case `item` is untouched and the caller may still run
  // it (ShardPool's inline fallback relies on this).
  bool Push(T&& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [this] { return is_closed() || count() < ring_.size(); });
      if (is_closed()) {
        return false;
      }
      Append(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  // Lvalue overload of the blocking push. Like TryPush, the closed check runs
  // before the copy: a push rejected because the queue closed never pays for
  // (or discards) a copy of the item.
  bool Push(const T& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [this] { return is_closed() || count() < ring_.size(); });
      if (is_closed()) {
        return false;
      }
      Append(item);
    }
    not_empty_.notify_one();
    return true;
  }

  // Pops up to `max` items into `out` (appended), blocking until at least one
  // item is available or the queue is closed and empty. Returns the number
  // popped; 0 means closed-and-drained, i.e. the consumer should exit. An
  // empty ring hands the wait to the IdlePolicy: it may poll Ready() without
  // the lock before parking on the locked predicate.
  std::size_t PopBatch(std::vector<T>& out, std::size_t max) {
    // Reserve before taking the lock: push_back must never reallocate (or
    // throw) inside the critical section.
    out.reserve(out.size() + (max < ring_.size() ? max : ring_.size()));
    if (!Ready()) {
      idle_.Idle([this] { return Ready(); },
                 [this] {
                   std::unique_lock<std::mutex> lock(mu_);
                   not_empty_.wait(lock, [this] { return Ready(); });
                 });
    }
    std::size_t popped = 0;
    {
      // Only this consumer pops, and a closed ring stays closed while it
      // runs: Ready() still holds here.
      std::lock_guard<std::mutex> lock(mu_);
      while (popped < max && count() > 0) {
        out.push_back(std::move(ring_[head_]));
        // Reset the drained slot: a moved-from task may still pin captured
        // state (shared_ptrs, payloads) until the slot is overwritten — an
        // arbitrarily-later event on an idle queue.
        ring_[head_] = T{};
        head_ = (head_ + 1) % ring_.size();
        count_.store(count() - 1, std::memory_order_relaxed);
        ++popped;
      }
    }
    if (popped > 0) {
      not_full_.notify_all();
    }
    return popped;
  }

  // Closes the queue: subsequent pushes fail; the consumer drains what
  // remains and then PopBatch returns 0.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_relaxed);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  // Reverses Close so a stopped pool can Start again. Only call with no
  // consumer attached (between Stop and Start).
  void Reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_.store(false, std::memory_order_relaxed);
  }

  std::size_t size() const { return count(); }

  std::size_t capacity() const { return ring_.size(); }

  bool closed() const { return is_closed(); }

 private:
  std::size_t count() const { return count_.load(std::memory_order_relaxed); }
  bool is_closed() const { return closed_.load(std::memory_order_relaxed); }

  // The consumer's wake condition, readable with or without the lock.
  bool Ready() const { return count() > 0 || is_closed(); }

  // Lock held: room for one more item in an open ring.
  bool Fits() const { return !is_closed() && count() < ring_.size(); }

  // Lock held and Fits(): stores `item` behind the newest element.
  template <typename U>
  void Append(U&& item) {
    ring_[(head_ + count()) % ring_.size()] = std::forward<U>(item);
    count_.store(count() + 1, std::memory_order_relaxed);
  }

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;
  std::size_t head_ = 0;                 // Index of the oldest element.
  std::atomic<std::size_t> count_{0};    // Elements queued; written under mu_.
  std::atomic<bool> closed_{false};      // Written under mu_.
  common::IdlePolicy idle_;              // Consumer-confined.
};

}  // namespace runtime

#endif  // SRC_RUNTIME_MPSC_QUEUE_H_
