// Bounded multi-producer / single-consumer ring queue, lock-free on the hot
// path: producers claim slots with a CAS on the tail position (Vyukov-style
// per-slot sequence numbers) and the consumer drains ready slots without any
// lock. A mutex + condvar pair exists ONLY for edge parking — the consumer
// parks when the ring is empty, blocking producers park when it is full — and
// is never touched while traffic flows. Drop-in beside MpscQueue (same
// contract, same loud TryPush backpressure, same close/reopen semantics);
// RuntimeOptions::lockfree_ring selects which one feeds the shards.
//
// Ordering guarantees, identical to the mutex ring:
//   * per-producer FIFO — one thread's successful pushes drain in push order
//     (claims from a single thread take strictly increasing positions, and
//     the consumer drains positions in order);
//   * exact accounting — every push that returned true is drained exactly
//     once, and TryPush fails (without touching the item) precisely when the
//     ring holds `capacity` undrained items or is closed.
//
// Close is a single atomic fetch_or of a high bit into the tail position, so
// a claim can never race past it: any CAS issued after Close observes the bit
// and fails loudly. Claims that won the CAS *before* Close still publish, and
// the consumer drains up to the frozen tail before PopBatch returns 0 —
// closed-and-drained means exactly what it means for the mutex ring.
//
// The empty/full-edge handshake is a two-phase commit over seq_cst atomics
// (publish/free the slot, then load the peer's waiting flag; the parker
// stores its flag, then re-checks the slot): either the signaller sees the
// flag and notifies under the parking mutex, or the parker's re-check sees
// the slot — no fences, so the protocol is exactly what ThreadSanitizer
// models. Before the consumer parks, its IdlePolicy may poll the same
// predicate with the flag down; a producer publishing meanwhile then skips
// the parking mutex and the notify altogether.
#ifndef SRC_RUNTIME_LOCKFREE_MPSC_QUEUE_H_
#define SRC_RUNTIME_LOCKFREE_MPSC_QUEUE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/idle_policy.h"

namespace runtime {

template <typename T>
class LockFreeMpscQueue {
 public:
  // Minimum capacity is 2: the per-slot sequence scheme needs the "published
  // at position p" state (seq == p+1) to be distinct from "free for claim at
  // position p+1" on the same slot, and with one slot those coincide — a
  // second push would overwrite the unconsumed item. (Vyukov's original
  // carries the same requirement.) capacity() reports the clamped value.
  explicit LockFreeMpscQueue(std::size_t capacity, IdlePolicy idle = {})
      : capacity_(capacity < 2 ? 2 : capacity),
        slots_(std::make_unique<Slot[]>(capacity_)),
        idle_(idle) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  LockFreeMpscQueue(const LockFreeMpscQueue&) = delete;
  LockFreeMpscQueue& operator=(const LockFreeMpscQueue&) = delete;

  // Non-blocking push; false when the queue is full or closed. On failure
  // `item` is untouched — the caller still owns a valid value.
  bool TryPush(T&& item) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if ((pos & kClosedBit) != 0) {
        return false;
      }
      Slot& slot = slots_[pos % capacity_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == pos) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          Publish(slot, pos, std::move(item));
          return true;
        }
        // CAS failure reloaded `pos`; loop and retry at the new tail.
      } else if (seq < pos) {
        // The slot still holds the item from `capacity` positions ago: the
        // ring is full. Loud backpressure, not a wait.
        return false;
      } else {
        pos = tail_.load(std::memory_order_relaxed);  // Lapped by a peer.
      }
    }
  }

  // Lvalue overload: checks full/closed before paying for the copy (the copy
  // is made only for a push that will be accepted).
  bool TryPush(const T& item) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if ((pos & kClosedBit) != 0) {
        return false;
      }
      Slot& slot = slots_[pos % capacity_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == pos) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          Publish(slot, pos, T(item));
          return true;
        }
      } else if (seq < pos) {
        return false;
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // All-or-nothing batch claim: claims `n` contiguous slots with one CAS,
  // fills them from `items`, and publishes. False (items untouched) when
  // fewer than `n` slots are free, n exceeds capacity, or the queue is
  // closed. This is the batched-publish ingress: one claim, one commit, n
  // records.
  bool TryPushBatch(T* items, std::size_t n) {
    if (n == 0) {
      return true;
    }
    if (n > capacity_) {
      return false;
    }
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      if ((pos & kClosedBit) != 0) {
        return false;
      }
      // The consumer frees slots in position order, so the batch's *last*
      // slot being free implies every earlier slot is free too.
      Slot& last = slots_[(pos + n - 1) % capacity_];
      const std::uint64_t seq = last.seq.load(std::memory_order_acquire);
      if (seq == pos + n - 1) {
        if (tail_.compare_exchange_weak(pos, pos + n, std::memory_order_relaxed)) {
          for (std::size_t i = 0; i < n; ++i) {
            Publish(slots_[(pos + i) % capacity_], pos + i, std::move(items[i]));
          }
          return true;
        }
      } else if (seq < pos + n - 1) {
        return false;  // Not enough contiguous space.
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  // Blocking push; parks only while full. False only if the queue is (or
  // becomes) closed, in which case `item` is untouched.
  bool Push(T&& item) {
    for (;;) {
      if (TryPush(std::move(item))) {
        return true;
      }
      if ((tail_.load(std::memory_order_seq_cst) & kClosedBit) != 0) {
        return false;
      }
      ParkProducer();
    }
  }

  // Lvalue overload of the blocking push (copies only on acceptance).
  bool Push(const T& item) {
    for (;;) {
      if (TryPush(item)) {
        return true;
      }
      if ((tail_.load(std::memory_order_seq_cst) & kClosedBit) != 0) {
        return false;
      }
      ParkProducer();
    }
  }

  // Pops up to `max` items into `out` (appended), parking until at least one
  // item is available or the queue is closed and drained. Returns the number
  // popped; 0 means closed-and-drained. Single consumer only.
  std::size_t PopBatch(std::vector<T>& out, std::size_t max) {
    // Reserve before draining so push_back never allocates mid-drain.
    out.reserve(out.size() + (max < capacity_ ? max : capacity_));
    for (;;) {
      const std::size_t popped = DrainReady(out, max);
      if (popped > 0) {
        WakeProducers();
        return popped;
      }
      const std::uint64_t tail = tail_.load(std::memory_order_seq_cst);
      if ((tail & kClosedBit) != 0) {
        if (head_.load(std::memory_order_relaxed) == (tail & ~kClosedBit)) {
          return 0;  // Closed and fully drained: the consumer exits.
        }
        // A producer won its claim before Close but has not published yet;
        // its slot is instants away. Spin-yield rather than park (no one
        // would ring the doorbell for an already-counted claim).
        std::this_thread::yield();
        continue;
      }
      idle_.Idle([this] { return Ready(); }, [this] { ParkConsumer(); });
    }
  }

  // Closes the queue: the closed bit lands in the tail word, so no claim can
  // succeed afterwards. The consumer drains what remains, then PopBatch
  // returns 0.
  void Close() {
    tail_.fetch_or(kClosedBit, std::memory_order_seq_cst);
    std::lock_guard<std::mutex> lock(park_mu_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  // Reverses Close so a stopped pool can Start again. Only call with no
  // consumer attached and no producers in flight.
  void Reopen() { tail_.fetch_and(~kClosedBit, std::memory_order_seq_cst); }

  // Approximate under concurrent traffic (exact when quiescent), like any
  // lock-free size.
  std::size_t size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire) & ~kClosedBit;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail > head ? static_cast<std::size_t>(tail - head) : 0;
  }

  std::size_t capacity() const { return capacity_; }

  bool closed() const {
    return (tail_.load(std::memory_order_acquire) & kClosedBit) != 0;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T item{};
  };

  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;

  // Fills a claimed slot and publishes it. The seq store is the producer half
  // of the empty-edge handshake (seq_cst: it must be ordered before the
  // waiting-flag load — either we see the parked consumer, or the consumer's
  // post-flag re-check sees this slot).
  void Publish(Slot& slot, std::uint64_t pos, T&& item) {
    slot.item = std::move(item);
    slot.seq.store(pos + 1, std::memory_order_seq_cst);
    if (consumer_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(park_mu_);
      not_empty_.notify_one();
    }
  }

  // Drains ready slots in position order. Each drained slot is reset to T{}
  // immediately — captured task state must not linger — and freed for the
  // producers (the seq store is the consumer half of the full-edge
  // handshake).
  std::size_t DrainReady(std::vector<T>& out, std::size_t max) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t popped = 0;
    while (popped < max) {
      Slot& slot = slots_[head % capacity_];
      if (slot.seq.load(std::memory_order_acquire) != head + 1) {
        break;
      }
      out.push_back(std::move(slot.item));
      slot.item = T{};
      slot.seq.store(head + capacity_, std::memory_order_seq_cst);
      ++head;
      ++popped;
    }
    if (popped > 0) {
      head_.store(head, std::memory_order_release);
    }
    return popped;
  }

  void WakeProducers() {
    if (producers_waiting_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(park_mu_);
      not_full_.notify_all();
    }
  }

  // The consumer's wake condition: the head slot is published or the queue
  // closed. Lock-free; the idle poll and the parked wait both test it.
  bool Ready() const {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return slots_[head % capacity_].seq.load(std::memory_order_seq_cst) == head + 1 ||
           (tail_.load(std::memory_order_seq_cst) & kClosedBit) != 0;
  }

  // Parks until Ready(). The waiting flag is raised before the re-check, so
  // a producer publishing after the flag is visible must also see the flag
  // and notify.
  void ParkConsumer() {
    std::unique_lock<std::mutex> lock(park_mu_);
    consumer_waiting_.store(true, std::memory_order_seq_cst);
    not_empty_.wait(lock, [this] { return Ready(); });
    consumer_waiting_.store(false, std::memory_order_seq_cst);
  }

  // Parks until space frees up or the queue closes. Symmetric to
  // ParkConsumer, with a waiter count because several producers may park.
  void ParkProducer() {
    std::unique_lock<std::mutex> lock(park_mu_);
    producers_waiting_.fetch_add(1, std::memory_order_seq_cst);
    not_full_.wait(lock, [this] {
      const std::uint64_t tail = tail_.load(std::memory_order_seq_cst);
      if ((tail & kClosedBit) != 0) {
        return true;
      }
      const std::uint64_t pos = tail & ~kClosedBit;
      return slots_[pos % capacity_].seq.load(std::memory_order_seq_cst) == pos;
    });
    producers_waiting_.fetch_sub(1, std::memory_order_seq_cst);
  }

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  // Tail: next position to claim, with kClosedBit folded in by Close.
  std::atomic<std::uint64_t> tail_{0};
  // Head: next position the consumer will drain (published for size()).
  std::atomic<std::uint64_t> head_{0};

  // Edge parking only; untouched while traffic flows.
  std::mutex park_mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::atomic<bool> consumer_waiting_{false};
  std::atomic<int> producers_waiting_{0};
  IdlePolicy idle_;  // Consumer-confined.
};

}  // namespace runtime

#endif  // SRC_RUNTIME_LOCKFREE_MPSC_QUEUE_H_
