#include "runtime/subscription.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace runtime {

namespace {

std::int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Records the pump examines per fetch round (cursor progress is committed
// between rounds).
constexpr std::size_t kScanChunk = 4096;

// The read filter of an unfiltered subscription.
const pubsub::Filter kEveryRecord;

}  // namespace

Subscription::~Subscription() {
  auto self = shared_;
  {
    std::lock_guard<std::mutex> lock(self->mu);
    self->detached = true;
  }
  self->bell.Signal();  // Unpark a consumer blocked in Wait on another thread.
  // Stand the shard side down on its own thread. A wakeup already in flight
  // is harmless: its closure owns `self` and checks `detached`.
  pool_->Post(shard_, [self] {
    std::lock_guard<std::mutex> lock(self->mu);
    pubsub::Broker* broker = self->pool->core(self->shard).broker.get();
    if (self->ticket != 0) {
      (void)broker->CancelWait(self->ticket);
      self->ticket = 0;
    }
    // Drop the filtered-interest registration — but only if it lives on the
    // shard's *current* broker; a registration on a broker that failover
    // already destroyed died with it.
    if (self->interest_id != 0 && self->interest_broker == broker) {
      (void)broker->RemoveInterest(self->interest_id);
    }
    self->interest_id = 0;
    self->interest_broker = nullptr;
  });
}

pubsub::Offset Subscription::cursor() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->cursor;
}

std::uint64_t Subscription::wakeups() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->wakeups;
}

std::uint64_t Subscription::drops() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->drops;
}

bool Subscription::broken() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->broken;
}

const char* SlowConsumerPolicyName(SlowConsumerPolicy policy) {
  switch (policy) {
    case SlowConsumerPolicy::kBlock: return "block";
    case SlowConsumerPolicy::kDropOldest: return "drop_oldest";
    case SlowConsumerPolicy::kDisconnect: return "disconnect";
  }
  return "unknown";
}

void Subscription::SetReadyHook(std::function<void()> hook) {
  std::function<void()> fire;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->ready_hook = std::move(hook);
    // Data buffered before the hook existed would otherwise never announce
    // itself (the pump only rings on new pushes).
    if (shared_->ready_hook && !shared_->buffer.empty()) {
      fire = shared_->ready_hook;
    }
  }
  if (fire) {
    fire();
  }
}

void Subscription::FinishCut(const std::shared_ptr<Shared>& shared) {
  Shared& s = *shared;
  // Count and log the cut before broken() can report it: a consumer that
  // sees broken() must also find the counter and the kSessionBreak event.
  if (s.disconnect_count != nullptr) {
    s.disconnect_count->Increment();
  }
  if (s.obs != nullptr) {
    s.obs->LogEvent(obs::EventKind::kSessionBreak, "slow_consumer",
                    "subscription " + s.topic + "/" + std::to_string(s.partition) +
                        " handoff overflow",
                    s.shard);
  }
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.broken = true;
    hook = s.ready_hook;
  }
  // Wake the consumer unconditionally (no coalescing): there may be no
  // further ring, and a parked consumer must observe broken().
  s.bell.Signal();
  if (hook) {
    hook();
  }
}

void Subscription::PumpShard(const std::shared_ptr<Shared>& shared) {
  Shared& s = *shared;
  // Re-resolve the shard's current broker: after a failover this is the
  // replacement, and the waiter wakeup that brought us here was fired by the
  // old broker's teardown — re-arming below continues the stream seamlessly.
  pubsub::Broker* broker = s.pool->core(s.shard).broker.get();
  std::size_t space;
  pubsub::Offset cursor;
  bool probe = false;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    // A fired waiter is already deregistered broker-side; clear before the
    // detached check so teardown never cancels a recycled ticket id.
    s.ticket = 0;
    if (s.detached || s.broken) {
      return;
    }
    space = s.handoff_capacity - s.buffer.size();
    cursor = s.cursor;
    if (space == 0) {
      switch (s.policy) {
        case SlowConsumerPolicy::kBlock:
          s.stalled = true;  // Consumer's drain below the watermark resumes us.
          if (s.stall_count != nullptr) {
            s.stall_count->Increment();
          }
          return;
        case SlowConsumerPolicy::kDropOldest:
          // Keep pumping; the evictions below the fetch make room. Fetch in
          // shard_batch rounds like a non-full pump would.
          space = s.shard_batch;
          break;
        case SlowConsumerPolicy::kDisconnect:
          // A fired waiter with no room is a genuine overflow only if a
          // record is actually pending past the cursor: a failover's broker
          // teardown fires every parked waiter too, carrying no data — just
          // the swap. So read the shard's CURRENT broker with room for one
          // record and cut only if one comes back; a no-data fire falls
          // through to re-arm on the replacement. (A buffer that merely
          // *reached* capacity re-arms the same way — the consumer may still
          // drain in time — so an idle-but-full subscription is never cut.)
          space = 1;
          probe = true;
          break;
      }
    }
  }
  bool pushed_any = false;
  const bool filtered = s.filter.has_value();
  if (filtered && s.interest_broker != broker) {
    // First pump, or failover swapped the shard's broker (the registration
    // died with the old instance): register the interest here so append-time
    // dispatch and WaitForMatch know this subscription's filter.
    s.interest_id = broker->AddInterest(s.topic, s.partition, *s.filter);
    s.interest_broker = broker;
  }
  const pubsub::Filter& filter = filtered ? *s.filter : kEveryRecord;
  for (;;) {
    // Fetch outside the lock: the broker is shard-confined, the buffer is
    // not, and neither needs the other's protection. The scratch vector is
    // shard-confined too, so the hot caught-up path (one pump per append)
    // never allocates. The scan is bounded per round, so a selective filter
    // crossing a long non-matching run advances its cursor chunk by chunk.
    const std::size_t want = std::min(space, s.shard_batch);
    s.scratch.clear();
    pubsub::Offset next = cursor;
    std::uint64_t scanned = 0;
    auto fetched = broker->FetchFilteredInto(s.topic, s.partition, cursor, want, kScanChunk,
                                             filter, &s.scratch, &next, &scanned);
    if (!fetched.ok()) {
      break;
    }
    const std::size_t got = *fetched;
    if (probe && got > 0) {
      FinishCut(shared);  // Marks the subscription broken.
      return;
    }
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.detached) {
        return;
      }
      // Always the read's resume cursor: it passes scanned non-matching
      // records and a head that retention moved past the cursor, so no
      // round can leave the cursor where a re-armed waiter fires again.
      cursor = s.cursor = next;
      if (got > 0) {
        const bool was_empty = s.buffer.empty();
        if (was_empty) {
          s.buffer.swap(s.scratch);  // O(1); capacities circulate between lanes.
        } else {
          for (pubsub::StoredMessage& m : s.scratch) {
            s.buffer.push_back(std::move(m));
          }
        }
        pushed_any = true;
        if (was_empty && s.data_ready_at_us < 0) {
          s.data_ready_at_us = SteadyMicros();
        }
        if (s.policy == SlowConsumerPolicy::kDropOldest &&
            s.buffer.size() > s.handoff_capacity) {
          // The lane overflowed: evict from the front (oldest first) back to
          // the bound. Every eviction is counted — loss is exact, never silent.
          const std::size_t excess = s.buffer.size() - s.handoff_capacity;
          s.buffer.erase(s.buffer.begin(),
                         s.buffer.begin() + static_cast<std::ptrdiff_t>(excess));
          s.drops += excess;
          if (s.drop_count != nullptr) {
            s.drop_count->Increment(static_cast<std::int64_t>(excess));
          }
        }
        space = s.handoff_capacity - s.buffer.size();
        if (space == 0) {
          if (s.policy == SlowConsumerPolicy::kBlock) {
            s.stalled = true;
            if (s.stall_count != nullptr) {
              s.stall_count->Increment();
            }
            break;
          }
          if (s.policy == SlowConsumerPolicy::kDisconnect) {
            // Full but not yet overflowed: re-arm below with the buffer at
            // capacity. If the consumer drains first, nothing happened; if
            // the waiter fires first (more data, no room), the entry path
            // probes and cuts.
            break;
          }
          space = s.shard_batch;  // kDropOldest: evictions keep making room.
        }
      }
    }
    if (got < want && scanned < kScanChunk) {
      // A short batch inside the scan bound means the read reached the live
      // edge (appends run on this same shard thread, so none landed
      // meanwhile): skip the empty terminator fetch.
      break;
    }
  }
  if (pushed_any) {
    // Interrupt moderation: a push after a quiet stream rings at once (idle
    // wakeup latency is one futex from the append); within the coalesce
    // window after a ring the consumer is either awake and draining or due
    // for its bounded re-check park, so further rings would only buy context
    // switches. Each wakeup then drains a window's worth of messages instead
    // of one push's worth. A half-full buffer rings through the window (the
    // NIC rx-frames companion to the rx-usecs timer): a parked consumer must
    // not sleep out its park while a refilled lane sits ready to swap.
    bool ring;
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      const std::int64_t now = SteadyMicros();
      ring = s.wake_coalesce_us <= 0 || now - s.last_ring_us >= s.wake_coalesce_us ||
             s.buffer.size() >= s.handoff_capacity / 2;
      if (ring) {
        s.last_ring_us = now;
        hook = s.ready_hook;
      }
    }
    if (ring) {
      s.bell.Signal();
      if (s.rings != nullptr) {
        s.rings->Increment();
      }
      if (hook) {
        hook();  // Socket-writer handoff: nudge the event-loop consumer.
      }
    }
  }
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.detached || s.stalled || s.broken) {
    return;
  }
  // Caught up: re-arm on the shard broker. If data landed between the last
  // fetch and here (same thread, so it cannot have), the wait would fire an
  // immediate pump; either way no append is missed. Filtered subscriptions
  // park on WaitForMatch, so only a matching append wakes this pump.
  auto self = shared;
  if (filtered) {
    s.ticket = broker->WaitForMatch(s.interest_id, s.cursor, [self] { PumpShard(self); });
  } else {
    s.ticket = broker->WaitForAppend(s.topic, s.partition, s.cursor,
                                     [self] { PumpShard(self); });
  }
}

std::size_t Subscription::PollBatch(std::vector<pubsub::StoredMessage>* out, std::size_t max) {
  Shared& s = *shared_;
  if (max == 0) {
    return 0;
  }
  std::size_t n = 0;
  for (;;) {
    while (n < max && local_pos_ < local_.size()) {
      out->push_back(std::move(local_[local_pos_]));
      ++local_pos_;
      ++n;
    }
    if (n == max) {
      return n;
    }
    // Local lane exhausted: take the shard lane in one O(1) swap, so the
    // shard's pump never waits behind a per-message drain loop.
    local_.clear();
    local_pos_ = 0;
    bool resume = false;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.buffer.empty()) {
        return n;
      }
      local_.swap(s.buffer);
      if (s.data_ready_at_us >= 0) {
        if (s.wakeup_latency != nullptr) {
          s.wakeup_latency->Record(
              static_cast<double>(std::max<std::int64_t>(0, SteadyMicros() - s.data_ready_at_us)));
        }
        s.data_ready_at_us = -1;
      }
      if (s.stalled) {
        s.stalled = false;
        resume = true;
      }
    }
    if (resume) {
      auto self = shared_;
      pool_->Post(shard_, [self] { PumpShard(self); });
    }
  }
}

bool Subscription::Wait(common::TimeMicros timeout_us) {
  Shared& s = *shared_;
  // Each park is bounded by a re-check sweep, so a ring held back by wake
  // coalescing (or any forgotten signal) delays this waiter by at most one
  // sweep instead of stranding it.
  constexpr common::TimeMicros kSweepParkUs = 5000;
  if (local_pos_ < local_.size()) {
    return true;  // Undrained messages already on the consumer's own lane.
  }
  const std::int64_t start = SteadyMicros();
  bool parked = false;
  for (;;) {
    const std::uint64_t seen = s.bell.Epoch();
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (!s.buffer.empty()) {
        if (parked) {
          ++s.wakeups;
        }
        return true;
      }
      if (s.detached || s.broken) {
        return false;
      }
    }
    common::TimeMicros park = kSweepParkUs;
    if (timeout_us > 0) {
      const std::int64_t left = timeout_us - (SteadyMicros() - start);
      if (left <= 0) {
        return false;
      }
      park = std::min<common::TimeMicros>(park, left);
    }
    (void)s.bell.WaitPast(seen, park);
    parked = true;
  }
}

}  // namespace runtime
