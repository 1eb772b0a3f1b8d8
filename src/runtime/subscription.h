// Subscription: the event-driven consume path of the concurrent runtime.
//
// The polling consume path pays the ingress queue twice per batch: a fetch
// task rides the owner shard's MPSC queue behind every queued publish, and
// the reply rides a future back. Under load that queue wait — not the log —
// dominates append→fetch latency (~queue_capacity × per-task cost). A
// Subscription removes the round trip entirely: the *shard* owns the read
// cursor. A waiter parked on the shard broker (Broker::WaitForAppend) fires
// at append time, the shard fetches the new messages into a bounded handoff
// buffer while still on its own thread — stamping the trace's fetch stage
// micro­seconds after the append — and rings a host-side Doorbell the
// consumer thread parks on.
//
// Flow control: the handoff buffer is bounded, and what happens when a slow
// consumer fills it is a policy choice (SlowConsumerPolicy):
//
//   * kBlock (default) — the shard stops fetching (stalls); the consumer's
//     next drain below the half-full watermark posts a resume. Nothing is
//     dropped, nothing is unbounded — backpressure reaches the publisher.
//   * kDropOldest — the shard keeps fetching and evicts the oldest buffered
//     messages to make room. The consumer keeps up with the live edge at the
//     cost of a gap; every evicted record is counted (drops() and
//     runtime.slow_consumer.drops), so loss is exact, never silent.
//   * kDisconnect — the overflow is terminal: the subscription breaks
//     (broken() goes true, Wait returns false once drained), an obs
//     kSessionBreak with cause "slow_consumer" is logged, and the shard
//     stands down. The MigratoryData posture: a consumer too slow to keep up
//     is isolated from the fanout path rather than allowed to stall it.
//
// Delivery is push-only. A client-driven poll loop is a ConcurrentBroker::
// Fetch caller's own (bench_runtime_throughput --consumer-mode=periodic); the
// sim consumers keep the paper's polling baseline (ConsumerOptions).
//
// Threading: one consumer thread per Subscription (the doorbell's MPSC-like
// contract); the shard side runs only on the owner shard's worker. All
// shared state lives behind one mutex in a shared_ptr'd block, so a wakeup
// in flight during teardown is harmless.
#ifndef SRC_RUNTIME_SUBSCRIPTION_H_
#define SRC_RUNTIME_SUBSCRIPTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "obs/collector.h"
#include "pubsub/broker.h"
#include "pubsub/filter.h"
#include "pubsub/types.h"
#include "runtime/doorbell.h"
#include "runtime/shard_pool.h"

namespace runtime {

// What the owner shard does when a subscription's handoff buffer is full.
// See the file header for the semantics of each arm; the policy matrix is
// measured per-arm in bench_overload and pinned by the `overload` test suite
// (kBlock loses nothing, kDropOldest's loss equals its drop counter,
// kDisconnect surfaces a kSessionBreak with cause "slow_consumer").
enum class SlowConsumerPolicy : std::uint8_t { kBlock, kDropOldest, kDisconnect };

const char* SlowConsumerPolicyName(SlowConsumerPolicy policy);

struct SubscriptionOptions {
  // Handoff bound (messages) on the shard-side lane; the consumer's
  // swapped-out lane can briefly hold one more laneful, so total in-flight
  // is bounded by 2x this.
  std::size_t handoff_capacity = 8192;
  // Max messages the shard fetches per pump round (amortizes lock traffic
  // without monopolizing the shard).
  std::size_t shard_batch = 256;
  // Doorbell interrupt moderation: after a ring, further pushes stay silent
  // for this window (the consumer is draining, or its bounded park times out
  // and finds them). The first push after a quiet stream always rings
  // immediately, so idle-stream wakeup latency is unaffected; under
  // sustained load this bounds wakeup context switches to ~1/window instead
  // of one per drain cycle. 0 rings on every empty→nonempty push.
  common::TimeMicros wake_coalesce_us = 500;
  // Broker-side content filter. When set, the shard registers the filter as
  // an interest on its broker: the pump reads only matching records into
  // the handoff buffer and parks on WaitForMatch, so non-matching appends
  // wake nobody — delivery work is O(matching), not O(all sessions).
  std::optional<pubsub::Filter> filter;
  // Full-handoff-buffer behavior; see SlowConsumerPolicy.
  SlowConsumerPolicy slow_consumer = SlowConsumerPolicy::kBlock;
};

class Subscription {
 public:
  ~Subscription();

  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  // Drains up to `max` messages into `out` (appended), in partition log
  // order: pops the handoff buffer and resumes a stalled shard. Returns the
  // number appended.
  std::size_t PollBatch(std::vector<pubsub::StoredMessage>* out, std::size_t max);

  // Parks on the doorbell until data is buffered or `timeout_us` elapses;
  // returns true if data is waiting. timeout_us <= 0 waits until data
  // arrives. Parks are internally bounded (a re-check sweep every few
  // milliseconds) so a ring held back by wake coalescing — or any forgotten
  // signal — delays a waiter, never strands it.
  bool Wait(common::TimeMicros timeout_us);

  // The broker-side filter this subscription was created with, if any.
  const std::optional<pubsub::Filter>& filter() const { return shared_->filter; }
  // Next offset the shard will fetch.
  pubsub::Offset cursor() const;
  // Parks that ended with data available.
  std::uint64_t wakeups() const;
  // Messages evicted from the handoff buffer (kDropOldest only): the exact
  // loss this subscription has taken. Always 0 under kBlock/kDisconnect.
  std::uint64_t drops() const;
  // True once a kDisconnect overflow cut this subscription. Buffered
  // messages stay drainable; after they are gone Wait returns false and no
  // new data will ever arrive — the consumer should tear down.
  bool broken() const;

  // Socket-writer handoff (the network front-end's consume discipline): the
  // hook runs — on the owner shard's worker thread — whenever the doorbell
  // rings, i.e. whenever buffered data became available to PollBatch. An
  // event-loop consumer that cannot park in Wait() registers a hook that
  // nudges its own wakeup primitive (pubsubd writes a self-pipe) and then
  // drains with PollBatch on its own thread. If data is already buffered at
  // registration time the hook fires once immediately (on the caller's
  // thread), closing the subscribe-then-attach window. The hook must be
  // cheap and must not call back into the Subscription. Pass nullptr to
  // detach. NOTE: combine with wake_coalesce_us == 0 — a hook-driven
  // consumer never runs Wait()'s bounded re-check sweep, so a coalesced
  // (suppressed) ring would strand buffered data.
  void SetReadyHook(std::function<void()> hook);

 private:
  friend class ConcurrentBroker;

  // State shared by the consumer thread and the owner shard's worker; kept
  // alive by every closure that can still run (shard waiter callbacks,
  // posted resume/cancel tasks), so teardown never races a late wakeup.
  struct Shared {
    // Immutable after Subscribe. The owner shard's broker is deliberately
    // NOT cached here: a failover replaces the shard's broker, so every
    // shard-side touch re-resolves it through pool->core(shard) — always on
    // the shard's own thread (or inline/fenced with the workers parked),
    // where that access is legal.
    ShardPool* pool = nullptr;
    std::size_t shard = 0;
    std::string topic;
    pubsub::PartitionId partition = 0;
    std::size_t handoff_capacity = 8192;
    std::size_t shard_batch = 256;
    common::TimeMicros wake_coalesce_us = 500;
    // Broker-side content filter (immutable after Subscribe; empty = none).
    std::optional<pubsub::Filter> filter;
    SlowConsumerPolicy policy = SlowConsumerPolicy::kBlock;
    common::Histogram* wakeup_latency = nullptr;  // runtime.wakeup_latency_us
    common::Counter* rings = nullptr;             // runtime.doorbell_rings
    common::Counter* stall_count = nullptr;       // runtime.slow_consumer.stalls
    common::Counter* drop_count = nullptr;        // runtime.slow_consumer.drops
    common::Counter* disconnect_count = nullptr;  // runtime.slow_consumer.disconnects
    obs::Collector* obs = nullptr;                // kSessionBreak on kDisconnect.

    Doorbell bell;

    std::mutex mu;
    // Shard-side handoff lane. The consumer takes the whole lane in one O(1)
    // swap (see Subscription::local_) so its time under `mu` never scales
    // with batch size — a consumer draining 512 messages must not block the
    // owner shard's pump mid-publish-storm.
    std::vector<pubsub::StoredMessage> buffer;
    pubsub::Offset cursor = 0;
    bool stalled = false;   // Shard paused on a full buffer; consumer resumes.
    bool detached = false;  // Subscription destroyed; shard side stands down.
    bool broken = false;    // kDisconnect overflow fired; terminal.
    std::uint64_t wakeups = 0;
    std::uint64_t drops = 0;  // kDropOldest evictions, exact.
    // Host-time mark of the empty→nonempty transition; -1 when unset. The
    // consumer's first drain after it measures doorbell wakeup latency.
    std::int64_t data_ready_at_us = -1;
    // Host-time mark of the last doorbell ring (0 = never): the moderation
    // clock for wake_coalesce_us.
    std::int64_t last_ring_us = 0;
    // Ready hook (see SetReadyHook); invoked right after each bell ring.
    std::function<void()> ready_hook;
    pubsub::Broker::WaitTicket ticket = 0;  // Shard-confined.
    // Filtered-interest registration, shard-confined. `interest_broker`
    // remembers which broker instance holds the registration so the pump
    // re-registers after a failover swaps the shard's broker (the old
    // registration died with the old broker).
    pubsub::Broker::InterestId interest_id = 0;
    pubsub::Broker* interest_broker = nullptr;
    // Shard-confined fetch scratch: when caught up, every append fires one
    // pump, so the fetch path must not allocate per call. Capacity circulates
    // scratch → buffer → local_ and back through the two swaps.
    std::vector<pubsub::StoredMessage> scratch;
  };

  Subscription(ShardPool* pool, std::size_t shard, std::shared_ptr<Shared> shared)
      : pool_(pool), shard_(shard), shared_(std::move(shared)) {}

  // Runs on the owner shard's worker only: fetches available messages into
  // the handoff buffer, rings the bell, and re-arms the append waiter (or
  // applies the slow-consumer policy on a full buffer).
  static void PumpShard(const std::shared_ptr<Shared>& shared);
  // kDisconnect finalizer (shard thread): counts the disconnect, logs the
  // kSessionBreak, then marks the subscription broken and wakes the consumer
  // so it observes broken().
  static void FinishCut(const std::shared_ptr<Shared>& shared);

  ShardPool* pool_;
  std::size_t shard_;
  std::shared_ptr<Shared> shared_;
  // Consumer-side lane (consumer thread only, no lock): the last swapped-out
  // shard lane, drained from local_pos_.
  std::vector<pubsub::StoredMessage> local_;
  std::size_t local_pos_ = 0;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_SUBSCRIPTION_H_
