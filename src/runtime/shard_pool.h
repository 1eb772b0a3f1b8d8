// ShardPool: the shard-per-core concurrent execution layer. Each shard owns a
// complete single-threaded core — its own deterministic Simulator, Network,
// Broker, and WatchSystem — and a worker thread that drains a bounded MPSC
// task queue in batches, then flushes the shard's simulator so zero-latency
// deliveries scheduled by those tasks run before the next batch.
//
// The design keeps the deterministic heart of the library untouched: no core
// component grows a lock. Instead, *ownership* is the synchronization
// discipline — a shard's core is touched only by (a) its worker thread while
// running, (b) any thread while the pool is stopped or not yet started, or
// (c) the caller of RunFenced while every worker is parked at the fence.
// Cross-shard operations (topic creation, group membership, multi-range
// watches, seek-to-time, quiesce) are expressed as fenced multi-shard tasks.
//
// An idle worker polls its ring before parking while arrivals are dense and
// the pool has fewer shards than hardware threads (common/idle_policy.h);
// runtime.idle_polled / runtime.idle_parked count how each idle period ended.
//
// Backpressure is explicit and loud: TryPost fails when a shard's queue is
// full (callers surface Backpressure()'s kUnavailable and retry-after hint,
// and the rejection is counted in the MetricsRegistry); Post blocks, which is
// the synchronous callers' form of backpressure. Nothing is silently dropped.
// A stopped pool is not backpressure: TryPost fails uncounted there, and
// Backpressure() says the pool is stopped.
#ifndef SRC_RUNTIME_SHARD_POOL_H_
#define SRC_RUNTIME_SHARD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "obs/collector.h"
#include "pubsub/broker.h"
#include "runtime/mpsc_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "wal/broker_journal.h"
#include "wal/replication/replica_set.h"
#include "watch/retained_window.h"
#include "watch/watch_system.h"

namespace runtime {

using Task = std::function<void()>;

struct RuntimeOptions {
  // Number of shards (worker threads). Each owns a disjoint set of broker
  // partitions (partition p -> shard p % shards) and a contiguous watch
  // key-range (see ConcurrentWatchService).
  std::size_t shards = 4;
  // Per-shard task queue bound; the backpressure threshold.
  std::size_t queue_capacity = 4096;
  // Max tasks drained per batch (amortizes queue locking and sim flushing).
  std::size_t max_batch = 256;
  // Pin shard s's worker thread to CPU s (pthread affinity). The point of
  // shard-per-core: without pinning, the scheduler migrates workers and the
  // scaling curve measures the scheduler, not the runtime. Graceful fallback:
  // when the host has fewer CPUs than shards (oversubscribed — pinning would
  // serialize shards behind each other), or the platform refuses the
  // affinity call, the worker runs unpinned and the miss is visible in the
  // runtime.shards_pinned gauge (== shard count when fully pinned).
  bool pin_shards = false;
  // Simulated time advanced per batch. 0 keeps every shard clock at 0, which
  // makes runs bit-deterministic for the equivalence tests (periodic
  // maintenance like retention GC then never fires; size-capped retention
  // still applies on the append path). Nonzero ticks enable time-based
  // retention and progress pumping at the cost of batch-dependent timestamps.
  common::TimeMicros tick = 0;
  // Retry hint handed to rejected publishers/ingesters, in microseconds.
  common::TimeMicros retry_after = 100;
  // Base seed; shard s runs its core at seed + s.
  std::uint64_t seed = 1;
  // Watch sessions lagging more than this many undelivered events get a loud
  // OnResync instead of an unbounded queue (0 disables).
  std::size_t max_session_backlog = 4096;
  // Per-shard retained window configuration for the watch plane.
  watch::RetainedWindow::Options window{};
  // Watch key-space split points, ascending, size shards-1: shard s owns
  // [splits[s-1], splits[s]) with implicit "" sentinels at both ends. Empty:
  // an even split of the single-byte prefix space.
  std::vector<common::Key> watch_splits;
  // Durable mode: when non-null, each shard's broker is backed by a
  // wal::BrokerJournal at "<durable_dir>/shard-<s>" — topics, messages,
  // retention decisions, and committed offsets are journaled, and a pool
  // built over an existing journal recovers the broker state before Start.
  // The Vfs must outlive the pool and be thread-safe (FaultVfs and PosixVfs
  // both are). Recovery failures are sticky: see durable_status().
  wal::Vfs* durable_vfs = nullptr;
  std::string durable_dir = "wal";
  wal::BrokerJournalOptions durable{};
  // WAL replication (durable mode only): total copies of each shard's
  // journal, leader included. > 1 gives every shard a
  // wal::replication::ReplicaSet — replication_factor-1 follower WAL trees at
  // "<durable_dir>/shard-<s>-replica-<k>" fed over a private zero-latency
  // transport — and enables ShardPool::FailoverShard. 1 disables replication.
  std::size_t replication_factor = 1;
  // Durability accounting mode for the failover oracle/bench: which prefix
  // counts as acked (see wal::replication::AckMode). Publishes themselves
  // stay fire-and-forget either way.
  wal::replication::AckMode ack_mode = wal::replication::AckMode::kQuorum;
  // Observability collector: when non-null every shard's broker and watch
  // system stamp trace stages / log lifecycle events into it (tagged with the
  // shard index), and SampleObsGauges() publishes delivery-lag watermarks.
  // Must outlive the pool; its registry should be the pool's registry so one
  // snapshot covers both.
  obs::Collector* obs = nullptr;
};

// One shard's single-threaded core. All members are confined to the shard's
// worker thread per the ownership discipline above.
struct ShardCore {
  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<pubsub::Broker> broker;
  std::unique_ptr<watch::WatchSystem> watch;
  // Durable mode only (RuntimeOptions::durable_vfs): the broker's journal,
  // already recovered. Confined to the shard like the rest of the core.
  std::unique_ptr<wal::BrokerJournal> journal;
  // Replicated durable mode only (replication_factor > 1). Declared after
  // the journal so destruction detaches the shipper before the journal's
  // logs die.
  std::unique_ptr<wal::replication::ReplicaSet> replication;
  // Non-OK when the journal failed to open/recover (the shard then runs
  // without durability; harnesses should treat this as fatal).
  common::Status durable_recovery_status;
};

class ShardPool {
 public:
  // `metrics` may be null, in which case the pool owns a registry. The
  // registry must be the thread-safe common::MetricsRegistry (it is hit from
  // every shard and every producer).
  explicit ShardPool(RuntimeOptions options, common::MetricsRegistry* metrics = nullptr);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  // Spawns the worker threads. Cores may be configured freely (observers,
  // topics for tests) before Start.
  void Start();

  // Closes every queue, drains remaining tasks, joins the workers. After Stop
  // the cores are plain single-threaded objects again (safe to inspect from
  // the calling thread). Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::size_t shard_count() const { return cores_.size(); }
  // Workers currently pinned to a CPU (0 when pin_shards is off, the host is
  // oversubscribed, or the platform refused). Mirrors runtime.shards_pinned.
  std::size_t pinned_shards() const { return pinned_shards_.load(std::memory_order_acquire); }
  const RuntimeOptions& options() const { return options_; }
  common::MetricsRegistry& metrics() { return *metrics_; }

  // Durable mode health: the first recovery failure or sticky journal write
  // failure across all shards (Ok in non-durable mode). Call while stopped,
  // quiesced, or inside a fence.
  common::Status durable_status() const;

  // Replicated durable mode only: fails the shard's current durable leader
  // over to its most caught-up follower, mid-traffic. Runs fenced: the old
  // broker+journal are torn down (parked wakeups fire, and their
  // subscriptions re-register and re-park on the replacement), the promoted
  // follower's WAL tree is recovered into a fresh broker — truncating any
  // unacked torn tail — and the surviving followers re-point at the new
  // leader. Producers racing the fence see kUnavailable with a retry hint
  // (ShardFailingOver). kFailedPrecondition without replication; otherwise
  // the recovery status of the promoted tree.
  common::Status FailoverShard(std::size_t shard);

  // True while FailoverShard is tearing the shard's broker down; lock-free.
  bool ShardFailingOver(std::size_t shard) const {
    return failing_over_[shard]->load(std::memory_order_acquire);
  }

  // Retry hint ceiling: a saturated shard's hint scales with ring depth up
  // to this multiple of RuntimeOptions::retry_after, so hints stay bounded
  // (a producer is never told to go away for unbounded time) while a full
  // ring is never advertised as instantly retryable.
  static constexpr common::TimeMicros kRetryHintMaxScale = 8;

  // The backoff hint handed to rejected producers, in microseconds. Always
  // in [1, kRetryHintMaxScale * max(1, retry_after)] — nonzero even when the
  // configured retry_after is 0, because a zero hint makes hint-obeying
  // clients either spin or give up (they read 0 as "no retry guidance").
  // Scales linearly with the shard's current ring depth: an empty ring hints
  // the base, a full ring the ceiling.
  common::TimeMicros RetryAfterHint(std::size_t shard) const;

  // The one refusal reply of every non-blocking path (the publishes,
  // TryFetchAsync, TryCommitAsync, TryIngest). While the pool runs:
  // kUnavailable naming the shard and `why` ("saturated" or "failing over"),
  // with RetryAfterHint(shard) also stored in `retry_after` when non-null.
  // Call it on refusal only: the hint reads the shard's ring depth at that
  // moment. A stopped pool will never drain, so it answers
  // kFailedPrecondition with a 0 hint: retrying cannot help.
  common::Status Backpressure(std::size_t shard, const char* why,
                              common::TimeMicros* retry_after) const;

  // Non-blocking enqueue; false when the shard is saturated (counted as
  // runtime.post_rejected) or the pool is stopped (not counted).
  bool TryPost(std::size_t shard, Task task);

  // Blocking enqueue. If the pool is stopped, runs the task inline on the
  // calling thread (the cores are then single-threaded-safe by definition).
  void Post(std::size_t shard, Task task);

  // Runs `fn(core)` on the shard's worker thread and returns its result,
  // blocking the caller until done. Backpressure is the wait itself.
  template <typename Fn>
  auto RunOn(std::size_t shard, Fn&& fn) -> std::invoke_result_t<Fn&, ShardCore&> {
    using R = std::invoke_result_t<Fn&, ShardCore&>;
    ShardCore& core = *cores_[shard];
    std::promise<R> done;
    auto fut = done.get_future();
    Post(shard, [&fn, &core, &done] {
      if constexpr (std::is_void_v<R>) {
        fn(core);
        done.set_value();
      } else {
        done.set_value(fn(core));
      }
    });
    return fut.get();
  }

  // Fenced multi-shard task: parks every worker at a barrier, runs `fn` on
  // the calling thread — which may then touch any core via core(i), including
  // cross-shard reads and writes — and releases the workers. Every task
  // posted before the fence has executed (and its zero-latency deliveries
  // have been flushed) by the time `fn` runs on a given shard's core only if
  // it was in a completed batch; Quiesce() additionally flushes each shard's
  // simulator inside the fence. Fences are serialized among themselves.
  void RunFenced(const std::function<void()>& fn);

  // Drains all queues and flushes every shard's simulator. Call with external
  // producers stopped; afterwards (or after Stop) harness-side inspection of
  // the cores is race-free and the invariant oracle may run. With an obs
  // collector attached, also refreshes the delivery-lag gauges.
  void Quiesce();

  // Publishes delivery-lag watermark gauges into the obs collector's
  // registry: per-shard and aggregate consumer-group backlog (log end minus
  // committed), per-shard max watch-session progress lag (MaxIngestedVersion
  // minus last_progress), and per-shard task-queue depth. No-op without a
  // collector. Call only while stopped, inside RunFenced, or from Quiesce —
  // it reads every core.
  void SampleObsGauges();

  // The shard's core. Safe from the shard's own tasks, inside RunFenced, or
  // while the pool is not running. The returned reference is stable.
  ShardCore& core(std::size_t shard) { return *cores_[shard]; }
  const ShardCore& core(std::size_t shard) const { return *cores_[shard]; }

  std::size_t queue_depth(std::size_t shard) const { return queues_[shard]->size(); }

 private:
  void WorkerLoop(std::size_t shard);
  void FlushSim(ShardCore& core);

  RuntimeOptions options_;
  std::unique_ptr<common::MetricsRegistry> owned_metrics_;
  common::MetricsRegistry* metrics_;
  std::vector<std::unique_ptr<ShardCore>> cores_;
  std::vector<std::unique_ptr<MpscQueue<Task>>> queues_;
  std::vector<std::thread> workers_;
  // One flag per shard; set inside FailoverShard's fence so concurrent
  // producers can observe the teardown without touching the core.
  std::vector<std::unique_ptr<std::atomic<bool>>> failing_over_;
  std::atomic<std::size_t> pinned_shards_{0};
  std::mutex fence_mu_;  // Serializes fences so two fences cannot interleave.
  // Guards the running/stopped transition. Post's inline fallback holds it
  // so a task can never run on the caller's thread while workers are still
  // draining during Stop (the stall/teardown race). Recursive because a
  // fenced fn (running on the caller's thread, lock held) may legitimately
  // Post and hit the same fallback. Workers never take this lock.
  std::recursive_mutex lifecycle_mu_;
  std::atomic<bool> running_{false};

  // Hot counters, resolved once at construction.
  common::Counter* tasks_run_ = nullptr;
  common::Counter* batches_run_ = nullptr;
  common::Counter* post_rejected_ = nullptr;
  common::Counter* idle_polled_ = nullptr;
  common::Counter* idle_parked_ = nullptr;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_SHARD_POOL_H_
