// ConcurrentBroker: thread-safe facade over the per-shard Brokers of a
// ShardPool. Routing discipline:
//
//   * partition p of every topic is owned by shard p % shards — publishes,
//     fetches, and offset reads for p run only on that shard's core;
//   * group *membership* (join / leave / heartbeat) is replicated to every
//     shard as a fenced multi-shard task, so each shard's coordinator derives
//     the identical deterministic assignment and generation;
//   * group *commits* are per-partition state and live with the partition's
//     owning shard, keeping the committed-offset-vs-log invariants local.
//
// Backpressure: TryPublish is the fire-and-forget hot path — when the owning
// shard's queue is full it returns kUnavailable with a retry-after hint and
// the rejection is counted (runtime.publish_rejected). Accepted publishes are
// never dropped: every accepted message is appended by the owning shard.
// Synchronous calls (fetch, commit, joins) block instead, which is their form
// of backpressure.
#ifndef SRC_RUNTIME_CONCURRENT_BROKER_H_
#define SRC_RUNTIME_CONCURRENT_BROKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "pubsub/broker.h"
#include "pubsub/span.h"
#include "pubsub/types.h"
#include "runtime/publish_batch.h"
#include "runtime/shard_pool.h"
#include "runtime/subscription.h"

namespace runtime {

class ConcurrentBroker {
 public:
  explicit ConcurrentBroker(ShardPool* pool);

  ConcurrentBroker(const ConcurrentBroker&) = delete;
  ConcurrentBroker& operator=(const ConcurrentBroker&) = delete;

  std::size_t OwnerShard(pubsub::PartitionId partition) const {
    return partition % pool_->shard_count();
  }

  // The underlying pool (hint computation, shard-count queries by embedders
  // like pubsubd that must not reach into facade internals).
  ShardPool* pool() const { return pool_; }

  // -- Topics (fenced: created on every shard) ---------------------------------

  common::Status CreateTopic(const std::string& topic, pubsub::TopicConfig config);
  bool HasTopic(const std::string& topic) const;
  pubsub::PartitionId PartitionCount(const std::string& topic) const;

  // -- Publishing ---------------------------------------------------------------

  // Fire-and-forget publish with explicit backpressure. Routing mirrors
  // Broker::Publish: explicit partition, else key hash, else round robin (the
  // facade keeps the round-robin cursor since the shard brokers each see only
  // their own partitions). On EVERY kUnavailable return — shard saturated or
  // failing over — `retry_after` (if non-null) receives a nonzero suggested
  // backoff in MICROSECONDS; callers may sleep it verbatim without a
  // zero-spin guard.
  common::Status TryPublish(const std::string& topic, pubsub::Message msg,
                            std::optional<pubsub::PartitionId> partition = std::nullopt,
                            common::TimeMicros* retry_after = nullptr);

  // Batched fire-and-forget publish — the arena-backed hot path. Routes each
  // staged record (key hash, else the facade's round-robin cursor), groups
  // records by owner shard, and posts ONE ring task per involved shard; the
  // task appends its whole group in staging order via Broker::PublishSpan,
  // so per-producer order per partition is preserved and the per-message
  // closure/queue cost is amortized over the group. Groups post in shard
  // order and independently: on the first saturated (or failing-over) shard
  // the remaining groups are NOT posted, kUnavailable is returned with
  // `retry_after` set, and `*accepted` (optional) reports how many staged
  // records earlier groups accepted. When one shard owns every record — the
  // single-partition / keyed hot path this exists for — that makes the batch
  // all-or-nothing. The batch is shared-owned by the posted tasks; do not
  // mutate (Clear/Add) a successfully posted batch until its tasks drained.
  common::Status TryPublishBatch(const std::string& topic, std::shared_ptr<PublishBatch> batch,
                                 common::TimeMicros* retry_after = nullptr,
                                 std::size_t* accepted = nullptr);

  // Synchronous publish: blocks through backpressure and returns the assigned
  // partition/offset. For tests and low-rate callers.
  common::Result<pubsub::PublishResult> PublishSync(
      const std::string& topic, pubsub::Message msg,
      std::optional<pubsub::PartitionId> partition = std::nullopt);

  // Non-blocking acked publish (the network front-end's offset-ack path):
  // routes like TryPublish, but once the append executes on the owner shard
  // `done` is invoked — on that shard's worker thread — with the assigned
  // partition/offset. Backpressure is synchronous and loud exactly like
  // TryPublish: on kUnavailable (queue full / failing over) `done` is never
  // called and `retry_after` receives a nonzero backoff. `done` must not
  // block (it runs inside the shard's task batch).
  common::Status TryPublishAsync(
      const std::string& topic, pubsub::Message msg,
      std::optional<pubsub::PartitionId> partition, common::TimeMicros* retry_after,
      std::function<void(common::Result<pubsub::PublishResult>)> done);

  // -- Fetching (synchronous, runs on the partition's owner shard) -------------

  common::Result<std::vector<pubsub::StoredMessage>> Fetch(const std::string& topic,
                                                           pubsub::PartitionId partition,
                                                           pubsub::Offset offset,
                                                           std::size_t max);

  // Non-blocking fetch for event-loop callers (pubsubd): the read runs on
  // the partition's owner shard and `done` is invoked there with the batch.
  // kUnavailable + retry_after when the shard queue is full (`done` never
  // called); kNotFound/kInvalidArgument for bad topic/partition. `done`
  // must not block.
  common::Status TryFetchAsync(
      const std::string& topic, pubsub::PartitionId partition, pubsub::Offset offset,
      std::size_t max, common::TimeMicros* retry_after,
      std::function<void(common::Result<std::vector<pubsub::StoredMessage>>)> done);
  // Zero-copy fetch, executed on the partition's owner shard: `consume` runs
  // on the shard's worker thread with borrowed MessageSpans viewing the
  // partition log directly — no StoredMessage copies are made. A ReadPin is
  // held for exactly the duration of the call (retention on that log is
  // deferred meanwhile), so the spans are valid only inside `consume`; copy
  // out (e.g. serialize onto a wire buffer) before returning. Returns the
  // span count. `consume` must not block or re-enter the pool.
  common::Result<std::size_t> FetchSpans(
      const std::string& topic, pubsub::PartitionId partition, pubsub::Offset offset,
      std::size_t max, const std::function<void(const std::vector<pubsub::MessageSpan>&)>& consume);

  pubsub::Offset EndOffset(const std::string& topic, pubsub::PartitionId partition);
  pubsub::Offset FirstOffset(const std::string& topic, pubsub::PartitionId partition);

  // -- Subscriptions (the event-driven consume path) ---------------------------

  // Opens a cursor on one partition starting at `start`. The owner shard
  // pushes appends into the subscription's handoff buffer and rings its
  // doorbell. Returns nullptr for an unknown topic or out-of-range
  // partition. The subscription must not outlive the pool.
  std::unique_ptr<Subscription> Subscribe(const std::string& topic,
                                          pubsub::PartitionId partition, pubsub::Offset start,
                                          SubscriptionOptions options = {});

  // -- Consumer groups ----------------------------------------------------------

  // Fenced: the join lands on every shard's coordinator; returns the (shared)
  // new generation.
  common::Result<std::uint64_t> JoinGroup(const pubsub::GroupId& group, const std::string& topic,
                                          const pubsub::MemberId& member);
  // Fenced, like JoinGroup.
  void LeaveGroup(const pubsub::GroupId& group, const pubsub::MemberId& member);

  // Best-effort: posted to every shard; a saturated shard's heartbeat is
  // dropped and counted (runtime.heartbeat_dropped) — liveness is naturally
  // re-established by the next beat.
  void Heartbeat(const pubsub::GroupId& group, const pubsub::MemberId& member);

  std::vector<pubsub::PartitionId> AssignedPartitions(const pubsub::GroupId& group,
                                                      const pubsub::MemberId& member,
                                                      std::uint64_t generation);
  std::uint64_t GroupGeneration(const pubsub::GroupId& group);

  // Commits run on the partition's owner shard (synchronous).
  void CommitOffset(const pubsub::GroupId& group, pubsub::PartitionId partition,
                    pubsub::Offset offset);
  // Fire-and-forget commit for batched event-driven consumers: rides the
  // owner shard's queue without a reply future. Uses the blocking push, so an
  // accepted commit is never dropped; saturation surfaces as caller wait.
  void CommitOffsetAsync(const pubsub::GroupId& group, pubsub::PartitionId partition,
                         pubsub::Offset offset);
  pubsub::Offset CommittedOffset(const pubsub::GroupId& group, pubsub::PartitionId partition);

  // Non-blocking commit / committed-offset read for event-loop callers
  // (pubsubd's COMMIT verb). One task on the partition's owner shard applies
  // the commit (when `commit_offset` is set) and then reads the committed
  // offset — so a read-back can never observe the pre-commit value — and
  // invokes `done` (may be null) with it on the shard's thread. kUnavailable
  // + retry_after when the shard queue is full; `done` is then never called
  // and nothing was committed.
  common::Status TryCommitAsync(const pubsub::GroupId& group, pubsub::PartitionId partition,
                                std::optional<pubsub::Offset> commit_offset,
                                common::TimeMicros* retry_after,
                                std::function<void(pubsub::Offset)> done);

  // -- Cross-shard reads / the §3.3 seek surface (fenced) -----------------------

  // Consumer lag summed across all owning shards.
  std::uint64_t TotalBacklog(const pubsub::GroupId& group, const std::string& topic);

  // Seek-to-time needs every partition's log (owner shards) and writes every
  // partition's committed offset — the canonical fenced multi-shard task.
  void SeekGroupToTime(const pubsub::GroupId& group, const std::string& topic,
                       common::TimeMicros timestamp);

 private:
  struct TopicState {
    pubsub::TopicConfig config;
    std::atomic<std::uint64_t> round_robin{0};
  };

  // nullptr when unknown. The returned pointer is stable (topics are never
  // removed).
  TopicState* FindTopic(const std::string& topic);
  const TopicState* FindTopic(const std::string& topic) const;

  // Shared routing discipline of every publish path: explicit partition
  // (range-checked), else key hash, else the facade's round-robin cursor.
  common::Result<pubsub::PartitionId> RoutePartition(
      TopicState* state, const pubsub::Message& msg,
      const std::optional<pubsub::PartitionId>& partition);

  // `records` publishes refused at the shard's edge (`why`: "saturated" or
  // "failing over"): counts them and returns kUnavailable with the shard's
  // retry hint, also stored in `retry_after` when non-null.
  common::Status Reject(std::size_t shard, const char* why, std::size_t records,
                        common::TimeMicros* retry_after);

  ShardPool* pool_;
  common::Counter* publish_accepted_;
  common::Counter* publish_rejected_;
  common::Counter* heartbeat_dropped_;

  mutable std::mutex topics_mu_;
  std::map<std::string, std::unique_ptr<TopicState>> topics_;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_CONCURRENT_BROKER_H_
