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
// Backpressure: every Try* call is non-blocking and, when the owning shard's
// queue is full, returns ShardPool::Backpressure's reply (kUnavailable with a
// retry-after hint). Synchronous calls (PublishSync, fetch, commit, joins)
// block instead, which is their form of backpressure.
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
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "pubsub/broker.h"
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

  // -- Topics (fenced: created on every shard) ---------------------------------

  common::Status CreateTopic(const std::string& topic, pubsub::TopicConfig config);
  bool HasTopic(const std::string& topic) const;
  pubsub::PartitionId PartitionCount(const std::string& topic) const;

  // -- Publishing ---------------------------------------------------------------
  //
  // One contract for the four publish calls. Routing mirrors Broker::Publish:
  // explicit partition (range-checked), else key hash, else the facade's
  // round-robin cursor (each shard broker sees only its own partitions). The
  // owner shard runs the append and resolves its broker inside the task, so
  // a failover between post and append cannot leave a dangling pointer.
  //
  // TryPublish, TryPublishAsync and TryPublishBatch never block. While the
  // owner shard is saturated or failing over they return kUnavailable and
  // `retry_after` (if non-null) receives a nonzero, depth-scaled backoff in
  // MICROSECONDS that callers may sleep verbatim (ShardPool::Backpressure).
  // On a stopped pool they return kFailedPrecondition with a 0 hint.
  // Refused records count in runtime.publish_rejected; accepted ones count in
  // runtime.publish_accepted and are never dropped. TryPublishAsync calls
  // `done` (may be empty) on the owner shard's thread with the assigned
  // partition/offset once the append ran, never for a refused publish, and
  // `done` must not block; TryPublish is TryPublishAsync without `done`.
  //
  // TryPublishBatch routes every staged record (key hash, else round robin)
  // and posts one task per involved shard, in shard order. Each task appends
  // its group as one Broker::PublishRun per partition in staging order, so
  // per-producer order per partition holds and a durable partition journals
  // each run as one wal batch. On the first refused shard the remaining
  // groups are not posted, and `*accepted` (optional) reports how many
  // records earlier groups accepted; a batch one shard owns is therefore
  // all-or-nothing. The posted tasks share the batch: do not Clear/Add it
  // until they drained.
  //
  // PublishSync blocks through backpressure (ShardPool::RunOn, inline on a
  // stopped pool) and returns the assigned partition/offset. For tests and
  // low-rate callers.
  common::Status TryPublish(const std::string& topic, pubsub::Message msg,
                            std::optional<pubsub::PartitionId> partition = std::nullopt,
                            common::TimeMicros* retry_after = nullptr);
  common::Status TryPublishAsync(
      const std::string& topic, pubsub::Message msg,
      std::optional<pubsub::PartitionId> partition, common::TimeMicros* retry_after,
      std::function<void(common::Result<pubsub::PublishResult>)> done);
  common::Status TryPublishBatch(const std::string& topic, std::shared_ptr<PublishBatch> batch,
                                 common::TimeMicros* retry_after = nullptr,
                                 std::size_t* accepted = nullptr);
  common::Result<pubsub::PublishResult> PublishSync(
      const std::string& topic, pubsub::Message msg,
      std::optional<pubsub::PartitionId> partition = std::nullopt);

  // -- Fetching (synchronous, runs on the partition's owner shard) -------------

  common::Result<std::vector<pubsub::StoredMessage>> Fetch(const std::string& topic,
                                                           pubsub::PartitionId partition,
                                                           pubsub::Offset offset,
                                                           std::size_t max);

  // Non-blocking fetch for event-loop callers (pubsubd): the read runs on
  // the partition's owner shard and `done` is invoked there with the batch.
  // ShardPool::Backpressure's reply when the shard queue is full (`done`
  // never called); kNotFound/kInvalidArgument for bad topic/partition.
  // `done` must not block.
  common::Status TryFetchAsync(
      const std::string& topic, pubsub::PartitionId partition, pubsub::Offset offset,
      std::size_t max, common::TimeMicros* retry_after,
      std::function<void(common::Result<std::vector<pubsub::StoredMessage>>)> done);

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
  // invokes `done` (may be null) with it on the shard's thread.
  // ShardPool::Backpressure's reply when the shard queue is full; `done` is
  // then never called and nothing was committed.
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
      TopicState* state, std::string_view key,
      const std::optional<pubsub::PartitionId>& partition);

  // The prepare step of the single-record publishes: topic lookup,
  // RoutePartition, and the trace origin.
  common::Result<pubsub::PartitionId> PreparePublish(
      const std::string& topic, pubsub::Message& msg,
      const std::optional<pubsub::PartitionId>& partition);

  // The admission step of the non-blocking publishes: refuses while the
  // shard fails over, else TryPosts `task`, and counts `records` as accepted
  // or rejected.
  common::Status Admit(std::size_t shard, std::size_t records, common::TimeMicros* retry_after,
                       Task task);

  ShardPool* pool_;
  common::Counter* publish_accepted_;
  common::Counter* publish_rejected_;
  common::Counter* heartbeat_dropped_;

  mutable std::mutex topics_mu_;
  std::map<std::string, std::unique_ptr<TopicState>> topics_;
};

}  // namespace runtime

#endif  // SRC_RUNTIME_CONCURRENT_BROKER_H_
