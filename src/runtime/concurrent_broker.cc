#include "runtime/concurrent_broker.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace runtime {

ConcurrentBroker::ConcurrentBroker(ShardPool* pool) : pool_(pool) {
  common::MetricsRegistry& metrics = pool_->metrics();
  publish_accepted_ = &metrics.counter("runtime.publish_accepted");
  publish_rejected_ = &metrics.counter("runtime.publish_rejected");
  heartbeat_dropped_ = &metrics.counter("runtime.heartbeat_dropped");

  // Durable mode: a recovered pool may already hold topics (replayed from the
  // shard journals). Seed the facade's routing map from shard 0 — every shard
  // recovers the identical topic set.
  if (pool_->options().durable_vfs != nullptr) {
    pool_->RunOn(0, [this](ShardCore& core) {
      std::lock_guard<std::mutex> lock(topics_mu_);
      for (const std::string& name : core.broker->TopicNames()) {
        const pubsub::TopicConfig* config = core.broker->TopicConfigFor(name);
        auto state = std::make_unique<TopicState>();
        state->config = *config;
        topics_.emplace(name, std::move(state));
      }
    });
  }
}

ConcurrentBroker::TopicState* ConcurrentBroker::FindTopic(const std::string& topic) {
  std::lock_guard<std::mutex> lock(topics_mu_);
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : it->second.get();
}

const ConcurrentBroker::TopicState* ConcurrentBroker::FindTopic(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(topics_mu_);
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : it->second.get();
}

common::Status ConcurrentBroker::CreateTopic(const std::string& topic,
                                             pubsub::TopicConfig config) {
  {
    std::lock_guard<std::mutex> lock(topics_mu_);
    if (topics_.count(topic) > 0) {
      return common::Status::AlreadyExists(topic);
    }
  }
  common::Status status = common::Status::Ok();
  pool_->RunFenced([&] {
    for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
      ShardCore& core = pool_->core(s);
      // Durable mode routes through the journal so the topic record is on
      // disk before the topic accepts publishes.
      common::Status st = core.journal != nullptr ? core.journal->CreateTopic(topic, config)
                                                  : core.broker->CreateTopic(topic, config);
      if (!st.ok()) {
        status = st;  // All shards see identical state, so any failure repeats.
      }
    }
  });
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(topics_mu_);
    auto state = std::make_unique<TopicState>();
    state->config = config;
    topics_.emplace(topic, std::move(state));
  }
  return status;
}

bool ConcurrentBroker::HasTopic(const std::string& topic) const {
  return FindTopic(topic) != nullptr;
}

pubsub::PartitionId ConcurrentBroker::PartitionCount(const std::string& topic) const {
  const TopicState* state = FindTopic(topic);
  return state == nullptr ? 0 : state->config.partitions;
}

common::Result<pubsub::PartitionId> ConcurrentBroker::RoutePartition(
    TopicState* state, const pubsub::Message& msg,
    const std::optional<pubsub::PartitionId>& partition) {
  if (partition.has_value()) {
    if (*partition >= state->config.partitions) {
      return common::Status::InvalidArgument("partition out of range");
    }
    return *partition;
  }
  if (!msg.key.empty()) {
    return static_cast<pubsub::PartitionId>(pubsub::Broker::HashKey(msg.key) %
                                            state->config.partitions);
  }
  return static_cast<pubsub::PartitionId>(state->round_robin.fetch_add(
                                              1, std::memory_order_relaxed) %
                                          state->config.partitions);
}

common::Status ConcurrentBroker::TryPublish(const std::string& topic, pubsub::Message msg,
                                            std::optional<pubsub::PartitionId> partition,
                                            common::TimeMicros* retry_after) {
  TopicState* state = FindTopic(topic);
  if (state == nullptr) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  auto routed = RoutePartition(state, msg, partition);
  if (!routed.ok()) {
    return routed.status();
  }
  const pubsub::PartitionId p = *routed;
  const std::size_t shard = OwnerShard(p);
  if (pool_->ShardFailingOver(shard)) {
    return Reject(shard, "failing over", 1, retry_after);
  }
  if (obs::TracingEnabled() && !msg.trace.considered()) {
    // Origin here (not on the shard) so origin→append covers the queue wait.
    msg.trace = obs::TraceContext::Start();
  }
  // Resolve the shard broker inside the task: a failover between enqueue and
  // execution replaces core(shard).broker, and a pointer captured here would
  // dangle.
  const bool posted =
      pool_->TryPost(shard, [pool = pool_, shard, topic, msg = std::move(msg), p]() mutable {
        // Cannot fail: the topic exists on every shard and p is range-checked.
        (void)pool->core(shard).broker->Publish(topic, std::move(msg), p);
      });
  if (!posted) {
    return Reject(shard, "saturated", 1, retry_after);
  }
  publish_accepted_->Increment();
  return common::Status::Ok();
}

common::Status ConcurrentBroker::Reject(std::size_t shard, const char* why, std::size_t records,
                                        common::TimeMicros* retry_after) {
  // Every kUnavailable exit populates retry_after with a nonzero, bounded,
  // depth-scaled backoff — a zero (or untouched) hint makes callers
  // retry-spin, an unbounded one strands them. Computed here, on rejection
  // only: the hint reads the shard's ring depth.
  const common::TimeMicros backoff = pool_->RetryAfterHint(shard);
  publish_rejected_->Increment(static_cast<std::int64_t>(records));
  if (retry_after != nullptr) {
    *retry_after = backoff;
  }
  return common::Status::Unavailable("shard " + std::to_string(shard) + " " + why +
                                     "; retry after " + std::to_string(backoff) + "us");
}

common::Status ConcurrentBroker::TryPublishBatch(const std::string& topic,
                                                 std::shared_ptr<PublishBatch> batch,
                                                 common::TimeMicros* retry_after,
                                                 std::size_t* accepted) {
  if (accepted != nullptr) {
    *accepted = 0;
  }
  if (batch == nullptr || batch->empty()) {
    return common::Status::Ok();
  }
  TopicState* state = FindTopic(topic);
  if (state == nullptr) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  // Route every staged record, grouping (partition, staged-index) per owner
  // shard. Staging order is kept within each group, which is what preserves
  // per-producer FIFO per partition.
  struct Routed {
    pubsub::PartitionId partition;
    std::size_t index;
  };
  std::map<std::size_t, std::vector<Routed>> groups;
  const std::vector<PublishBatch::Staged>& staged = batch->staged();
  for (std::size_t i = 0; i < staged.size(); ++i) {
    pubsub::PartitionId p;
    if (!staged[i].key.empty()) {
      p = static_cast<pubsub::PartitionId>(pubsub::Broker::HashKey(staged[i].key) %
                                           state->config.partitions);
    } else {
      p = static_cast<pubsub::PartitionId>(
          state->round_robin.fetch_add(1, std::memory_order_relaxed) %
          state->config.partitions);
    }
    groups[OwnerShard(p)].push_back(Routed{p, i});
  }
  for (auto& [shard, group] : groups) {
    // Taken before the lambda steals `group`: the rejected branch still needs
    // the count after a failed TryPost has consumed the moved-from vector.
    const std::size_t group_size = group.size();
    const bool rejected =
        pool_->ShardFailingOver(shard) ||
        !pool_->TryPost(shard, [pool = pool_, shard, topic, batch,
                                group = std::move(group)]() mutable {
          // One task appends the whole group as one run per partition. The
          // split runs here, on the shard, off the producer's post path; the
          // stable sort keeps staging order within each partition.
          std::stable_sort(group.begin(), group.end(), [](const Routed& a, const Routed& b) {
            return a.partition < b.partition;
          });
          pubsub::Broker* broker = pool->core(shard).broker.get();
          const std::vector<PublishBatch::Staged>& records = batch->staged();
          std::vector<pubsub::RecordView> run;
          run.reserve(group.size());
          for (std::size_t i = 0; i < group.size();) {
            const pubsub::PartitionId p = group[i].partition;
            run.clear();
            for (; i < group.size() && group[i].partition == p; ++i) {
              run.push_back(records[group[i].index]);
            }
            // Cannot fail: the topic exists on every shard and p is in range.
            (void)broker->PublishRun(topic, p, run);
          }
        });
    if (rejected) {
      return Reject(shard, "saturated", group_size, retry_after);
    }
    publish_accepted_->Increment(static_cast<std::int64_t>(group_size));
    if (accepted != nullptr) {
      *accepted += group_size;
    }
  }
  return common::Status::Ok();
}

common::Result<pubsub::PublishResult> ConcurrentBroker::PublishSync(
    const std::string& topic, pubsub::Message msg, std::optional<pubsub::PartitionId> partition) {
  TopicState* state = FindTopic(topic);
  if (state == nullptr) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  auto routed = RoutePartition(state, msg, partition);
  if (!routed.ok()) {
    return routed.status();
  }
  const pubsub::PartitionId p = *routed;
  if (obs::TracingEnabled() && !msg.trace.considered()) {
    msg.trace = obs::TraceContext::Start();
  }
  auto result = pool_->RunOn(OwnerShard(p), [&](ShardCore& core) {
    return core.broker->Publish(topic, std::move(msg), p);
  });
  if (result.ok()) {
    publish_accepted_->Increment();
  }
  return result;
}

common::Status ConcurrentBroker::TryPublishAsync(
    const std::string& topic, pubsub::Message msg, std::optional<pubsub::PartitionId> partition,
    common::TimeMicros* retry_after,
    std::function<void(common::Result<pubsub::PublishResult>)> done) {
  TopicState* state = FindTopic(topic);
  if (state == nullptr) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  auto routed = RoutePartition(state, msg, partition);
  if (!routed.ok()) {
    return routed.status();
  }
  const pubsub::PartitionId p = *routed;
  const std::size_t shard = OwnerShard(p);
  if (pool_->ShardFailingOver(shard)) {
    return Reject(shard, "failing over", 1, retry_after);
  }
  if (obs::TracingEnabled() && !msg.trace.considered()) {
    msg.trace = obs::TraceContext::Start();
  }
  // Broker resolved inside the task (failover may swap it); the append and
  // the completion both run on the owner shard's thread.
  const bool posted = pool_->TryPost(
      shard, [pool = pool_, shard, topic, msg = std::move(msg), p,
              done = std::move(done)]() mutable {
        done(pool->core(shard).broker->Publish(topic, std::move(msg), p));
      });
  if (!posted) {
    return Reject(shard, "saturated", 1, retry_after);
  }
  publish_accepted_->Increment();
  return common::Status::Ok();
}

common::Result<std::vector<pubsub::StoredMessage>> ConcurrentBroker::Fetch(
    const std::string& topic, pubsub::PartitionId partition, pubsub::Offset offset,
    std::size_t max) {
  const TopicState* state = FindTopic(topic);
  if (state == nullptr) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  if (partition >= state->config.partitions) {
    return common::Status::InvalidArgument("partition out of range");
  }
  return pool_->RunOn(OwnerShard(partition), [&](ShardCore& core) {
    return core.broker->Fetch(topic, partition, offset, max);
  });
}

common::Status ConcurrentBroker::TryFetchAsync(
    const std::string& topic, pubsub::PartitionId partition, pubsub::Offset offset,
    std::size_t max, common::TimeMicros* retry_after,
    std::function<void(common::Result<std::vector<pubsub::StoredMessage>>)> done) {
  const TopicState* state = FindTopic(topic);
  if (state == nullptr) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  if (partition >= state->config.partitions) {
    return common::Status::InvalidArgument("partition out of range");
  }
  const std::size_t shard = OwnerShard(partition);
  const bool posted = pool_->TryPost(
      shard, [pool = pool_, shard, topic, partition, offset, max, done = std::move(done)] {
        done(pool->core(shard).broker->Fetch(topic, partition, offset, max));
      });
  if (!posted) {
    const common::TimeMicros backoff = pool_->RetryAfterHint(shard);
    if (retry_after != nullptr) {
      *retry_after = backoff;
    }
    return common::Status::Unavailable("shard " + std::to_string(shard) +
                                       " saturated; retry after " + std::to_string(backoff) +
                                       "us");
  }
  return common::Status::Ok();
}

pubsub::Offset ConcurrentBroker::EndOffset(const std::string& topic,
                                           pubsub::PartitionId partition) {
  return pool_->RunOn(OwnerShard(partition), [&](ShardCore& core) {
    return core.broker->EndOffset(topic, partition);
  });
}

pubsub::Offset ConcurrentBroker::FirstOffset(const std::string& topic,
                                             pubsub::PartitionId partition) {
  return pool_->RunOn(OwnerShard(partition), [&](ShardCore& core) {
    return core.broker->FirstOffset(topic, partition);
  });
}

std::unique_ptr<Subscription> ConcurrentBroker::Subscribe(const std::string& topic,
                                                          pubsub::PartitionId partition,
                                                          pubsub::Offset start,
                                                          SubscriptionOptions options) {
  const TopicState* state = FindTopic(topic);
  if (state == nullptr || partition >= state->config.partitions) {
    return nullptr;
  }
  const std::size_t shard = OwnerShard(partition);
  auto shared = std::make_shared<Subscription::Shared>();
  shared->pool = pool_;
  shared->shard = shard;
  shared->topic = topic;
  shared->partition = partition;
  shared->cursor = start;
  shared->handoff_capacity = options.handoff_capacity == 0 ? 1 : options.handoff_capacity;
  shared->shard_batch = options.shard_batch == 0 ? 1 : options.shard_batch;
  shared->wake_coalesce_us = options.wake_coalesce_us;
  shared->filter = std::move(options.filter);
  shared->policy = options.slow_consumer;
  shared->wakeup_latency = &pool_->metrics().histogram("runtime.wakeup_latency_us");
  shared->rings = &pool_->metrics().counter("runtime.doorbell_rings");
  shared->stall_count = &pool_->metrics().counter("runtime.slow_consumer.stalls");
  shared->drop_count = &pool_->metrics().counter("runtime.slow_consumer.drops");
  shared->disconnect_count = &pool_->metrics().counter("runtime.slow_consumer.disconnects");
  shared->obs = pool_->options().obs;
  auto sub = std::unique_ptr<Subscription>(new Subscription(pool_, shard, shared));
  // First pump adopts the backlog (if any) and parks the shard-side waiter.
  pool_->Post(shard, [shared] { Subscription::PumpShard(shared); });
  return sub;
}

common::Result<std::uint64_t> ConcurrentBroker::JoinGroup(const pubsub::GroupId& group,
                                                          const std::string& topic,
                                                          const pubsub::MemberId& member) {
  // Membership is replicated: every shard's coordinator applies the same join
  // and derives the same deterministic rebalance, so any shard can answer
  // assignment queries and per-partition commit checks stay local.
  std::optional<common::Result<std::uint64_t>> result;
  pool_->RunFenced([&] {
    for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
      auto r = pool_->core(s).broker->JoinGroup(group, topic, member);
      if (s == 0 || !r.ok()) {
        result = r;
      }
    }
  });
  return *result;
}

void ConcurrentBroker::LeaveGroup(const pubsub::GroupId& group, const pubsub::MemberId& member) {
  pool_->RunFenced([&] {
    for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
      pool_->core(s).broker->LeaveGroup(group, member);
    }
  });
}

void ConcurrentBroker::Heartbeat(const pubsub::GroupId& group, const pubsub::MemberId& member) {
  for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
    if (!pool_->TryPost(s, [pool = pool_, s, group, member] {
          pool->core(s).broker->Heartbeat(group, member);
        })) {
      heartbeat_dropped_->Increment();
    }
  }
}

std::vector<pubsub::PartitionId> ConcurrentBroker::AssignedPartitions(
    const pubsub::GroupId& group, const pubsub::MemberId& member, std::uint64_t generation) {
  return pool_->RunOn(0, [&](ShardCore& core) {
    return core.broker->AssignedPartitions(group, member, generation);
  });
}

std::uint64_t ConcurrentBroker::GroupGeneration(const pubsub::GroupId& group) {
  return pool_->RunOn(0,
                      [&](ShardCore& core) { return core.broker->GroupGeneration(group); });
}

void ConcurrentBroker::CommitOffset(const pubsub::GroupId& group, pubsub::PartitionId partition,
                                    pubsub::Offset offset) {
  pool_->RunOn(OwnerShard(partition), [&](ShardCore& core) {
    core.broker->CommitOffset(group, partition, offset);
  });
}

void ConcurrentBroker::CommitOffsetAsync(const pubsub::GroupId& group,
                                         pubsub::PartitionId partition, pubsub::Offset offset) {
  const std::size_t shard = OwnerShard(partition);
  pool_->Post(shard, [pool = pool_, shard, group, partition, offset] {
    pool->core(shard).broker->CommitOffset(group, partition, offset);
  });
}

pubsub::Offset ConcurrentBroker::CommittedOffset(const pubsub::GroupId& group,
                                                 pubsub::PartitionId partition) {
  return pool_->RunOn(OwnerShard(partition), [&](ShardCore& core) {
    return core.broker->CommittedOffset(group, partition);
  });
}

common::Status ConcurrentBroker::TryCommitAsync(const pubsub::GroupId& group,
                                                pubsub::PartitionId partition,
                                                std::optional<pubsub::Offset> commit_offset,
                                                common::TimeMicros* retry_after,
                                                std::function<void(pubsub::Offset)> done) {
  const std::size_t shard = OwnerShard(partition);
  const bool posted = pool_->TryPost(
      shard, [pool = pool_, shard, group, partition, commit_offset, done = std::move(done)] {
        pubsub::Broker* broker = pool->core(shard).broker.get();
        if (commit_offset.has_value()) {
          broker->CommitOffset(group, partition, *commit_offset);
        }
        if (done) {
          done(broker->CommittedOffset(group, partition));
        }
      });
  if (!posted) {
    const common::TimeMicros backoff = pool_->RetryAfterHint(shard);
    if (retry_after != nullptr) {
      *retry_after = backoff;
    }
    return common::Status::Unavailable("shard " + std::to_string(shard) +
                                       " saturated; retry after " + std::to_string(backoff) +
                                       "us");
  }
  return common::Status::Ok();
}

std::uint64_t ConcurrentBroker::TotalBacklog(const pubsub::GroupId& group,
                                             const std::string& topic) {
  std::uint64_t total = 0;
  pool_->RunFenced([&] {
    for (std::size_t s = 0; s < pool_->shard_count(); ++s) {
      // Each shard contributes only its owned partitions (the others are
      // empty locally), so the fenced sum is exact.
      total += pool_->core(s).broker->GroupBacklog(group, topic);
    }
  });
  return total;
}

void ConcurrentBroker::SeekGroupToTime(const pubsub::GroupId& group, const std::string& topic,
                                       common::TimeMicros timestamp) {
  const TopicState* state = FindTopic(topic);
  if (state == nullptr) {
    return;
  }
  const pubsub::PartitionId partitions = state->config.partitions;
  pool_->RunFenced([&] {
    for (pubsub::PartitionId p = 0; p < partitions; ++p) {
      // Read the seek target from the partition's owning shard, then write
      // the committed offset on the same shard (commits are owner-local).
      pubsub::Broker* owner = pool_->core(OwnerShard(p)).broker.get();
      const pubsub::PartitionLog* log = owner->Log(topic, p);
      if (log == nullptr) {
        continue;
      }
      owner->SeekGroup(group, p, log->OffsetAtOrAfter(timestamp));
    }
  });
}

}  // namespace runtime
