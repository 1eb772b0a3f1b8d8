#include "pubsub/consumer.h"

#include <set>

namespace pubsub {

GroupConsumer::GroupConsumer(sim::Simulator* sim, sim::Network* net, Broker* broker,
                             GroupId group, std::string topic, MemberId member,
                             MessageHandler handler, ConsumerOptions options)
    : sim_(sim),
      net_(net),
      broker_(broker),
      group_(std::move(group)),
      topic_(std::move(topic)),
      member_(std::move(member)),
      handler_(std::move(handler)),
      options_(options) {
  if (!net_->IsUp(member_)) {
    net_->AddNode(member_);
  }
}

void GroupConsumer::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  if (net_->Reachable(member_, broker_->node())) {
    (void)broker_->JoinGroup(group_, topic_, member_);
  }
  poll_task_ = std::make_unique<sim::PeriodicTask>(sim_, options_.poll_period, [this] { Poll(); });
  heartbeat_task_ = std::make_unique<sim::PeriodicTask>(sim_, options_.heartbeat_period,
                                                        [this] { SendHeartbeat(); });
}

void GroupConsumer::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  poll_task_.reset();
  heartbeat_task_.reset();
  if (net_->Reachable(member_, broker_->node())) {
    broker_->LeaveGroup(group_, member_);
  }
}

void GroupConsumer::OnCrash() {
  // Node is already marked down by the injector; in-memory delivery state is
  // lost (anything delivered-but-uncommitted will be redelivered).
  delivery_attempts_.clear();
}

void GroupConsumer::OnRestart() {
  if (running_ && net_->Reachable(member_, broker_->node())) {
    (void)broker_->JoinGroup(group_, topic_, member_);
  }
}

void GroupConsumer::SendHeartbeat() {
  if (!running_ || !net_->Reachable(member_, broker_->node())) {
    return;
  }
  broker_->Heartbeat(group_, member_);
}

void GroupConsumer::PruneStaleDeliveryState(std::uint64_t generation,
                                            const std::vector<PartitionId>& assigned) {
  if (generation == last_seen_generation_) {
    return;
  }
  last_seen_generation_ = generation;
  const std::set<PartitionId> owned(assigned.begin(), assigned.end());
  for (auto it = delivery_attempts_.begin(); it != delivery_attempts_.end();) {
    if (owned.count(it->first) == 0) {
      it = delivery_attempts_.erase(it);
    } else {
      ++it;
    }
  }
}

void GroupConsumer::DrainPartition(PartitionId partition, std::size_t* budget) {
  const Offset committed = broker_->CommittedOffset(group_, partition);
  auto batch = broker_->Fetch(topic_, partition, committed, *budget);
  if (!batch.ok()) {
    return;
  }
  Offset commit_to = committed;
  for (const StoredMessage& m : *batch) {
    // Trace stamps happen on a local copy: the stored message is shared
    // log state and deliver/ack times are per-consumer.
    obs::TraceContext trace = m.message.trace;
    trace.Stamp(obs::Stage::kDeliver, trace.active() ? obs::NowMicros() : 0);
    const bool ack = handler_(partition, m);
    if (ack) {
      if (trace.active()) {
        trace.Stamp(obs::Stage::kAck, obs::NowMicros());
        if (options_.obs != nullptr) {
          options_.obs->Complete(obs::Path::kPubsub, trace, options_.obs_shard);
        }
      }
      ++delivered_;
      delivered_bytes_ += m.message.key.size() + m.message.value.size();
      commit_to = m.offset + 1;
      delivery_attempts_[partition].erase(m.offset);
      --*budget;
      continue;
    }
    // Nack: leave uncommitted so it is redelivered, unless the redelivery
    // budget is exhausted — then dead-letter (or drop) and move on.
    std::uint32_t& attempts = delivery_attempts_[partition][m.offset];
    ++attempts;
    if (options_.max_redeliveries > 0 && attempts >= options_.max_redeliveries) {
      if (!options_.dead_letter_topic.empty()) {
        // The dead-letter record is a *new* publish, not a continuation of
        // the failed delivery: reset the trace so the broker starts a fresh
        // one, instead of double-counting the original's feed/append stages.
        Message dead = m.message;
        dead.trace = obs::TraceContext{};
        (void)broker_->Publish(options_.dead_letter_topic, std::move(dead));
      }
      ++dead_lettered_;
      commit_to = m.offset + 1;
      delivery_attempts_[partition].erase(m.offset);
      continue;
    }
    break;  // Head-of-line: retry this partition from the nack later.
  }
  // One commit per drained batch (not per message): same committed frontier,
  // a fraction of the coordinator/journal traffic.
  if (commit_to > committed) {
    broker_->CommitOffset(group_, partition, commit_to);
  }
}

void GroupConsumer::Poll() {
  if (!running_ || !net_->Reachable(member_, broker_->node())) {
    return;
  }
  const std::uint64_t generation = broker_->GroupGeneration(group_);
  std::vector<PartitionId> assigned = broker_->AssignedPartitions(group_, member_, generation);
  PruneStaleDeliveryState(generation, assigned);
  if (assigned.empty()) {
    // Possibly evicted (e.g. after a long outage): re-join.
    (void)broker_->JoinGroup(group_, topic_, member_);
    return;
  }
  std::size_t budget = options_.max_poll_messages;
  for (PartitionId p : assigned) {
    if (budget == 0) {
      break;
    }
    DrainPartition(p, &budget);
  }
}

FreeConsumer::FreeConsumer(sim::Simulator* sim, sim::Network* net, Broker* broker,
                           std::string topic, sim::NodeId node, MessageHandler handler,
                           ConsumerOptions options, StartAt start_at)
    : sim_(sim),
      net_(net),
      broker_(broker),
      topic_(std::move(topic)),
      node_(std::move(node)),
      handler_(std::move(handler)),
      options_(options),
      start_at_(start_at) {
  if (!net_->IsUp(node_)) {
    net_->AddNode(node_);
  }
}

void FreeConsumer::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  poll_task_ = std::make_unique<sim::PeriodicTask>(sim_, options_.poll_period, [this] { Poll(); });
}

void FreeConsumer::Stop() {
  running_ = false;
  poll_task_.reset();
}

std::uint64_t FreeConsumer::Backlog() const {
  std::uint64_t backlog = 0;
  for (const auto& [partition, position] : positions_) {
    const Offset end = broker_->EndOffset(topic_, partition);
    backlog += end > position ? end - position : 0;
  }
  return backlog;
}

void FreeConsumer::DiscoverPartitions() {
  const PartitionId n = broker_->PartitionCount(topic_);
  if (n == 0) {
    return;
  }
  for (PartitionId p = 0; p < n; ++p) {
    if (positions_.count(p) > 0) {
      continue;
    }
    positions_[p] = (!initial_discovery_done_ && start_at_ == StartAt::kLatest)
                        ? broker_->EndOffset(topic_, p)
                        : broker_->FirstOffset(topic_, p);
  }
  initial_discovery_done_ = true;
}

void FreeConsumer::Drain(std::size_t* budget) {
  for (auto& [partition, position] : positions_) {
    if (*budget == 0) {
      break;
    }
    auto batch = broker_->Fetch(topic_, partition, position, *budget);
    if (!batch.ok()) {
      continue;
    }
    for (const StoredMessage& m : *batch) {
      // Stamp deliver/ack on a local copy, exactly like GroupConsumer: the
      // stored message is shared log state. A free consumer owns its cursor,
      // so the handler's verdict never gates progress — delivery *is* the
      // acknowledgement.
      obs::TraceContext trace = m.message.trace;
      trace.Stamp(obs::Stage::kDeliver, trace.active() ? obs::NowMicros() : 0);
      (void)handler_(partition, m);
      if (trace.active()) {
        trace.Stamp(obs::Stage::kAck, obs::NowMicros());
        if (options_.obs != nullptr) {
          options_.obs->Complete(obs::Path::kPubsub, trace, options_.obs_shard);
        }
      }
      ++delivered_;
      delivered_bytes_ += m.message.key.size() + m.message.value.size();
      position = m.offset + 1;
      --*budget;
    }
  }
}

void FreeConsumer::Poll() {
  if (!running_ || !net_->Reachable(node_, broker_->node())) {
    return;
  }
  DiscoverPartitions();
  std::size_t budget = options_.max_poll_messages;
  Drain(&budget);
}

}  // namespace pubsub
