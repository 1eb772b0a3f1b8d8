// Consumers for the pubsub substrate.
//
//  * GroupConsumer — a consumer-group member: the broker assigns it
//    partitions, it polls its assignment from the group's committed offsets,
//    acknowledges messages, and commits. Delivery is at-least-once: an
//    unacknowledged or uncommitted message is redelivered (to this member or,
//    after a rebalance, to another).
//  * FreeConsumer — handles *all* messages in a topic (the paper's "free
//    consumer", after Koutanov): it tracks its own offsets and receives the
//    entire feed, which is the non-scalable fallback Section 3.2.2 describes
//    cache servers using.
//
// Both poll: they fetch every poll_period, so delivery latency floors at
// ~poll_period/2 regardless of load — the paper's polling baseline. The
// push path is the runtime's (runtime::Subscription).
//
// Both are simulated-network nodes: while a consumer's node is down or
// partitioned from the broker it makes no progress, and its backlog grows.
#ifndef SRC_PUBSUB_CONSUMER_H_
#define SRC_PUBSUB_CONSUMER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pubsub/broker.h"
#include "pubsub/types.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pubsub {

struct ConsumerOptions {
  common::TimeMicros poll_period = 50 * common::kMicrosPerMilli;
  common::TimeMicros heartbeat_period = 500 * common::kMicrosPerMilli;
  // Per-poll batch cap; with poll_period this bounds consumer throughput.
  std::size_t max_poll_messages = 100;
  // After this many failed deliveries of the same offset the message is
  // skipped (and routed to `dead_letter_topic` if set) so the partition can
  // make progress. 0 disables redelivery limiting.
  std::uint32_t max_redeliveries = 0;
  std::string dead_letter_topic;
  // Observability sink: when set, the consumer stamps deliver/ack stages on
  // traced messages and completes their pubsub-path traces into the
  // collector (tagged with `obs_shard`'s histogram family).
  obs::Collector* obs = nullptr;
  std::size_t obs_shard = 0;
};

// Returns true to acknowledge; false leaves the message uncommitted for
// redelivery.
using MessageHandler = std::function<bool(PartitionId, const StoredMessage&)>;

class GroupConsumer {
 public:
  GroupConsumer(sim::Simulator* sim, sim::Network* net, Broker* broker, GroupId group,
                std::string topic, MemberId member, MessageHandler handler,
                ConsumerOptions options = {});

  GroupConsumer(const GroupConsumer&) = delete;
  GroupConsumer& operator=(const GroupConsumer&) = delete;

  // Joins the group and starts polling/heartbeating.
  void Start();
  // Leaves the group and stops.
  void Stop();

  // Crash/restart hooks for FailureInjector: a crashed member keeps its
  // timers but is gated off by the network; on restart it re-joins.
  void OnCrash();
  void OnRestart();

  const MemberId& member() const { return member_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  std::uint64_t dead_lettered() const { return dead_lettered_; }

 private:
  void Poll();
  // Fetches one batch from the partition's committed offset, delivers it,
  // and commits once for the whole drained batch. A nacked message stops
  // the batch (head-of-line) until the next poll's redelivery.
  void DrainPartition(PartitionId partition, std::size_t* budget);
  // On a generation change, drops redelivery counters for partitions this
  // member no longer owns — they describe the *previous* owner epoch, and
  // keeping them would fast-forward a later re-assignment of the same
  // partition straight to the dead-letter path.
  void PruneStaleDeliveryState(std::uint64_t generation,
                               const std::vector<PartitionId>& assigned);
  void SendHeartbeat();

  sim::Simulator* sim_;
  sim::Network* net_;
  Broker* broker_;
  GroupId group_;
  std::string topic_;
  MemberId member_;
  MessageHandler handler_;
  ConsumerOptions options_;

  bool running_ = false;
  std::uint64_t last_seen_generation_ = 0;
  std::map<PartitionId, std::map<Offset, std::uint32_t>> delivery_attempts_;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t dead_lettered_ = 0;
  std::unique_ptr<sim::PeriodicTask> poll_task_;
  std::unique_ptr<sim::PeriodicTask> heartbeat_task_;
};

class FreeConsumer {
 public:
  enum class StartAt : std::uint8_t { kEarliest, kLatest };

  FreeConsumer(sim::Simulator* sim, sim::Network* net, Broker* broker, std::string topic,
               sim::NodeId node, MessageHandler handler, ConsumerOptions options = {},
               StartAt start_at = StartAt::kEarliest);

  FreeConsumer(const FreeConsumer&) = delete;
  FreeConsumer& operator=(const FreeConsumer&) = delete;

  void Start();
  void Stop();

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t delivered_bytes() const { return delivered_bytes_; }
  // This consumer's own backlog (end offsets minus positions).
  std::uint64_t Backlog() const;

 private:
  void Poll();
  void Drain(std::size_t* budget);
  // Adopts partitions this consumer has not seen yet. Runs on *every* poll:
  // topics grow (Broker::AddPartitions), and a one-shot discovery would
  // silently never fetch the new partitions. Partitions present at first
  // contact honour start_at_; later arrivals are consumed from their first
  // offset ("latest" predates a partition that did not exist yet).
  void DiscoverPartitions();

  sim::Simulator* sim_;
  sim::Network* net_;
  Broker* broker_;
  std::string topic_;
  sim::NodeId node_;
  MessageHandler handler_;
  ConsumerOptions options_;
  StartAt start_at_;

  bool running_ = false;
  bool initial_discovery_done_ = false;
  std::map<PartitionId, Offset> positions_;
  std::uint64_t delivered_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::unique_ptr<sim::PeriodicTask> poll_task_;
};

}  // namespace pubsub

#endif  // SRC_PUBSUB_CONSUMER_H_
