// Broker: topics, partitions, publish routing, retention enforcement, and
// group-coordinator state (member liveness, partition assignment, committed
// offsets, generations). Runs as a node ("broker") on the simulated network;
// consumers interact with it through poll/heartbeat RPCs gated on
// reachability.
#ifndef SRC_PUBSUB_BROKER_H_
#define SRC_PUBSUB_BROKER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/collector.h"
#include "pubsub/filter.h"
#include "pubsub/interest_index.h"
#include "pubsub/log.h"
#include "pubsub/types.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pubsub {

using GroupId = std::string;
using MemberId = std::string;  // Also the member's network node id.

struct PublishResult {
  PartitionId partition = 0;
  Offset offset = 0;
};

// Harness-side observer of group-coordinator transitions, used by the
// invariant oracle and the WAL journal. Callbacks run synchronously inside
// the broker; they must not re-enter the broker.
class BrokerObserver {
 public:
  virtual ~BrokerObserver() = default;

  // Fired after every rebalance with the group's new coordinator state.
  virtual void OnRebalance(const GroupId& group, std::uint64_t generation,
                           const std::vector<MemberId>& members,
                           const std::map<PartitionId, MemberId>& assignment) = 0;

  // Fired when an explicit seek rewrites a group's committed offset (the one
  // legitimate non-monotonic committed-offset transition).
  virtual void OnSeek(const GroupId& group, PartitionId partition, Offset offset) = 0;

  // Fired when a commit advances a group's committed offset, with the
  // post-merge value. Default no-op so existing observers are unaffected.
  virtual void OnCommitOffset(const GroupId& group, PartitionId partition, Offset offset) {
    (void)group;
    (void)partition;
    (void)offset;
  }
};

// Read-only snapshot of one group's coordinator state (oracle introspection).
struct GroupView {
  std::string topic;
  std::uint64_t generation = 0;
  std::vector<MemberId> members;
  std::map<PartitionId, MemberId> assignment;
  std::map<PartitionId, Offset> committed;
};

class Broker {
 public:
  // `node` is the broker's network identity. Retention is enforced every
  // `gc_period` of simulated time.
  Broker(sim::Simulator* sim, sim::Network* net, sim::NodeId node = "broker",
         common::TimeMicros gc_period = 500 * common::kMicrosPerMilli);

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // Teardown fires every still-parked WaitForMatch wakeup as an immediate
  // simulator event, so a subscription parked on this broker wakes,
  // re-checks, and finds its shard's replacement broker instead of hanging
  // forever. The simulator must outlive the broker (it does wherever brokers
  // are built: harnesses and ShardCore both destroy the broker before the
  // sim).
  ~Broker();

  const sim::NodeId& node() const { return node_; }

  // -- Topics -----------------------------------------------------------------

  common::Status CreateTopic(const std::string& topic, TopicConfig config);
  bool HasTopic(const std::string& topic) const { return topics_.count(topic) > 0; }
  PartitionId PartitionCount(const std::string& topic) const {
    auto it = topics_.find(topic);
    return it == topics_.end() ? 0 : it->second.config.partitions;
  }

  // -- Publishing ---------------------------------------------------------------

  // Routes by config (key hash / round robin) unless `partition` is given,
  // then appends `msg` as a run of one.
  common::Result<PublishResult> Publish(const std::string& topic, Message msg,
                                        std::optional<PartitionId> partition = std::nullopt);

  // Span-staged run publish: appends `records` to `partition` in order, at
  // consecutive offsets, as one run. The arena-backed batch path hands the
  // broker borrowed views (slices of a producer's arena), and the owned
  // Message strings are constructed exactly once, here at append. A durable
  // partition journals the run as one wal batch. Returns the first offset.
  common::Result<PublishResult> PublishRun(const std::string& topic, PartitionId partition,
                                           std::span<const RecordView> records);

  // Grows an existing topic by `additional` empty partitions (the autosharder
  // / operator "scale out the topic" path). Existing partitions and offsets
  // are untouched. Every group bound to the topic rebalances immediately so
  // the new partitions have owners (cause "partition_growth"); free consumers
  // are expected to re-discover partitions on their next poll.
  common::Status AddPartitions(const std::string& topic, PartitionId additional);

  // -- Fetching -----------------------------------------------------------------

  // The one cursor read (every fetch, filtered or not, is this call):
  // appends up to `max` records matching `filter` (0: no limit) starting at
  // `offset`, examining at most `max_scan` records (0: unbounded) so one
  // selective fetch cannot stall on a long non-matching run. `*next_offset`
  // receives the resume cursor from PartitionLog::Read — it advances past
  // scanned non-matching records, so zero matches still makes progress.
  // `*scanned` (optional) accumulates records examined. Silently resumes at
  // the earliest retained offset if `offset` has been garbage collected —
  // the behaviour Section 3.1 identifies as undetectable message loss. A
  // filter that MatchesEverything() reads unfiltered and leaves the
  // fanout.fetch_* counters alone.
  common::Result<std::size_t> FetchFilteredInto(const std::string& topic, PartitionId partition,
                                                Offset offset, std::size_t max,
                                                std::size_t max_scan, const Filter& filter,
                                                std::vector<StoredMessage>* out,
                                                Offset* next_offset,
                                                std::uint64_t* scanned = nullptr) const;
  // Copying FetchFilteredInto over every record: up to `max` messages from
  // `offset`, in a fresh vector.
  common::Result<std::vector<StoredMessage>> Fetch(const std::string& topic,
                                                   PartitionId partition, Offset offset,
                                                   std::size_t max) const;

  Offset EndOffset(const std::string& topic, PartitionId partition) const;
  Offset FirstOffset(const std::string& topic, PartitionId partition) const;

  // -- Interests: the one wakeup path (the interest-index fanout subsystem) -----
  //
  // A subscriber registers its interest — (topic, partition, Filter), the
  // match-all Filter{} for an unfiltered subscriber — once, then parks
  // one-shot WaitForMatch wakeups against it. Appends are dispatched through
  // the partition's InterestIndex, so only subscribers whose filters match
  // the appended record wake: append-time fanout work is O(matching
  // subscriptions), not O(all sessions). Catch-up reads go through
  // FetchFilteredInto (above), which evaluates the filter broker-side and
  // returns only matching records plus a scan-resume cursor.

  using InterestId = std::uint64_t;

  // Registers a filter; returns 0 for an unknown topic/partition. An
  // interest survives until RemoveInterest or the broker's teardown.
  // Interests with identical canonical filters share one index lane
  // (subgrouping), so every match-all interest on a partition costs one.
  // Ids are unique across every Broker in the process and never reused, so
  // HasInterest on a replacement broker cannot mistake another instance's
  // registration for its own.
  InterestId AddInterest(const std::string& topic, PartitionId partition, Filter filter);
  bool HasInterest(InterestId id) const { return interests_.count(id) > 0; }
  // Deregisters, dropping any parked WaitForMatch wakeup without firing it.
  // Returns false for unknown ids (harmless, e.g. after a failover replaced
  // the broker that held the registration).
  bool RemoveInterest(InterestId id);
  // Parks `fn` (one-shot, fired as an immediate event, never inline) until a
  // record at or past `offset` matching the interest's filter is appended.
  // If such a record is already retained — for a match-all interest, if
  // anything was appended at or past `offset` — `fn` is scheduled at once
  // instead. At most one wakeup is parked per interest: each call drops the
  // one parked before it. Returns true if `fn` is parked; false if it was
  // scheduled at once, or if `id` is unknown (then `fn` is dropped).
  bool WaitForMatch(InterestId id, Offset offset, std::function<void()> fn);
  // Outstanding interest registrations, and the parked wakeups among them
  // (tests/leak checks).
  std::size_t PendingInterests() const { return interests_.size(); }
  std::size_t PendingWaiters() const;
  // Read-only view of a partition's interest index (oracle/bench
  // introspection); nullptr if unknown.
  const InterestIndex* Interests(const std::string& topic, PartitionId partition) const;

  // -- Consumer groups ----------------------------------------------------------

  // Joins (or re-joins) a group consuming `topic`. Returns the group
  // generation. A *new* member triggers a rebalance; an already-present
  // member's rejoin only refreshes its heartbeat (no generation bump, so
  // other members' assignments stay valid). Joining an existing group with a
  // different topic fails with kFailedPrecondition — the group's topic
  // binding is immutable.
  common::Result<std::uint64_t> JoinGroup(const GroupId& group, const std::string& topic,
                                          const MemberId& member);
  void LeaveGroup(const GroupId& group, const MemberId& member);

  // Records member liveness; members that miss `session_timeout` are evicted
  // by the liveness sweep (run with the GC timer) and the group rebalances.
  void Heartbeat(const GroupId& group, const MemberId& member);

  // The partitions currently assigned to `member` under `generation`;
  // empty if the generation is stale (member must re-join).
  std::vector<PartitionId> AssignedPartitions(const GroupId& group, const MemberId& member,
                                              std::uint64_t generation) const;
  std::uint64_t GroupGeneration(const GroupId& group) const;

  // Offset commit/fetch (per group, per partition).
  void CommitOffset(const GroupId& group, PartitionId partition, Offset offset);
  Offset CommittedOffset(const GroupId& group, PartitionId partition) const;

  // -- "Replay and snapshot" (the ad hoc extension surface of §3.3) -------------
  //
  // Modeled on GCP Pub/Sub's seek-to-offset/timestamp: rewinds (or advances)
  // a group's committed position, causing redelivery of everything after the
  // seek point. The paper's observation: this is a storage read API grafted
  // onto a messaging system — it bypasses the normal commit discipline, and a
  // seek below the retained log silently lands at the earliest offset.
  void SeekGroup(const GroupId& group, PartitionId partition, Offset offset);
  // Seeks every partition of `topic` to the first message published at or
  // after `timestamp`.
  void SeekGroupToTime(const GroupId& group, const std::string& topic,
                       common::TimeMicros timestamp);

  // -- Backlog / loss accounting (harness-visible, not consumer-visible) --------

  // Consumer lag: end_offset - committed, summed over partitions.
  std::uint64_t GroupBacklog(const GroupId& group, const std::string& topic) const;
  std::uint64_t TotalGced(const std::string& topic) const;
  std::uint64_t TotalCompactedAway(const std::string& topic) const;
  std::uint64_t TotalSilentSkips(const std::string& topic) const;

  void set_session_timeout(common::TimeMicros t) { session_timeout_ = t; }

  // Attaches the observability collector (nullptr detaches). The broker
  // stamps trace stages on messages it appends/serves and logs rebalances
  // with their causes. `shard` tags the collector's per-shard histogram
  // family when the broker runs inside a ShardPool core.
  void set_obs(obs::Collector* obs, std::size_t shard = 0) {
    obs_ = obs;
    obs_shard_ = shard;
    if (obs != nullptr) {
      common::MetricsRegistry& m = obs->metrics();
      fanout_wakeups_ = &m.counter("fanout.wakeups");
      fanout_appends_matched_ = &m.counter("fanout.appends_matched");
      fanout_lanes_scanned_ = &m.counter("fanout.lanes_scanned");
      fanout_lanes_matched_ = &m.counter("fanout.lanes_matched");
      fanout_fetch_scanned_ = &m.counter("fanout.fetch_scanned");
      fanout_fetch_matched_ = &m.counter("fanout.fetch_matched");
    } else {
      fanout_wakeups_ = nullptr;
      fanout_appends_matched_ = nullptr;
      fanout_lanes_scanned_ = nullptr;
      fanout_lanes_matched_ = nullptr;
      fanout_fetch_scanned_ = nullptr;
      fanout_fetch_matched_ = nullptr;
    }
  }

  // The deterministic key hash behind kByKeyHash routing. Public so routing
  // layers (e.g. runtime::ConcurrentBroker) can pick the same partition the
  // broker would. Takes a view so span-staged publishes route without
  // materializing a key string.
  static std::uint64_t HashKey(std::string_view key);

  // -- Oracle introspection (harness-only, not consumer-visible) ----------------

  // Replaces the whole observer set with `observer` (nullptr clears). Kept
  // for single-observer callers; layered harnesses (oracle + journal) use
  // Add/RemoveObserver instead.
  void set_observer(BrokerObserver* observer) {
    observers_.clear();
    if (observer != nullptr) {
      observers_.push_back(observer);
    }
  }
  void AddObserver(BrokerObserver* observer) { observers_.push_back(observer); }
  void RemoveObserver(BrokerObserver* observer) {
    observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                     observers_.end());
  }
  std::vector<std::string> TopicNames() const;
  std::vector<GroupId> GroupIds() const;
  // Snapshot of a group's coordinator state; empty view for unknown groups.
  GroupView ViewGroup(const GroupId& group) const;
  // Direct (read-only) access to a partition's log; nullptr if unknown.
  const PartitionLog* Log(const std::string& topic, PartitionId partition) const;
  // Config of an existing topic; nullptr if unknown.
  const TopicConfig* TopicConfigFor(const std::string& topic) const;

  // -- Durability hooks (harness/journal-only) ----------------------------------

  // Mutable partition access so a journal can attach PartitionLog callbacks
  // and drive Restore* replay; nullptr if unknown.
  PartitionLog* MutableLog(const std::string& topic, PartitionId partition);

  // Recovery-only: re-applies a journaled committed offset. Group membership
  // and generations are deliberately soft state (members re-join after a
  // restart, Kafka-style), so only the topic binding and committed offsets
  // are restored. The committed value is clamped to the partition's end
  // offset as a guard against a journal that outran message durability.
  void RestoreGroupState(const GroupId& group, const std::string& topic, PartitionId partition,
                         Offset committed);

 private:
  struct Topic {
    TopicConfig config;
    std::vector<std::unique_ptr<PartitionLog>> partitions;
    // Parallel to `partitions`: the per-partition filtered-interest index.
    std::vector<std::unique_ptr<InterestIndex>> interest;
    PartitionId next_round_robin = 0;
  };

  struct Group {
    std::string topic;
    std::uint64_t generation = 0;
    // Member -> last heartbeat time.
    std::map<MemberId, common::TimeMicros> members;
    // Partition -> member (range assignment over sorted members).
    std::map<PartitionId, MemberId> assignment;
    std::map<PartitionId, Offset> committed;
  };

  void EnforceRetention();
  void SweepDeadMembers();
  void Rebalance(const GroupId& id, Group& group, const char* cause);

  // The one append body: stamps `run` (moved from), appends it to
  // `partition` as one run and dispatches the run's retained records to the
  // interest index. Returns the run's first offset.
  Offset AppendRun(Topic& t, PartitionId partition, std::span<Message> run);

  // Fires parked WaitForMatch wakeups whose filters match a record appended
  // to (topic, partition) at or past offset `first` — the O(matching) append
  // fanout path.
  void DispatchInterests(Topic& t, PartitionId partition, Offset first);

  // One registered interest and its (at most one) parked wakeup.
  struct Interest {
    std::string topic;
    PartitionId partition = 0;
    Offset wait_offset = 0;
    std::function<void()> wakeup;  // Parked WaitForMatch callback; empty = none.
  };

  sim::Simulator* sim_;
  sim::Network* net_;
  sim::NodeId node_;
  common::TimeMicros session_timeout_ = 3 * common::kMicrosPerSecond;
  std::map<std::string, Topic> topics_;
  std::map<GroupId, Group> groups_;
  std::vector<BrokerObserver*> observers_;
  std::unique_ptr<sim::PeriodicTask> maintenance_;
  obs::Collector* obs_ = nullptr;
  std::size_t obs_shard_ = 0;
  // The interest registry, in id order (teardown fires in that order).
  std::map<InterestId, Interest> interests_;
  // Fanout metric counters, resolved once in set_obs (nullptr when no obs).
  common::Counter* fanout_wakeups_ = nullptr;
  common::Counter* fanout_appends_matched_ = nullptr;
  common::Counter* fanout_lanes_scanned_ = nullptr;
  common::Counter* fanout_lanes_matched_ = nullptr;
  common::Counter* fanout_fetch_scanned_ = nullptr;
  common::Counter* fanout_fetch_matched_ = nullptr;
};

}  // namespace pubsub

#endif  // SRC_PUBSUB_BROKER_H_
