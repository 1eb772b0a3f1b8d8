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
#include <set>
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

  // Teardown fires every still-parked long-poll waiter (append and
  // rebalance) as an immediate simulator event, so event-driven consumers
  // parked on this broker wake, re-check, and discover the broker is gone
  // instead of hanging forever. The simulator must outlive the broker (it
  // does wherever brokers are built: harnesses and ShardCore both destroy
  // the broker before the sim).
  ~Broker();

  const sim::NodeId& node() const { return node_; }

  // -- Topics -----------------------------------------------------------------

  common::Status CreateTopic(const std::string& topic, TopicConfig config);
  // Removes a topic (topic delete / failover re-point). Every append waiter
  // parked on any of its partitions fires immediately — the resync signal;
  // wakers re-check and observe the topic is gone — and every group bound to
  // the topic keeps its (now dangling) soft state for the members to discover
  // on their next join. kNotFound for unknown topics.
  common::Status RemoveTopic(const std::string& topic);
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

  // -- Filtered subscriptions (the interest-index fanout subsystem) -------------
  //
  // A filtered consumer registers its interest — (topic, partition, Filter) —
  // once, then parks one-shot WaitForMatch wakeups against it. Appends are
  // dispatched through the partition's InterestIndex, so only consumers whose
  // filters match the appended record wake: append-time fanout work is
  // O(matching subscriptions), not O(all sessions). Catch-up reads go through
  // FetchFilteredInto (above), which evaluates the filter broker-side and
  // returns only matching records plus a scan-resume cursor.

  using InterestId = std::uint64_t;
  using WaitTicket = std::uint64_t;  // Shared with the long-poll wakeups below.

  // Registers a filter; returns 0 for an unknown topic/partition. An
  // interest survives until RemoveInterest (or topic removal). Interests
  // with identical canonical filters share one index lane (subgrouping).
  InterestId AddInterest(const std::string& topic, PartitionId partition, Filter filter);
  // Deregisters, cancelling any parked WaitForMatch wakeup without firing
  // it. Returns false for unknown ids (harmless after topic removal).
  bool RemoveInterest(InterestId id);
  // Parks `fn` (one-shot, fired as an immediate event) until a record at or
  // past `offset` matching the interest's filter is appended. If such a
  // record is already retained, fires immediately and returns 0, mirroring
  // WaitForAppend. Tickets share WaitForAppend's namespace: CancelWait works
  // on them and broker teardown fires them. At most one wakeup is parked per
  // interest; a re-park replaces (cancels) the previous one.
  WaitTicket WaitForMatch(InterestId id, Offset offset, std::function<void()> fn);
  // Outstanding interest registrations (tests/leak checks, the filtered
  // analogue of PendingWaiters).
  std::size_t PendingInterests() const { return interests_.size(); }
  // Read-only view of a partition's interest index (oracle/bench
  // introspection); nullptr if unknown.
  const InterestIndex* Interests(const std::string& topic, PartitionId partition) const;

  // -- Long-poll wakeups (the event-driven delivery subsystem) ------------------
  //
  // Instead of sleeping on a poll timer, an event-driven consumer parks a
  // wakeup on the broker: WaitForAppend registers `fn` to run — as an
  // immediate simulator event, preserving deterministic ordering — as soon as
  // `partition` holds a message at or past `offset` (end_offset > offset).
  // If data is already available the wakeup fires immediately. Wakeups are
  // one-shot: a fired waiter is deregistered and must re-arm. Returns 0 (no
  // registration) for an unknown topic/partition; CancelWait on a fired or
  // unknown ticket is a harmless no-op returning false.
  WaitTicket WaitForAppend(const std::string& topic, PartitionId partition, Offset offset,
                           std::function<void()> fn);
  // Fires (one-shot, as an immediate event) on the group's next rebalance —
  // how an event-driven group consumer learns its assignment changed without
  // polling for the generation. Always registers, even for a group that does
  // not exist yet (a joining member may park before its join lands).
  WaitTicket WaitForRebalance(const GroupId& group, std::function<void()> fn);
  bool CancelWait(WaitTicket ticket);
  // Outstanding registrations (tests/leak checks).
  std::size_t PendingWaiters() const { return waiter_index_.size(); }

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
  // Fires (and deregisters) every append waiter on (topic, partition) whose
  // target offset is now available, i.e. offset < end.
  void NotifyAppendWaiters(const std::string& topic, PartitionId partition, Offset end);

  // The one append body: stamps `run` (moved from), appends it to
  // `partition` as one run, wakes the partition's append waiters once and
  // dispatches the run's retained records to the interest index. Returns the
  // run's first offset.
  Offset AppendRun(const std::string& topic, Topic& t, PartitionId partition,
                   std::span<Message> run);

  // Fires parked WaitForMatch wakeups whose filters match a record appended
  // to (topic, partition) at or past offset `first` — the O(matching) append
  // fanout path.
  void DispatchInterests(Topic& t, PartitionId partition, Offset first);

  // One parked long-poll wakeup. Exactly one key is meaningful: data waiters
  // carry (topic, partition, offset); rebalance waiters carry the group id;
  // filtered match waiters carry an interest id (plus topic/partition for
  // observability).
  struct Waiter {
    std::string topic;
    PartitionId partition = 0;
    Offset offset = 0;
    GroupId group;
    InterestId interest = 0;
    std::function<void()> fn;
  };

  // One registered filtered interest and its (at most one) parked wakeup.
  struct Interest {
    std::string topic;
    PartitionId partition = 0;
    WaitTicket ticket = 0;  // Parked WaitForMatch ticket; 0 = none.
    Offset wait_offset = 0;
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
  // The waiter registry. waiter_index_ owns the waiters; the per-partition
  // and per-group maps index into it by ticket so the append hot path only
  // touches its own partition's parked set.
  std::map<WaitTicket, Waiter> waiter_index_;
  std::map<std::pair<std::string, PartitionId>, std::map<WaitTicket, Offset>> append_waiters_;
  std::map<GroupId, std::set<WaitTicket>> rebalance_waiters_;
  WaitTicket next_wait_ticket_ = 1;
  // Filtered-interest registry; ids are globally unique across the broker so
  // they double as InterestIndex subscriber ids.
  std::map<InterestId, Interest> interests_;
  InterestId next_interest_ = 1;
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
