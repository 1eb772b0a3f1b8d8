#include "pubsub/broker.h"

#include <algorithm>
#include <atomic>
#include <iterator>

namespace pubsub {

Broker::Broker(sim::Simulator* sim, sim::Network* net, sim::NodeId node,
               common::TimeMicros gc_period)
    : sim_(sim), net_(net), node_(std::move(node)) {
  net_->AddNode(node_);
  maintenance_ = std::make_unique<sim::PeriodicTask>(sim_, gc_period, [this] {
    EnforceRetention();
    SweepDeadMembers();
  });
}

Broker::~Broker() {
  // Fire (don't drop) every parked wakeup: a parked wakeup must always run
  // exactly once unless its interest is removed, even when the registry dies
  // first. The callbacks run as immediate events on the (longer-lived)
  // simulator and re-check state themselves — the standard contract for
  // every waker in this codebase.
  for (auto& [id, interest] : interests_) {
    if (interest.wakeup) {
      sim_->After(0, std::move(interest.wakeup));
    }
  }
}

common::Status Broker::CreateTopic(const std::string& topic, TopicConfig config) {
  if (topics_.count(topic) > 0) {
    return common::Status::AlreadyExists(topic);
  }
  if (config.partitions == 0) {
    return common::Status::InvalidArgument("topic needs at least one partition");
  }
  Topic t;
  t.config = config;
  t.partitions.reserve(config.partitions);
  t.interest.reserve(config.partitions);
  for (PartitionId p = 0; p < config.partitions; ++p) {
    t.partitions.push_back(std::make_unique<PartitionLog>(config.retention));
    t.interest.push_back(std::make_unique<InterestIndex>());
  }
  topics_.emplace(topic, std::move(t));
  return common::Status::Ok();
}

common::Status Broker::AddPartitions(const std::string& topic, PartitionId additional) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  if (additional == 0) {
    return common::Status::InvalidArgument("additional partitions must be > 0");
  }
  Topic& t = it->second;
  t.partitions.reserve(t.partitions.size() + additional);
  t.interest.reserve(t.interest.size() + additional);
  for (PartitionId p = 0; p < additional; ++p) {
    t.partitions.push_back(std::make_unique<PartitionLog>(t.config.retention));
    t.interest.push_back(std::make_unique<InterestIndex>());
  }
  t.config.partitions += additional;
  // The topic changed shape: every bound group rebalances now so the new
  // partitions have owners (leaving them unowned until the next membership
  // change would violate assignment coverage).
  for (auto& [id, group] : groups_) {
    if (group.topic == topic && !group.members.empty()) {
      Rebalance(id, group, "partition_growth");
    }
  }
  return common::Status::Ok();
}

std::uint64_t Broker::HashKey(std::string_view key) {
  // FNV-1a: deterministic across platforms.
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

common::Result<PublishResult> Broker::Publish(const std::string& topic, Message msg,
                                              std::optional<PartitionId> partition) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  Topic& t = it->second;
  PartitionId p;
  if (partition.has_value()) {
    if (*partition >= t.config.partitions) {
      return common::Status::InvalidArgument("partition out of range");
    }
    p = *partition;
  } else if (!msg.key.empty()) {
    p = static_cast<PartitionId>(HashKey(msg.key) % t.config.partitions);
  } else {
    p = t.next_round_robin;
    t.next_round_robin = (t.next_round_robin + 1) % t.config.partitions;
  }
  return PublishResult{p, AppendRun(t, p, std::span<Message>(&msg, 1))};
}

common::Result<PublishResult> Broker::PublishRun(const std::string& topic, PartitionId partition,
                                                 std::span<const RecordView> records) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  Topic& t = it->second;
  if (partition >= t.config.partitions) {
    return common::Status::InvalidArgument("partition out of range");
  }
  // The one owned-Message construction for each record: the views are
  // materialized into log-owned strings here, at append.
  std::vector<Message> run(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    run[i].key.assign(records[i].key.data(), records[i].key.size());
    run[i].value.assign(records[i].value.data(), records[i].value.size());
    if (records[i].headers != nullptr) {
      run[i].headers = *records[i].headers;
    }
  }
  return PublishResult{partition, AppendRun(t, partition, run)};
}

Offset Broker::AppendRun(Topic& t, PartitionId partition, std::span<Message> run) {
  const common::TimeMicros now = sim_->Now();
  const bool tracing = obs::TracingEnabled();
  for (Message& msg : run) {
    msg.publish_time = now;
    if (tracing) {
      if (!msg.trace.considered()) {
        msg.trace = obs::TraceContext::Start();  // Origin: publish accepted.
      }
      if (msg.trace.active()) {  // Sampled-out records skip the clock read.
        msg.trace.Stamp(obs::Stage::kAppend, obs::NowMicros());
      }
    }
  }
  const Offset first = t.partitions[partition]->AppendRun(run);
  DispatchInterests(t, partition, first);
  return first;
}

void Broker::DispatchInterests(Topic& t, PartitionId partition, Offset first) {
  InterestIndex& idx = *t.interest[partition];
  if (idx.subscriber_count() == 0) {
    return;
  }
  // The run's records sit at the tail; the size cap may have trimmed its
  // head already.
  const auto& entries = t.partitions[partition]->entries();
  auto from = entries.end();
  while (from != entries.begin() && std::prev(from)->offset >= first) {
    --from;
  }
  const std::uint64_t scanned_before = idx.lanes_scanned();
  const std::uint64_t matched_before = idx.lanes_matched();
  std::uint64_t woken = 0;
  std::uint64_t appends_matched = 0;
  Offset offset = 0;
  bool matched_any = false;
  // Built once per run, not per record: the captures outgrow std::function's
  // inline buffer.
  const std::function<void(InterestIndex::SubscriberId)> visit =
      [&](InterestIndex::SubscriberId id) {
        matched_any = true;
        auto it = interests_.find(id);
        if (it == interests_.end()) {
          return;
        }
        Interest& interest = it->second;
        // Only a parked wakeup whose target offset has arrived fires; a
        // subscriber mid-catch-up (nothing parked) will meet this record via
        // its fetch cursor instead.
        if (!interest.wakeup || offset < interest.wait_offset) {
          return;
        }
        sim_->After(0, std::move(interest.wakeup));
        interest.wakeup = nullptr;
        ++woken;
      };
  for (auto sm = from; sm != entries.end(); ++sm) {
    offset = sm->offset;
    matched_any = false;
    idx.Match(sm->message.key, sm->message.headers, visit);
    appends_matched += matched_any ? 1 : 0;
  }
  if (fanout_wakeups_ != nullptr) {
    fanout_wakeups_->Increment(static_cast<std::int64_t>(woken));
    fanout_lanes_scanned_->Increment(
        static_cast<std::int64_t>(idx.lanes_scanned() - scanned_before));
    fanout_lanes_matched_->Increment(
        static_cast<std::int64_t>(idx.lanes_matched() - matched_before));
    fanout_appends_matched_->Increment(static_cast<std::int64_t>(appends_matched));
  }
}

Broker::InterestId Broker::AddInterest(const std::string& topic, PartitionId partition,
                                       Filter filter) {
  // Process-wide, so no two broker instances ever hand out the same id.
  static std::atomic<InterestId> next_interest{1};
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return 0;
  }
  const InterestId id = next_interest.fetch_add(1, std::memory_order_relaxed);
  it->second.interest[partition]->Add(id, std::move(filter));
  interests_.emplace(id, Interest{topic, partition, 0, nullptr});
  return id;
}

bool Broker::RemoveInterest(InterestId id) {
  auto it = interests_.find(id);
  if (it == interests_.end()) {
    return false;
  }
  // The parked wakeup, if any, goes with the registration unfired.
  topics_.at(it->second.topic).interest[it->second.partition]->Remove(id);
  interests_.erase(it);
  return true;
}

bool Broker::WaitForMatch(InterestId id, Offset offset, std::function<void()> fn) {
  auto in = interests_.find(id);
  if (in == interests_.end()) {
    return false;
  }
  Interest& interest = in->second;
  interest.wakeup = nullptr;  // Every wait replaces the parked one.
  const Topic& t = topics_.at(interest.topic);
  const PartitionLog& log = *t.partitions[interest.partition];
  if (log.end_offset() > offset) {
    // Something landed at or past `offset`. For a match-all interest that is
    // a match (a cursor retention passed moves on at its next read); a
    // filtered one probes for a retained match. The common caller parks only
    // once caught up, so this branch is usually skipped.
    const Filter& filter = *t.interest[interest.partition]->FilterOf(id);
    std::vector<StoredMessage> probe;
    if (filter.MatchesEverything() || log.Read(offset, 1, 0, &filter, &probe).matched > 0) {
      sim_->After(0, std::move(fn));
      return false;
    }
  }
  interest.wakeup = std::move(fn);
  interest.wait_offset = offset;
  return true;
}

std::size_t Broker::PendingWaiters() const {
  return static_cast<std::size_t>(std::count_if(
      interests_.begin(), interests_.end(),
      [](const auto& entry) { return static_cast<bool>(entry.second.wakeup); }));
}

common::Result<std::size_t> Broker::FetchFilteredInto(const std::string& topic,
                                                      PartitionId partition, Offset offset,
                                                      std::size_t max, std::size_t max_scan,
                                                      const Filter& filter,
                                                      std::vector<StoredMessage>* out,
                                                      Offset* next_offset,
                                                      std::uint64_t* scanned) const {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return common::Status::NotFound("no such topic: " + topic);
  }
  if (partition >= it->second.config.partitions) {
    return common::Status::InvalidArgument("partition out of range");
  }
  // Checked once per call: a filter constraining nothing reads without the
  // per-record predicate, and is not a filtered fetch for the fanout ledger.
  const bool everything = filter.MatchesEverything();
  const std::size_t before = out->size();
  const PartitionLog::ReadResult read = it->second.partitions[partition]->Read(
      offset, max, max_scan, everything ? nullptr : &filter, out);
  *next_offset = read.next;
  if (scanned != nullptr) {
    *scanned += read.scanned;
  }
  if (!everything && fanout_fetch_scanned_ != nullptr) {
    fanout_fetch_scanned_->Increment(static_cast<std::int64_t>(read.scanned));
    fanout_fetch_matched_->Increment(static_cast<std::int64_t>(read.matched));
  }
  if (obs::TracingEnabled() && read.matched != 0) {  // Empty polls skip the clock read.
    const std::int64_t now = obs::NowMicros();
    for (std::size_t i = before; i < out->size(); ++i) {
      (*out)[i].message.trace.Stamp(obs::Stage::kFetch, now);  // Handed to consumer.
    }
  }
  return read.matched;
}

const InterestIndex* Broker::Interests(const std::string& topic, PartitionId partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return nullptr;
  }
  return it->second.interest[partition].get();
}

common::Result<std::vector<StoredMessage>> Broker::Fetch(const std::string& topic,
                                                         PartitionId partition, Offset offset,
                                                         std::size_t max) const {
  static const Filter kEveryRecord;
  std::vector<StoredMessage> messages;
  Offset next = offset;
  auto read = FetchFilteredInto(topic, partition, offset, max, 0, kEveryRecord, &messages, &next);
  if (!read.ok()) {
    return read.status();
  }
  return messages;
}

Offset Broker::EndOffset(const std::string& topic, PartitionId partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return 0;
  }
  return it->second.partitions[partition]->end_offset();
}

Offset Broker::FirstOffset(const std::string& topic, PartitionId partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return 0;
  }
  return it->second.partitions[partition]->first_offset();
}

common::Result<std::uint64_t> Broker::JoinGroup(const GroupId& group, const std::string& topic,
                                                const MemberId& member) {
  Group& g = groups_[group];
  if (g.topic.empty()) {
    g.topic = topic;
  } else if (g.topic != topic) {
    // A group's topic binding is immutable: letting a late joiner rewrite it
    // would silently repoint every member's assignment at a different log.
    return common::Status::FailedPrecondition("group '" + group + "' consumes topic '" +
                                              g.topic + "', not '" + topic + "'");
  }
  const auto [it, inserted] = g.members.insert_or_assign(member, sim_->Now());
  (void)it;
  if (inserted) {
    Rebalance(group, g, "member_join");
  }
  // A rejoin by a present member is heartbeat-equivalent: bumping the
  // generation here would invalidate every member's AssignedPartitions.
  return g.generation;
}

void Broker::LeaveGroup(const GroupId& group, const MemberId& member) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return;
  }
  if (it->second.members.erase(member) > 0) {
    Rebalance(group, it->second, "member_leave");
  }
}

void Broker::Heartbeat(const GroupId& group, const MemberId& member) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return;
  }
  auto m = it->second.members.find(member);
  if (m != it->second.members.end()) {
    m->second = sim_->Now();
  }
}

std::vector<PartitionId> Broker::AssignedPartitions(const GroupId& group, const MemberId& member,
                                                    std::uint64_t generation) const {
  std::vector<PartitionId> out;
  auto it = groups_.find(group);
  if (it == groups_.end() || it->second.generation != generation) {
    return out;
  }
  for (const auto& [partition, owner] : it->second.assignment) {
    if (owner == member) {
      out.push_back(partition);
    }
  }
  return out;
}

std::uint64_t Broker::GroupGeneration(const GroupId& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.generation;
}

void Broker::CommitOffset(const GroupId& group, PartitionId partition, Offset offset) {
  Group& g = groups_[group];
  Offset& committed = g.committed[partition];
  if (offset > committed) {
    committed = offset;
    for (BrokerObserver* o : observers_) {
      o->OnCommitOffset(group, partition, committed);
    }
  }
}

void Broker::SeekGroup(const GroupId& group, PartitionId partition, Offset offset) {
  groups_[group].committed[partition] = offset;  // May rewind: that is the point.
  for (BrokerObserver* o : observers_) {
    o->OnSeek(group, partition, offset);
  }
}

void Broker::SeekGroupToTime(const GroupId& group, const std::string& topic,
                             common::TimeMicros timestamp) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return;
  }
  for (PartitionId p = 0; p < it->second.config.partitions; ++p) {
    // First retained message at or after the timestamp; if everything is
    // older, land at the end (nothing replays).
    const Offset target = it->second.partitions[p]->OffsetAtOrAfter(timestamp);
    groups_[group].committed[p] = target;
    for (BrokerObserver* o : observers_) {
      o->OnSeek(group, p, target);
    }
  }
}

Offset Broker::CommittedOffset(const GroupId& group, PartitionId partition) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return 0;
  }
  auto c = it->second.committed.find(partition);
  return c == it->second.committed.end() ? 0 : c->second;
}

std::uint64_t Broker::GroupBacklog(const GroupId& group, const std::string& topic) const {
  auto t = topics_.find(topic);
  if (t == topics_.end()) {
    return 0;
  }
  std::uint64_t backlog = 0;
  for (PartitionId p = 0; p < t->second.config.partitions; ++p) {
    const Offset end = t->second.partitions[p]->end_offset();
    const Offset committed = CommittedOffset(group, p);
    backlog += end > committed ? end - committed : 0;
  }
  return backlog;
}

std::uint64_t Broker::TotalGced(const std::string& topic) const {
  auto t = topics_.find(topic);
  if (t == topics_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& p : t->second.partitions) {
    total += p->gced();
  }
  return total;
}

std::uint64_t Broker::TotalCompactedAway(const std::string& topic) const {
  auto t = topics_.find(topic);
  if (t == topics_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& p : t->second.partitions) {
    total += p->compacted_away();
  }
  return total;
}

std::uint64_t Broker::TotalSilentSkips(const std::string& topic) const {
  auto t = topics_.find(topic);
  if (t == topics_.end()) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& p : t->second.partitions) {
    total += p->silent_skips();
  }
  return total;
}

void Broker::EnforceRetention() {
  const common::TimeMicros now = sim_->Now();
  for (auto& [name, topic] : topics_) {
    const RetentionPolicy& policy = topic.config.retention;
    for (auto& log : topic.partitions) {
      if (policy.compacted && policy.compaction_window > 0) {
        log->Compact(now - policy.compaction_window);
      }
      if (policy.retention > 0) {
        log->GcBefore(now - policy.retention);
      }
    }
  }
}

void Broker::SweepDeadMembers() {
  const common::TimeMicros now = sim_->Now();
  for (auto& [id, group] : groups_) {
    bool changed = false;
    for (auto it = group.members.begin(); it != group.members.end();) {
      if (now - it->second > session_timeout_) {
        it = group.members.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
    if (changed) {
      Rebalance(id, group, "member_eviction");
    }
  }
}

void Broker::Rebalance(const GroupId& id, Group& group, const char* cause) {
  ++group.generation;
  group.assignment.clear();
  if (obs_ != nullptr) {
    obs_->LogEvent(obs::EventKind::kRebalance, cause,
                   "group=" + id + " gen=" + std::to_string(group.generation) +
                       " members=" + std::to_string(group.members.size()),
                   obs_shard_);
  }
  auto topic = topics_.find(group.topic);
  if (topic != topics_.end() && !group.members.empty()) {
    // Range assignment: contiguous partition blocks over sorted members
    // (std::map iteration is already sorted, giving determinism).
    std::vector<MemberId> members;
    members.reserve(group.members.size());
    for (const auto& [m, hb] : group.members) {
      members.push_back(m);
    }
    const PartitionId n = topic->second.config.partitions;
    for (PartitionId p = 0; p < n; ++p) {
      group.assignment[p] = members[p % members.size()];
    }
  }
  if (!observers_.empty()) {
    std::vector<MemberId> members;
    members.reserve(group.members.size());
    for (const auto& [m, hb] : group.members) {
      members.push_back(m);
    }
    for (BrokerObserver* o : observers_) {
      o->OnRebalance(id, group.generation, members, group.assignment);
    }
  }
}

std::vector<std::string> Broker::TopicNames() const {
  std::vector<std::string> out;
  out.reserve(topics_.size());
  for (const auto& [name, topic] : topics_) {
    out.push_back(name);
  }
  return out;
}

std::vector<GroupId> Broker::GroupIds() const {
  std::vector<GroupId> out;
  out.reserve(groups_.size());
  for (const auto& [id, group] : groups_) {
    out.push_back(id);
  }
  return out;
}

GroupView Broker::ViewGroup(const GroupId& group) const {
  GroupView view;
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return view;
  }
  view.topic = it->second.topic;
  view.generation = it->second.generation;
  for (const auto& [m, hb] : it->second.members) {
    view.members.push_back(m);
  }
  view.assignment = it->second.assignment;
  view.committed = it->second.committed;
  return view;
}

const PartitionLog* Broker::Log(const std::string& topic, PartitionId partition) const {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return nullptr;
  }
  return it->second.partitions[partition].get();
}

const TopicConfig* Broker::TopicConfigFor(const std::string& topic) const {
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : &it->second.config;
}

PartitionLog* Broker::MutableLog(const std::string& topic, PartitionId partition) {
  auto it = topics_.find(topic);
  if (it == topics_.end() || partition >= it->second.config.partitions) {
    return nullptr;
  }
  return it->second.partitions[partition].get();
}

void Broker::RestoreGroupState(const GroupId& group, const std::string& topic,
                               PartitionId partition, Offset committed) {
  Group& g = groups_[group];
  if (g.topic.empty()) {
    g.topic = topic;
  }
  const Offset end = EndOffset(topic, partition);
  g.committed[partition] = std::min(committed, end);
}

}  // namespace pubsub
