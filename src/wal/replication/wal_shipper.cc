#include "wal/replication/wal_shipper.h"

#include <algorithm>

#include "wal/replication/catch_up_syncer.h"

namespace wal {
namespace replication {

namespace {
// Delay between catch-up bursts, so a long stream interleaves with live
// traffic instead of monopolizing the event queue.
constexpr common::TimeMicros kStreamBurstGapMicros = 100;
// Frames sent per catch-up burst before the stream yields to the scheduler.
constexpr std::size_t kCatchUpBatch = 64;
}  // namespace

WalShipper::WalShipper(sim::Simulator* sim, sim::Network* net, sim::NodeId node,
                       common::MetricsRegistry* metrics, ReplicationOptions options)
    : sim_(sim),
      net_(net),
      node_(std::move(node)),
      metrics_(metrics),
      options_(std::move(options)),
      alive_(std::make_shared<bool>(true)) {
  net_->AddNode(node_);
  if (metrics_ != nullptr) {
    frames_shipped_ = &metrics_->counter("wal.repl.frames_shipped");
    acks_ = &metrics_->counter("wal.repl.acks");
  }
}

WalShipper::~WalShipper() {
  Detach();
  *alive_ = false;
}

void WalShipper::Count(const char* name, std::int64_t delta) {
  if (metrics_ != nullptr) {
    metrics_->counter(name).Increment(delta);
  }
}

void WalShipper::Track(const std::string& log_id, Log* log) {
  logs_[log_id] = log;
  log->set_append_observer(
      [this, log_id](std::uint64_t first_index, std::span<const std::string_view> payloads) {
        ShipRun(log_id, first_index, payloads);
      });
  for (auto& [node, follower] : followers_) {
    SyncLog(&follower, log_id, log);
  }
}

void WalShipper::Detach() {
  streams_.clear();  // Readers must die before the logs they pin.
  for (auto& [id, log] : logs_) {
    log->set_append_observer(nullptr);
  }
  logs_.clear();
}

void WalShipper::AddFollower(CatchUpSyncer* follower) {
  FollowerState& state = followers_[follower->node()];
  state.syncer = follower;
  follower->ConnectLeader(this, node_);
  for (auto& [id, log] : logs_) {
    SyncLog(&state, id, log);
  }
}

void WalShipper::SyncFollower(CatchUpSyncer* follower) {
  auto it = followers_.find(follower->node());
  if (it == followers_.end()) {
    return;
  }
  for (auto& [id, log] : logs_) {
    SyncLog(&it->second, id, log);
  }
}

void WalShipper::SyncLog(FollowerState* follower, const std::string& log_id, Log* log) {
  // Cursor probe is synchronous control plane; the repair itself (stream or
  // snapshot) flows over the network.
  const std::uint64_t follower_next = follower->syncer->DurableNextIndex(log_id);
  follower->acked[log_id] = std::max(follower->acked[log_id], follower_next);
  if (follower_next > log->next_index()) {
    // The follower outlived a leader that had more records (or a divergent
    // history). Its suffix was never exposed by *this* leader; replace it.
    ForceResync(follower->syncer, log_id, log);
  } else if (follower_next < log->next_index()) {
    StartStream(follower->syncer->node(), log_id, log, follower_next);
  }
}

void WalShipper::ShipRun(const std::string& log_id, std::uint64_t first_index,
                         std::span<const std::string_view> payloads) {
  for (auto& [node, follower] : followers_) {
    if (streams_.count({node, log_id}) > 0) {
      // The open stream's reader will reach these frames in order; a halted
      // stream ships nothing past its refused frame.
      continue;
    }
    SendRun(follower.syncer, log_id, first_index,
            std::vector<std::string>(payloads.begin(), payloads.end()));
  }
}

void WalShipper::SendRun(CatchUpSyncer* follower, const std::string& log_id,
                         std::uint64_t first_index, std::vector<std::string> payloads) {
  const auto frames = static_cast<std::int64_t>(payloads.size());
  net_->Send(node_, follower->node(),
             [follower, log_id, first_index, p = std::move(payloads)]() mutable {
               follower->OnFrames(log_id, first_index, std::move(p));
             });
  if (frames_shipped_ != nullptr) {
    frames_shipped_->Increment(frames);
  }
}

void WalShipper::StartStream(const sim::NodeId& follower, const std::string& log_id, Log* log,
                             std::uint64_t from) {
  const auto key = std::make_pair(follower, log_id);
  if (streams_.count(key) > 0) {
    return;
  }
  streams_[key].reader = log->OpenReader(from);
  Count("wal.repl.streams_opened");
  PumpStream(follower, log_id);
}

void WalShipper::PumpStream(const sim::NodeId& follower, const std::string& log_id) {
  auto it = streams_.find({follower, log_id});
  if (it == streams_.end() || it->second.reader == nullptr) {
    return;
  }
  auto fit = followers_.find(follower);
  auto lit = logs_.find(log_id);
  if (fit == followers_.end() || lit == logs_.end()) {
    streams_.erase(it);
    return;
  }
  // One burst: up to kCatchUpBatch frames, shipped as one message.
  CatchUpSyncer* syncer = fit->second.syncer;
  const std::uint64_t first_index = it->second.reader->next_index();
  std::vector<std::string> burst;
  std::uint64_t index = 0;
  std::string payload;
  while (burst.size() < kCatchUpBatch) {
    auto more = it->second.reader->Next(&index, &payload);
    if (!more.ok() || !more.value()) {
      // The frames read before the stream ended are whole and checked.
      if (!burst.empty()) {
        SendRun(syncer, log_id, first_index, std::move(burst));
      }
      if (!more.ok() && more.status().code() == common::StatusCode::kInternal) {
        // The reader refused a frame: the leader's own copy is corrupt.
        // Stop loudly. A snapshot would copy the corrupt segment, and a
        // restarted stream or the live tail would ship past the hole, so
        // the halted stream stays to suppress both.
        Count("wal.repl.corrupt_frames");
        it->second.reader.reset();
        return;
      }
      streams_.erase(it);
      if (!more.ok()) {
        // kNotFound: the cursor fell below the retained prefix (opened out
        // of band). Recover loudly with a snapshot rather than skipping
        // records.
        ForceResync(syncer, log_id, lit->second);
      }
      return;  // Caught up: the live tail takes over from here.
    }
    burst.push_back(std::move(payload));
  }
  if (!burst.empty()) {
    SendRun(syncer, log_id, first_index, std::move(burst));
  }
  sim_->After(kStreamBurstGapMicros, [this, alive = alive_, follower, log_id] {
    if (*alive) {
      PumpStream(follower, log_id);
    }
  });
}

void WalShipper::ForceResync(CatchUpSyncer* follower, const std::string& log_id, Log* log) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const SegmentInfo& seg : log->Segments()) {
    const std::string name = Log::SegmentFileName(seg.first_index);
    auto contents = ReadFileToString(*log->vfs(), log->dir() + "/" + name);
    if (!contents.ok()) {
      Count("wal.repl.resync_read_errors");
      return;  // Leader storage failing; the follower will re-request.
    }
    files.emplace_back(name, std::move(contents.value()));
  }
  Count("wal.repl.force_resyncs_sent");
  net_->Send(node_, follower->node(), [follower, log_id, files = std::move(files)]() mutable {
    follower->OnResyncFiles(log_id, std::move(files));
  });
}

void WalShipper::OnAck(const sim::NodeId& follower, const std::string& log_id,
                       std::uint64_t next) {
  auto it = followers_.find(follower);
  if (it == followers_.end()) {
    return;
  }
  std::uint64_t& acked = it->second.acked[log_id];
  acked = std::max(acked, next);
  if (acks_ != nullptr) {
    acks_->Increment();
  }
}

void WalShipper::OnCatchUpRequest(const sim::NodeId& follower, const std::string& log_id,
                                  std::uint64_t from) {
  auto fit = followers_.find(follower);
  auto lit = logs_.find(log_id);
  if (fit == followers_.end() || lit == logs_.end()) {
    return;
  }
  if (streams_.count({follower, log_id}) > 0) {
    return;  // Already repairing this pair.
  }
  Count("wal.repl.catch_up_requests_served");
  if (from < lit->second->oldest_retained_index()) {
    // Prefix GC outran the follower: the records it needs are gone, so a
    // stream cannot start at `from`. Snapshot instead.
    ForceResync(fit->second.syncer, log_id, lit->second);
    return;
  }
  StartStream(follower, log_id, lit->second, from);
}

std::uint64_t WalShipper::QuorumAckedNext(const std::string& log_id) const {
  auto lit = logs_.find(log_id);
  const std::uint64_t leader_next = lit == logs_.end() ? 0 : lit->second->next_index();
  const std::size_t quorum = options_.replication_factor / 2 + 1;
  if (quorum <= 1) {
    return leader_next;
  }
  // The leader is one copy; the (quorum-1)-th best follower completes the
  // majority.
  std::vector<std::uint64_t> acks;
  acks.reserve(followers_.size());
  for (const auto& [node, follower] : followers_) {
    auto it = follower.acked.find(log_id);
    acks.push_back(it == follower.acked.end() ? 0 : it->second);
  }
  if (acks.size() < quorum - 1) {
    return 0;
  }
  std::sort(acks.begin(), acks.end(), std::greater<std::uint64_t>());
  return std::min(leader_next, acks[quorum - 2]);
}

std::map<std::string, std::uint64_t> WalShipper::QuorumAckedNextAll() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [id, log] : logs_) {
    out[id] = QuorumAckedNext(id);
  }
  return out;
}

std::vector<std::string> WalShipper::log_ids() const {
  std::vector<std::string> ids;
  ids.reserve(logs_.size());
  for (const auto& [id, log] : logs_) {
    ids.push_back(id);
  }
  return ids;
}

}  // namespace replication
}  // namespace wal
