#include "wal/replication/catch_up_syncer.h"

#include "wal/replication/wal_shipper.h"

namespace wal {
namespace replication {

namespace {

// Follower replay is a no-op: applying frames through Log::Append rebuilds
// the bytes; recovery only needs to re-establish the cursor.
common::Status NoopReplay(std::uint64_t, std::string_view) { return common::Status::Ok(); }

// A follower re-requests catch-up if a gap persists this long.
constexpr common::TimeMicros kCatchUpRetryMicros = 10'000;

}  // namespace

CatchUpSyncer::CatchUpSyncer(sim::Simulator* sim, sim::Network* net, sim::NodeId node, Vfs* vfs,
                             std::string root_dir, common::MetricsRegistry* metrics,
                             ReplicationOptions options)
    : sim_(sim),
      net_(net),
      node_(std::move(node)),
      vfs_(vfs),
      root_dir_(std::move(root_dir)),
      metrics_(metrics),
      options_(std::move(options)) {
  net_->AddNode(node_);
  if (metrics_ != nullptr) {
    frames_applied_ = &metrics_->counter("wal.repl.frames_applied");
    acks_sent_ = &metrics_->counter("wal.repl.acks_sent");
  }
}

CatchUpSyncer::~CatchUpSyncer() = default;

void CatchUpSyncer::Count(const char* name, std::int64_t delta) {
  if (metrics_ != nullptr) {
    metrics_->counter(name).Increment(delta);
  }
}

void CatchUpSyncer::NoteFailure(const common::Status& status) {
  if (status_.ok()) {
    status_ = status;
  }
  Count("wal.repl.follower_errors");
}

void CatchUpSyncer::ConnectLeader(WalShipper* shipper, sim::NodeId leader_node) {
  leader_ = shipper;
  leader_node_ = std::move(leader_node);
}

void CatchUpSyncer::DetachLeader() {
  leader_ = nullptr;
  leader_node_.clear();
}

CatchUpSyncer::LogState* CatchUpSyncer::GetOrOpenLog(const std::string& log_id) {
  LogState& state = logs_[log_id];
  if (state.log != nullptr) {
    return &state;
  }
  auto opened = Log::Open(vfs_, root_dir_ + "/" + log_id, options_.log_options(log_id), metrics_,
                          NoopReplay);
  if (!opened.ok()) {
    NoteFailure(opened.status());
    return nullptr;
  }
  state.log = std::move(opened.value());
  return &state;
}

void CatchUpSyncer::SendAck(const std::string& log_id, std::uint64_t next) {
  if (leader_ == nullptr) {
    return;
  }
  net_->Send(node_, leader_node_,
             [shipper = leader_, node = node_, log_id, next] { shipper->OnAck(node, log_id, next); });
  if (acks_sent_ != nullptr) {
    acks_sent_->Increment();
  }
}

void CatchUpSyncer::MaybeRequestCatchUp(const std::string& log_id, LogState* state) {
  if (leader_ == nullptr || state->log == nullptr) {
    return;
  }
  const common::TimeMicros now = sim_->Now();
  if (state->last_catch_up_request >= 0 &&
      now < state->last_catch_up_request + kCatchUpRetryMicros) {
    return;  // A request is in flight; re-ask only after the retry window.
  }
  state->last_catch_up_request = now;
  const std::uint64_t from = state->log->next_index();
  net_->Send(node_, leader_node_, [shipper = leader_, node = node_, log_id, from] {
    shipper->OnCatchUpRequest(node, log_id, from);
  });
  Count("wal.repl.catch_up_requests");
}

bool CatchUpSyncer::Apply(LogState* state, std::span<const std::string_view> payloads) {
  auto appended = state->log->AppendBatch(payloads);
  if (!appended.ok()) {
    NoteFailure(appended.status());
    return false;
  }
  if (frames_applied_ != nullptr) {
    frames_applied_->Increment(static_cast<std::int64_t>(payloads.size()));
  }
  return true;
}

void CatchUpSyncer::Drain(LogState* state) {
  // Stashed frames the cursor has passed are duplicates a catch-up stream
  // delivered; the contiguous stretch at the cursor applies as one batch.
  const std::uint64_t next = state->log->next_index();
  state->pending.erase(state->pending.begin(), state->pending.lower_bound(next));
  std::vector<std::string_view> run;
  auto it = state->pending.begin();
  for (; it != state->pending.end() && it->first == next + run.size(); ++it) {
    run.push_back(it->second);
  }
  if (!run.empty()) {
    if (!Apply(state, run)) {
      return;
    }
    state->pending.erase(state->pending.begin(), it);
  }
  if (state->pending.empty()) {
    state->last_catch_up_request = -1;  // Gap closed; next gap re-requests at once.
  }
}

void CatchUpSyncer::OnFrames(const std::string& log_id, std::uint64_t first_index,
                             std::vector<std::string> payloads) {
  if (crashed_ || payloads.empty()) {
    return;
  }
  LogState* state = GetOrOpenLog(log_id);
  if (state == nullptr) {
    return;
  }
  const std::uint64_t next = state->log->next_index();
  if (first_index + payloads.size() <= next) {
    // Retransmission (catch-up overlap); re-ack so the leader's accounting
    // converges even if the original ack was dropped.
    Count("wal.repl.dup_frames", static_cast<std::int64_t>(payloads.size()));
    SendAck(log_id, next);
    return;
  }
  if (first_index > next) {
    Count("wal.repl.frames_stashed", static_cast<std::int64_t>(payloads.size()));
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      if (state->pending.size() < options_.max_pending_frames) {
        state->pending.emplace(first_index + i, std::move(payloads[i]));
      }
    }
    MaybeRequestCatchUp(log_id, state);
    return;
  }
  // The message covers the cursor: apply the part past it.
  const std::size_t dup = static_cast<std::size_t>(next - first_index);
  if (dup > 0) {
    Count("wal.repl.dup_frames", static_cast<std::int64_t>(dup));
  }
  const std::vector<std::string_view> fresh(payloads.begin() + static_cast<std::ptrdiff_t>(dup),
                                            payloads.end());
  if (!Apply(state, fresh)) {
    return;
  }
  Drain(state);
  SendAck(log_id, state->log->next_index());
}

void CatchUpSyncer::OnResyncFiles(const std::string& log_id,
                                  std::vector<std::pair<std::string, std::string>> files) {
  if (crashed_) {
    return;
  }
  LogState& state = logs_[log_id];
  state.log.reset();  // Close our handle before rewriting the directory.
  const std::string dir = root_dir_ + "/" + log_id;
  common::Status status = vfs_->CreateDirs(dir);
  if (!status.ok()) {
    NoteFailure(status);
    return;
  }
  auto existing = vfs_->ListDir(dir);
  if (!existing.ok()) {
    NoteFailure(existing.status());
    return;
  }
  for (const std::string& name : existing.value()) {
    status = vfs_->Remove(dir + "/" + name);
    if (!status.ok()) {
      NoteFailure(status);
      return;
    }
  }
  for (auto& [name, contents] : files) {
    auto file = vfs_->OpenAppend(dir + "/" + name);
    if (!file.ok()) {
      NoteFailure(file.status());
      return;
    }
    status = file.value()->Append(contents);
    if (status.ok()) {
      status = file.value()->Sync();
    }
    if (status.ok()) {
      status = file.value()->Close();
    }
    if (!status.ok()) {
      NoteFailure(status);
      return;
    }
  }
  state.pending.clear();
  state.last_catch_up_request = -1;
  auto opened =
      Log::Open(vfs_, dir, options_.log_options(log_id), metrics_, NoopReplay);
  if (!opened.ok()) {
    NoteFailure(opened.status());
    return;
  }
  state.log = std::move(opened.value());
  Count("wal.repl.force_resyncs");
  SendAck(log_id, state.log->next_index());
}

void CatchUpSyncer::Crash() {
  crashed_ = true;
  for (auto& [id, state] : logs_) {
    state.log.reset();  // Handles die with the process; the ids survive here.
    state.pending.clear();
    state.last_catch_up_request = -1;
  }
}

common::Status CatchUpSyncer::Restart() {
  crashed_ = false;
  status_ = common::Status::Ok();
  for (auto& [id, state] : logs_) {
    auto opened = Log::Open(vfs_, root_dir_ + "/" + id, options_.log_options(id), metrics_,
                            NoopReplay);
    if (!opened.ok()) {
      NoteFailure(opened.status());
      return opened.status();
    }
    state.log = std::move(opened.value());
  }
  if (leader_ != nullptr) {
    leader_->SyncFollower(this);  // Synchronous control plane; data streams over net.
  }
  return common::Status::Ok();
}

void CatchUpSyncer::ReleaseLogs() {
  for (auto& [id, state] : logs_) {
    state.log.reset();
    state.pending.clear();
    state.last_catch_up_request = -1;
  }
}

std::uint64_t CatchUpSyncer::DurableNextIndex(const std::string& log_id) {
  if (crashed_) {
    return 0;
  }
  LogState* state = GetOrOpenLog(log_id);
  return state == nullptr ? 0 : state->log->next_index();
}

std::uint64_t CatchUpSyncer::TotalNextIndex() const {
  std::uint64_t total = 0;
  for (const auto& [id, state] : logs_) {
    if (state.log != nullptr) {
      total += state.log->next_index();
    }
  }
  return total;
}

std::vector<std::string> CatchUpSyncer::log_ids() const {
  std::vector<std::string> ids;
  ids.reserve(logs_.size());
  for (const auto& [id, state] : logs_) {
    ids.push_back(id);
  }
  return ids;
}

}  // namespace replication
}  // namespace wal
