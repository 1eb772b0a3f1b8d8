// CatchUpSyncer: the follower half of WAL replication.
//
// A follower holds its own copy of every replicated wal::Log under
// `<root_dir>/<log_id>`. Frames arrive from the leader's WalShipper over the
// sim network, one message per leader append batch or catch-up burst. The
// part of a message at or past the follower's durable cursor (its log's
// next_index — the WAL itself is the replication cursor, there is no separate
// cursor file to desync) is appended as one batch and acked once. A message
// that starts past the cursor is stashed frame by frame (bounded) and a
// catch-up stream is requested from the leader; if the leader's prefix GC
// has already reclaimed the requested range, the leader answers with a
// force-resync — a byte-for-byte segment-file snapshot that replaces the
// follower's copy wholesale.
//
// Crash()/Restart() model a follower process crash: handles drop, stashes
// clear, and Restart reopens the logs from the (possibly torn) on-disk state
// — Log::Open truncates the torn tail, the cursor falls back to the last
// durable record, and the leader re-streams from there.
//
// Control plane vs data plane: every frame, ack, catch-up request, and
// resync snapshot crosses the sim network (latency, reorder, partition,
// drop). Membership operations (ConnectLeader, SyncFollower's cursor probe,
// Restart's re-sync) are modeled as synchronous calls — the sim runs one
// event at a time, so this is safe and keeps the protocol small.
#ifndef SRC_WAL_REPLICATION_CATCH_UP_SYNCER_H_
#define SRC_WAL_REPLICATION_CATCH_UP_SYNCER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/network.h"
#include "wal/log.h"
#include "wal/replication/options.h"
#include "wal/vfs.h"

namespace wal {
namespace replication {

class WalShipper;

class CatchUpSyncer {
 public:
  CatchUpSyncer(sim::Simulator* sim, sim::Network* net, sim::NodeId node, Vfs* vfs,
                std::string root_dir, common::MetricsRegistry* metrics,
                ReplicationOptions options);
  ~CatchUpSyncer();

  CatchUpSyncer(const CatchUpSyncer&) = delete;
  CatchUpSyncer& operator=(const CatchUpSyncer&) = delete;

  // -- Membership (synchronous control plane) ----------------------------------

  void ConnectLeader(WalShipper* shipper, sim::NodeId leader_node);
  void DetachLeader();

  // -- Transport entry points (run as delivered network closures) --------------

  // Frames first_index, first_index + 1, ... of `log_id`.
  void OnFrames(const std::string& log_id, std::uint64_t first_index,
                std::vector<std::string> payloads);
  // Force-resync: replaces the follower's copy of `log_id` with the given
  // (file name, contents) segment snapshot, then reopens and acks.
  void OnResyncFiles(const std::string& log_id,
                     std::vector<std::pair<std::string, std::string>> files);

  // -- Lifecycle ---------------------------------------------------------------

  // Process crash: drops log handles and volatile stashes. The caller is
  // responsible for the storage-level crash (FaultVfs::Crash) and for taking
  // the node down in the network.
  void Crash();
  // Reopens every known log from disk (torn tails truncate) and asks the
  // leader, if any, to re-sync. Caller restarts the Vfs / network first.
  common::Status Restart();
  // Releases every open log handle without forgetting the ids — the
  // promotion hand-off, after which BrokerJournal::Open owns the directory.
  void ReleaseLogs();

  // -- Introspection -----------------------------------------------------------

  // Durable cursor for one log, opening it from disk if needed (0 on error).
  std::uint64_t DurableNextIndex(const std::string& log_id);
  // Sum of cursors across known logs — the promotion fitness score.
  std::uint64_t TotalNextIndex() const;
  std::vector<std::string> log_ids() const;
  const sim::NodeId& node() const { return node_; }
  const std::string& root_dir() const { return root_dir_; }
  bool crashed() const { return crashed_; }
  // Sticky first local-append/reopen failure.
  common::Status status() const { return status_; }

 private:
  struct LogState {
    std::unique_ptr<Log> log;
    // Out-of-order frames by index, waiting for the gap to fill.
    std::map<std::uint64_t, std::string> pending;
    common::TimeMicros last_catch_up_request = -1;
  };

  LogState* GetOrOpenLog(const std::string& log_id);
  // Appends `payloads` at the cursor as one batch; false on failure.
  bool Apply(LogState* state, std::span<const std::string_view> payloads);
  void Drain(LogState* state);
  void SendAck(const std::string& log_id, std::uint64_t next);
  void MaybeRequestCatchUp(const std::string& log_id, LogState* state);
  void NoteFailure(const common::Status& status);
  void Count(const char* name, std::int64_t delta = 1);

  sim::Simulator* sim_;
  sim::Network* net_;
  sim::NodeId node_;
  Vfs* vfs_;
  std::string root_dir_;
  common::MetricsRegistry* metrics_;
  ReplicationOptions options_;
  // Counters bumped per message, resolved once (nullptr without metrics).
  common::Counter* frames_applied_ = nullptr;
  common::Counter* acks_sent_ = nullptr;

  WalShipper* leader_ = nullptr;
  sim::NodeId leader_node_;
  std::map<std::string, LogState> logs_;
  bool crashed_ = false;
  common::Status status_;
};

}  // namespace replication
}  // namespace wal

#endif  // SRC_WAL_REPLICATION_CATCH_UP_SYNCER_H_
