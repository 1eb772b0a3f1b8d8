// WalShipper: the leader half of WAL replication.
//
// Track() attaches the shipper to a leader wal::Log via its append observer,
// so every durable append batch is immediately shipped — as one (log_id,
// first index, payloads) message per follower — over the sim network. A
// follower that falls behind (joined late, restarted, dropped frames across
// a partition) requests a catch-up stream: the shipper opens a pinned
// LogReader at the follower's cursor (pinning is what keeps prefix GC from
// reclaiming the segment mid-stream) and pumps bounded bursts of frames, one
// message per burst, until the reader reaches the log's end, at which point
// live-tail shipping resumes seamlessly. If the requested cursor is already below the leader's
// oldest retained record — GC outran the follower — the shipper answers with
// a force-resync snapshot of the whole segment directory instead.
//
// Ack accounting: followers ack their durable cursor once per applied
// message. QuorumAckedNext() reports the highest index durable on a majority
// of the replication_factor copies (leader included) — the prefix a
// quorum-mode failover must preserve. Acks are accounting only; the leader
// never blocks an append on them (publishes stay fire-and-forget, matching
// the broker's model).
//
// Lifetimes: followers must outlive the shipper or have their node taken
// down first (in-flight frame closures hold follower pointers; the network
// drops deliveries to down nodes). The shipper must be destroyed — or
// Detach()ed — before the leader logs it tracks.
#ifndef SRC_WAL_REPLICATION_WAL_SHIPPER_H_
#define SRC_WAL_REPLICATION_WAL_SHIPPER_H_

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
#include "sim/network.h"
#include "wal/log.h"
#include "wal/replication/options.h"

namespace wal {
namespace replication {

class CatchUpSyncer;

class WalShipper {
 public:
  WalShipper(sim::Simulator* sim, sim::Network* net, sim::NodeId node,
             common::MetricsRegistry* metrics, ReplicationOptions options);
  ~WalShipper();

  WalShipper(const WalShipper&) = delete;
  WalShipper& operator=(const WalShipper&) = delete;

  // Starts replicating `log` (which must already be durable through
  // sync_every_append) under the stable id `log_id`, and brings every
  // registered follower's copy up to date.
  void Track(const std::string& log_id, Log* log);

  // Registers a follower and syncs each tracked log to it.
  void AddFollower(CatchUpSyncer* follower);

  // Compares the follower's durable cursor against the leader for every
  // tracked log: behind → catch-up stream; ahead (it outlived a previous
  // leader that acked more) → force-resync. Also used on Restart().
  void SyncFollower(CatchUpSyncer* follower);

  // Detaches from all tracked logs and closes catch-up streams. Must run
  // before the tracked logs are destroyed; the destructor calls it.
  void Detach();

  // -- Transport entry points (run as delivered network closures) --------------

  void OnAck(const sim::NodeId& follower, const std::string& log_id, std::uint64_t next);
  void OnCatchUpRequest(const sim::NodeId& follower, const std::string& log_id,
                        std::uint64_t from);

  // -- Accounting --------------------------------------------------------------

  // Highest index durable on a majority of replication_factor copies for one
  // log (the leader's own next_index when quorum is 1).
  std::uint64_t QuorumAckedNext(const std::string& log_id) const;
  // Same, for every tracked log.
  std::map<std::string, std::uint64_t> QuorumAckedNextAll() const;

  const sim::NodeId& node() const { return node_; }
  std::vector<std::string> log_ids() const;

 private:
  struct FollowerState {
    CatchUpSyncer* syncer = nullptr;
    std::map<std::string, std::uint64_t> acked;  // Durable cursor per log id.
  };

  struct Stream {
    std::unique_ptr<LogReader> reader;  // Pins leader segments while open.
  };

  void ShipRun(const std::string& log_id, std::uint64_t first_index,
               std::span<const std::string_view> payloads);
  void SendRun(CatchUpSyncer* follower, const std::string& log_id, std::uint64_t first_index,
               std::vector<std::string> payloads);
  void SyncLog(FollowerState* follower, const std::string& log_id, Log* log);
  void StartStream(const sim::NodeId& follower, const std::string& log_id, Log* log,
                   std::uint64_t from);
  void PumpStream(const sim::NodeId& follower, const std::string& log_id);
  void ForceResync(CatchUpSyncer* follower, const std::string& log_id, Log* log);
  void Count(const char* name, std::int64_t delta = 1);

  sim::Simulator* sim_;
  sim::Network* net_;
  sim::NodeId node_;
  common::MetricsRegistry* metrics_;
  ReplicationOptions options_;
  // Counters bumped per message, resolved once (nullptr without metrics).
  common::Counter* frames_shipped_ = nullptr;
  common::Counter* acks_ = nullptr;

  std::map<std::string, Log*> logs_;
  std::map<sim::NodeId, FollowerState> followers_;
  // Open catch-up streams by (follower node, log id). While a stream is
  // open, live-tail frames for that pair are suppressed — the stream's
  // reader will deliver them in order.
  std::map<std::pair<sim::NodeId, std::string>, Stream> streams_;
  // Guards self-scheduled pump events across destruction.
  std::shared_ptr<bool> alive_;
};

}  // namespace replication
}  // namespace wal

#endif  // SRC_WAL_REPLICATION_WAL_SHIPPER_H_
