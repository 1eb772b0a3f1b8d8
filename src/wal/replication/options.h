// Shared configuration for the WAL replication subsystem (leader WalShipper,
// follower CatchUpSyncer, FailoverController). See docs/WAL.md §Replication.
#ifndef SRC_WAL_REPLICATION_OPTIONS_H_
#define SRC_WAL_REPLICATION_OPTIONS_H_

#include <cstddef>
#include <functional>
#include <string>

#include "wal/log.h"

namespace wal {
namespace replication {

// When is a record "acked" for durability accounting?
//   kLeaderOnly — durable on the leader's WAL alone. Cheap, but a leader
//     crash loses the suffix not yet shipped/applied at a follower; the
//     failover bench measures (and reports) exactly that loss.
//   kQuorum — durable on a majority of the replication_factor copies
//     (leader included). A promoted follower then always retains every
//     quorum-acked record: the most caught-up follower is at least as long
//     as the (quorum-1)-th most caught-up one.
enum class AckMode {
  kLeaderOnly,
  kQuorum,
};

struct ReplicationOptions {
  // Total number of copies, leader included. 1 disables replication.
  std::size_t replication_factor = 2;
  AckMode ack_mode = AckMode::kQuorum;
  // Bound on a follower's out-of-order frame stash per log; overflow frames
  // are dropped (the catch-up stream re-delivers them).
  std::size_t max_pending_frames = 1024;
  // LogOptions for a follower's copy of the log with this id ("meta",
  // "t-<topic>/p-<N>"). Should match the leader's options for the same log so
  // promotion hands BrokerJournal::Open a familiarly-shaped directory.
  // Leader logs must run with sync_every_append: the shipper observes appends
  // that are already durable, and force-resync reads segment files assuming
  // their tail is on "disk".
  std::function<LogOptions(const std::string& id)> log_options =
      [](const std::string&) { return LogOptions{}; };
};

}  // namespace replication
}  // namespace wal

#endif  // SRC_WAL_REPLICATION_OPTIONS_H_
