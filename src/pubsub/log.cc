#include "pubsub/log.h"

#include <unordered_map>

namespace pubsub {

std::uint64_t PartitionLog::Compact(common::TimeMicros horizon) {
  // Kafka semantics: among messages older than the horizon, a record survives
  // only if it is the newest record for its key *in the entire log* — a
  // pre-horizon copy shadowed by any later record (before or after the
  // horizon) is dropped. Scan the whole log for the newest offset per key.
  std::unordered_map<common::Key, Offset> newest_offset;
  bool any_old = false;
  for (const StoredMessage& m : log_) {
    newest_offset[m.message.key] = m.offset;
    any_old = any_old || m.message.publish_time < horizon;
  }
  last_compaction_horizon_ = std::max(last_compaction_horizon_, horizon);
  compact_end_offset_ = next_offset_;
  std::uint64_t removed = 0;
  if (any_old) {
    std::deque<StoredMessage> kept;
    for (StoredMessage& m : log_) {
      if (m.message.publish_time >= horizon || newest_offset[m.message.key] == m.offset) {
        kept.push_back(std::move(m));
      } else {
        ++removed;
      }
    }
    log_ = std::move(kept);
    compacted_away_ += removed;
  }
  // Fire even when nothing was removed: the pass still advanced the
  // compaction bookkeeping the invariant oracle reads, and a journal must
  // replay that. Compaction is deterministic given log state and horizon, so
  // the journaled record only needs the horizon.
  if (retention_cb_) {
    retention_cb_(RetentionEvent{RetentionEvent::Kind::kCompact, horizon, first_offset(), removed});
  }
  return removed;
}

Offset PartitionLog::OffsetAtOrAfter(common::TimeMicros timestamp) const {
  // Publish times are monotonic in offset order (they are stamped with the
  // broker's simulated clock at append), so the first retained message at or
  // after `timestamp` is the answer — no copy, no full scan past the match.
  for (const StoredMessage& m : log_) {
    if (m.message.publish_time >= timestamp) {
      return m.offset;
    }
  }
  return end_offset();
}

}  // namespace pubsub
