// PartitionJournal: WAL-backed durability for one pubsub::PartitionLog.
//
// The journal is an op log, not a state snapshot: every Append / trim /
// Compact the partition performs is mirrored as a journaled record (via the
// PartitionLog callbacks), and recovery replays the records in order through
// the silent Restore* APIs. An append run is journaled as one wal batch: one
// record per message, one write per segment touched, one sync. Re-executing
// the ops reproduces the partition's state *including* its harness
// accounting (gced / compacted_away and the compaction bookkeeping the
// invariant oracle reads), which is what lets an unmodified oracle pass
// against a recovered stack.
//
// Record types (u8 tag + little-endian fields):
//   kAppend   offset, key, value, publish_time        — one published message
//   kTrim     first_offset                            — retention GC / size cap
//   kCompact  horizon                                 — deterministic re-run
//   kSnapshot first/next offsets + counters/horizons  — supersedes older marks
//
// Segment GC mirrors PartitionLog retention: once every append in a sealed
// wal segment is below the partition's first retained offset, the segment as
// a whole is droppable. Before dropping, a fresh kSnapshot record is written
// and synced — it supersedes any trim/compact marks living in the dropped
// segments, and replay uses it to fast-forward counters. Only a *prefix* of
// sealed segments is ever dropped, so an append that is still retained can
// never be lost (its segment blocks the prefix).
//
// Write failures inside callbacks cannot propagate a Status, so the journal
// goes loudly sticky instead: status() returns the first failure and
// `wal.journal.append_errors` counts them. Harnesses assert status().ok().
#ifndef SRC_WAL_PARTITION_JOURNAL_H_
#define SRC_WAL_PARTITION_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "pubsub/log.h"
#include "wal/log.h"

namespace wal {

struct PartitionJournalOptions {
  LogOptions log;
};

class PartitionJournal {
 public:
  // Opens the journal at `dir`, replays any existing records into `log`
  // (which must be freshly constructed), then attaches the journal as the
  // log's append/retention callbacks. `metrics` may be nullptr.
  static common::Result<std::unique_ptr<PartitionJournal>> Open(
      Vfs* vfs, std::string dir, PartitionJournalOptions options,
      common::MetricsRegistry* metrics, pubsub::PartitionLog* log);

  ~PartitionJournal();

  PartitionJournal(const PartitionJournal&) = delete;
  PartitionJournal& operator=(const PartitionJournal&) = delete;

  // Writes a kSnapshot record and drops the sealed-segment prefix whose
  // appends are all below the partition's first retained offset. No-op (and
  // no snapshot spam) when nothing is droppable. Runs after every retention
  // event.
  common::Status GcSegments();

  // Sticky first write failure (Ok while healthy).
  common::Status status() const { return status_; }

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  Log& wal_log() { return *wal_; }

  // Encodes one append record into `*record` from borrowed spans — the
  // journal's wire form never needs an owned Message, so span-staged publish
  // paths (and OnAppend itself, viewing a StoredMessage) share one encoder.
  // `headers` may be nullptr or empty; the trailing block is then omitted.
  static void EncodeAppend(std::string* record, pubsub::Offset offset, std::string_view key,
                           std::string_view value, common::TimeMicros publish_time,
                           const pubsub::Headers* headers);

 private:
  PartitionJournal(Vfs* vfs, PartitionJournalOptions options, common::MetricsRegistry* metrics,
                   pubsub::PartitionLog* log);

  common::Status Replay(std::uint64_t index, std::string_view payload);
  void OnAppend(pubsub::PartitionLog::Run run);
  void OnRetention(const pubsub::RetentionEvent& event);
  void NoteFailure(const common::Status& status);

  Vfs* vfs_;
  PartitionJournalOptions options_;
  common::MetricsRegistry* metrics_;
  pubsub::PartitionLog* log_;
  std::unique_ptr<Log> wal_;
  common::Status status_;
  RecoveryStats recovery_stats_;
  // Verdict of the most recent kSnapshot record's consistency check. A
  // *stale* snapshot (one superseded by a later GC round) may legitimately
  // disagree with replay — the later round dropped wal segments holding
  // appends that were still retained when the stale snapshot was written —
  // so only the verdict of the last snapshot can fail Open.
  common::Status last_snapshot_check_;

  // Highest message offset appended per wal segment (keyed by the segment's
  // first record index); segments holding only marks have no entry. This is
  // what decides segment droppability, so a run that crosses a rotation
  // updates every segment it touched.
  std::map<std::uint64_t, pubsub::Offset> segment_max_offset_;
  // Replay-time staging for rebuilding segment_max_offset_ (segment
  // boundaries are only known once Open finishes).
  std::vector<std::pair<std::uint64_t, pubsub::Offset>> replay_appends_;
};

}  // namespace wal

#endif  // SRC_WAL_PARTITION_JOURNAL_H_
