// wal::Log — a durable segmented write-ahead log of opaque records over a
// pluggable Vfs.
//
// Frame format (all integers little-endian):
//
//   [u32 masked_crc32c][u32 payload_len][u64 record_index][payload bytes]
//
// The CRC covers the record_index bytes plus the payload and is stored
// masked (common/crc32c.h) so frames whose payloads embed CRCs stay robust.
// The record_index is the global, gapless sequence number of the record; it
// is what lets recovery distinguish a duplicated tail frame (index < expected,
// a retried write) from an interior gap (index > expected, lost data).
//
// Segment lifecycle: records append to the highest-numbered segment file,
// `seg-<first_index %020llu>.wal`. When the active segment reaches
// `segment_bytes` it is synced and sealed, and the next record opens a new
// segment named by its first record index. A batch rotates at the same record
// boundaries as the same records appended one at a time; it writes the frames
// bound for each segment it touches in one file write and syncs once. Sealed
// segments are immutable and fully durable (the seal sync ran before any
// later append), so GC can drop a prefix of them wholesale via
// DropSealedSegmentsBefore once their records are superseded by a durable
// snapshot record — the caller's responsibility.
//
// Recovery (Open) replays every segment in index order and enforces:
//  * filename / first-record-index agreement and cross-segment continuity;
//  * sealed segments must be perfect — any bad CRC, truncated frame,
//    duplicate, or gap is corruption and Open fails loudly (kInternal),
//    counting `wal.recovery.rejected_segments`;
//  * the active (last) segment may end in garbage — a torn final write. The
//    tail is truncated at the first invalid frame and counted
//    (`wal.recovery.torn_tail_bytes` / `torn_tail_frames`). A frame whose
//    index is below the expected one truncates the tail the same way (a
//    replayed retry); an index above the expected one is a gap and fails
//    loudly even in the active segment;
//  * recovery never skips an interior frame: nothing after the first invalid
//    frame of the active segment is replayed, and sealed segments reject.
#ifndef SRC_WAL_LOG_H_
#define SRC_WAL_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "wal/vfs.h"

namespace wal {

struct LogOptions {
  // Rotation threshold: the active segment seals once its size reaches this.
  std::uint64_t segment_bytes = 64 * 1024;
  // Sync at the end of every append batch. The crash sweeps rely on this: an
  // acked append is durable, so recovered state can be compared against
  // acked state.
  bool sync_every_append = true;
};

struct SegmentInfo {
  std::uint64_t first_index = 0;  // Index of the segment's first record.
  std::uint64_t end_index = 0;    // One past the last record in the segment.
  std::uint64_t bytes = 0;
  bool sealed = false;
};

struct RecoveryStats {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t torn_tail_bytes = 0;   // Active-segment bytes truncated.
  std::uint64_t torn_tail_frames = 0;  // Invalid/duplicate frames dropped with them.
};

class LogReader;

class Log {
 public:
  // Called once per recovered record, in index order. A non-OK return aborts
  // recovery and fails Open.
  using ReplayFn = std::function<common::Status(std::uint64_t index, std::string_view payload)>;

  // Called after every durable append batch with the index of its first
  // record and its payloads in index order — the replication shipper's
  // live-tail hook. Runs synchronously inside AppendBatch; must not re-enter
  // the log.
  using AppendObserver =
      std::function<void(std::uint64_t first_index, std::span<const std::string_view> payloads)>;

  // Opens (creating `dir` if needed) and replays existing segments through
  // `replay`. `metrics` may be nullptr. `stats` (optional) receives recovery
  // accounting.
  static common::Result<std::unique_ptr<Log>> Open(Vfs* vfs, std::string dir, LogOptions options,
                                                   common::MetricsRegistry* metrics,
                                                   const ReplayFn& replay,
                                                   RecoveryStats* stats = nullptr);

  // Appends `payloads` as consecutive records; returns the first one's index.
  // Each segment the batch touches gets one file write, and with
  // sync_every_append the whole batch is durable on return after one Sync
  // (plus the seal sync of any segment the batch fills). On error the
  // observer is not called; records whose frames were written stay in the
  // log, as next_index() shows.
  common::Result<std::uint64_t> AppendBatch(std::span<const std::string_view> payloads);

  // Appends one record: a batch of one.
  common::Result<std::uint64_t> Append(std::string_view payload) {
    return AppendBatch(std::span<const std::string_view>(&payload, 1));
  }

  // Durability barrier for all previously appended records.
  common::Status Sync();

  // Drops the prefix of sealed segments whose records all have index <
  // `index`. Never touches the active segment. The caller must have made a
  // superseding snapshot record durable first. Segments still referenced by
  // an open LogReader are pinned: the drop point is silently clamped to the
  // slowest reader's cursor (counted as wal.gc.segments_pinned), so a
  // catch-up stream can never have its segment reclaimed underneath it.
  // Returns the number of segments removed.
  common::Result<std::uint64_t> DropSealedSegmentsBefore(std::uint64_t index);

  // Opens a sequential reader positioned at `from_index` (clamped up to the
  // oldest retained record). While a reader is open, the segments at or past
  // its cursor are pinned against DropSealedSegmentsBefore — destroy readers
  // promptly. Readers are cheap; they share the log's Vfs and never block
  // appends.
  std::unique_ptr<LogReader> OpenReader(std::uint64_t from_index);

  // Fired after every durable append batch (replication live tail). nullptr
  // clears.
  void set_append_observer(AppendObserver fn) { append_observer_ = std::move(fn); }

  // Index the next Append will assign.
  std::uint64_t next_index() const { return next_index_; }
  // Smallest record index still on disk (first segment's first record).
  std::uint64_t oldest_retained_index() const { return segments_.front().first_index; }
  // First index of the segment the next Append lands in (the active segment,
  // or the one rotation is about to create).
  std::uint64_t active_segment_first_index() const;

  // The segments not wholly below `from_index` (every segment by default),
  // oldest first.
  std::vector<SegmentInfo> Segments(std::uint64_t from_index = 0) const;

  // File name of the segment whose first record is `first_index`
  // ("seg-<index %020llu>.wal"); replication's force-resync uses it to read
  // and re-create segment files byte-for-byte.
  static std::string SegmentFileName(std::uint64_t first_index);

  const std::string& dir() const { return dir_; }
  Vfs* vfs() const { return vfs_; }

 private:
  friend class LogReader;
  struct Segment {
    std::uint64_t first_index = 0;
    std::uint64_t end_index = 0;
    std::uint64_t bytes = 0;
  };

  Log(Vfs* vfs, std::string dir, LogOptions options, common::MetricsRegistry* metrics);

  std::string SegmentPath(std::uint64_t first_index) const;
  common::Status OpenActiveForAppend();
  common::Status Rotate();
  void Count(const std::string& name, std::int64_t delta);

  Vfs* vfs_;
  std::string dir_;
  LogOptions options_;
  common::MetricsRegistry* metrics_;
  common::Counter* appends_ = nullptr;  // wal.appends, resolved once.

  std::vector<Segment> segments_;  // Ordered by first_index; back() is active.
  std::unique_ptr<WritableFile> active_file_;
  std::uint64_t next_index_ = 0;
  AppendObserver append_observer_;
  std::vector<LogReader*> readers_;  // Open readers; their cursors pin GC.
};

// Sequential record cursor over a Log. Next() yields records in index order,
// re-reading the active segment as it grows; it returns false (no record)
// once caught up with the log's end — call again after more appends. A
// cursor can only fall behind the retained prefix if it was *opened* below
// it (OpenReader clamps, but a concurrent out-of-band Remove could race);
// that surfaces loudly as kNotFound, the caller's cue to force-resync.
//
// The reader trusts no segment byte: it checks every frame it hands out as
// recovery would (whole, at the expected index, CRC matching), and bounds
// every length it seeks over by the bytes left. A frame that fails is
// refused with kInternal naming its index, and the cursor stays on it —
// the bytes on disk are corrupt, and copying them on would spread the
// corruption.
class LogReader {
 public:
  ~LogReader();

  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  // Reads the record at the cursor into *index/*payload and advances.
  // Returns true on a record, false when caught up with the log's end, and
  // kInternal (cursor unmoved) for a frame that fails its check.
  common::Result<bool> Next(std::uint64_t* index, std::string* payload);

  // Index of the record the next Next() will return.
  std::uint64_t next_index() const { return next_index_; }

 private:
  friend class Log;
  LogReader(Log* log, std::uint64_t from) : log_(log), next_index_(from) {}

  common::Status LoadSegmentContaining(std::uint64_t index);

  Log* log_;
  std::uint64_t next_index_ = 0;
  // One segment's raw bytes, cached; reloaded when the cursor leaves it or
  // the active segment has grown past the cached parse.
  bool cache_valid_ = false;
  std::uint64_t cached_first_ = 0;  // Cached segment's first record index.
  std::string cached_;
  std::size_t cached_pos_ = 0;
};

}  // namespace wal

#endif  // SRC_WAL_LOG_H_
