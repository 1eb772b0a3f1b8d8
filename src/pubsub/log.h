// PartitionLog: one partition's durable, offset-addressed message log, with
// the two head-trimming behaviours the paper analyzes:
//
//  * retention GC — messages older than the retention period (or beyond the
//    size cap) are dropped entirely; and
//  * compaction — messages older than the compaction window keep only the
//    latest version per key.
//
// Crucially (Section 3.1), a reader positioned below the first retained
// offset is silently repositioned to the earliest retained message — exactly
// Kafka's `auto.offset.reset=earliest` — and nothing in the consumer-visible
// API reports how many messages were skipped. The log *does* track the skip
// internally so experiments can count the loss the application cannot see.
#ifndef SRC_PUBSUB_LOG_H_
#define SRC_PUBSUB_LOG_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "pubsub/filter.h"
#include "pubsub/types.h"

namespace pubsub {

// Fired whenever retained history shrinks, so a durability layer can mirror
// the exact trim/compact decision into its journal. `first_offset` is the
// post-event first retained offset.
struct RetentionEvent {
  enum class Kind { kGcBefore, kSizeCap, kCompact };
  Kind kind;
  common::TimeMicros horizon = 0;  // kGcBefore / kCompact only.
  Offset first_offset = 0;
  std::uint64_t removed = 0;
};

class PartitionLog {
 public:
  // The records of one append run, at consecutive offsets.
  using Run = std::ranges::subrange<std::deque<StoredMessage>::const_iterator>;
  using AppendCallback = std::function<void(Run)>;
  using RetentionCallback = std::function<void(const RetentionEvent&)>;

  explicit PartitionLog(RetentionPolicy policy) : policy_(policy) {}

  // Observation hooks for the WAL journal. The append callback fires once
  // per run, before the size-cap trim the run may trigger, so a journal sees
  // the op order exactly as it happened. Not fired by the Restore* replay
  // APIs.
  void set_append_callback(AppendCallback cb) { append_cb_ = std::move(cb); }
  void set_retention_callback(RetentionCallback cb) { retention_cb_ = std::move(cb); }

  // Appends `run` (moved from) at consecutive offsets and returns the first.
  // The append callback sees the whole run, then the size cap is enforced
  // once.
  Offset AppendRun(std::span<Message> run) {
    const Offset first = next_offset_;
    for (Message& msg : run) {
      log_.push_back(StoredMessage{next_offset_++, std::move(msg)});
    }
    if (append_cb_ && !run.empty()) {
      append_cb_(Run(log_.cend() - static_cast<std::ptrdiff_t>(run.size()), log_.cend()));
    }
    EnforceSizeCap();
    return first;
  }

  // Appends one message: a run of one.
  Offset Append(Message msg) { return AppendRun(std::span<Message>(&msg, 1)); }

  // First offset still present (== end_offset() when empty after GC).
  Offset first_offset() const { return log_.empty() ? next_offset_ : log_.front().offset; }
  // One past the last appended offset.
  Offset end_offset() const { return next_offset_; }
  std::size_t size() const { return log_.size(); }

  // What one Read did: records appended, records examined, and the resume
  // cursor.
  struct ReadResult {
    std::size_t matched = 0;
    std::uint64_t scanned = 0;
    // One past the last record examined (end_offset() once the read reached
    // the live edge), never below `from`: a filter matching nothing, or a
    // cursor below a log retention emptied, still makes progress.
    Offset next = 0;
  };

  // The log's one read. Scans forward from `from`, appending records that
  // match `filter` (nullptr: every record) into `*out` (not cleared, so a
  // hot poller reuses its capacity), until `max` records are appended,
  // `max_scan` records have been examined, or the log ends (0: no bound).
  // If `from` precedes the first retained offset, the read silently resumes
  // at the earliest retained record (Kafka's reset behaviour); the reader
  // cannot observe the skip, but the harness can, through silent_skips().
  ReadResult Read(Offset from, std::size_t max, std::size_t max_scan, const Filter* filter,
                  std::vector<StoredMessage>* out) const {
    // Offsets are sorted but not dense (compaction leaves gaps), so position
    // by binary search rather than scanning from the retained head: a pump
    // fetching small batches per wakeup would otherwise pay O(retained log)
    // per fetch.
    auto it = std::lower_bound(
        log_.begin(), log_.end(), from,
        [](const StoredMessage& m, Offset offset) { return m.offset < offset; });
    const Offset head = it == log_.end() ? next_offset_ : it->offset;
    if (head > from) {
      silent_skips_ += head - from;  // Invisible to the reader; the harness counts it.
    }
    ReadResult r;
    for (; it != log_.end() && (max == 0 || r.matched < max) &&
           (max_scan == 0 || r.scanned < max_scan);
         ++it) {
      ++r.scanned;
      r.next = it->offset + 1;
      if (filter == nullptr || filter->Matches(it->message)) {
        out->push_back(*it);
        ++r.matched;
      }
    }
    if (it == log_.end()) {
      r.next = std::max(from, next_offset_);
    }
    return r;
  }

  // Time-based retention: drops messages published before `horizon`.
  // Returns the number of messages garbage collected.
  std::uint64_t GcBefore(common::TimeMicros horizon) {
    std::uint64_t dropped = 0;
    while (!log_.empty() && log_.front().message.publish_time < horizon) {
      log_.pop_front();
      ++dropped;
    }
    gced_ += dropped;
    if (dropped > 0 && retention_cb_) {
      retention_cb_(RetentionEvent{RetentionEvent::Kind::kGcBefore, horizon, first_offset(), dropped});
    }
    return dropped;
  }

  // Compaction: for messages published before `horizon`, keeps only the
  // newest record per key across the whole log (Kafka semantics: a pre-horizon
  // copy shadowed by any later record is dropped; messages at/after the
  // horizon keep every version). Returns the number of messages removed.
  // Offsets of surviving messages are unchanged, so the log acquires offset
  // gaps — indistinguishable, to a reader, from normal consumption.
  std::uint64_t Compact(common::TimeMicros horizon);

  // First retained offset whose publish time is >= `timestamp`, or
  // end_offset() if every retained message is older. Publish times are
  // monotonic in offset order, so this is the seek-to-time target.
  Offset OffsetAtOrAfter(common::TimeMicros timestamp) const;

  // Harness-only accounting (not part of the consumer-visible API).
  std::uint64_t gced() const { return gced_; }
  std::uint64_t compacted_away() const { return compacted_away_; }
  std::uint64_t silent_skips() const { return silent_skips_; }

  // Harness-only introspection for the invariant oracle: the retained
  // messages, the highest horizon Compact has been run with, and the log end
  // offset as of that compaction (records appended later may legitimately
  // shadow pre-horizon survivors until the next compaction pass).
  const std::deque<StoredMessage>& entries() const { return log_; }
  common::TimeMicros last_compaction_horizon() const { return last_compaction_horizon_; }
  Offset compact_end_offset() const { return compact_end_offset_; }

  // -- Recovery-only replay APIs (see wal::PartitionJournal) -------------------
  //
  // These mutate state without firing callbacks and without enforcing the
  // size cap: during journal replay every trim is driven by a journaled
  // record, so policy must not be re-applied on top.

  // Re-applies a journaled append. Offsets arrive in append order.
  void RestoreAppend(Offset offset, Message msg) {
    log_.push_back(StoredMessage{offset, std::move(msg)});
    next_offset_ = offset + 1;
  }

  // Drops retained messages with offset < `first` (counted into gced_). If
  // `first` is beyond end_offset() — every append up to it was dropped with
  // its wal segment — the log advances to start empty at `first`.
  std::uint64_t TrimTo(Offset first) {
    std::uint64_t dropped = 0;
    while (!log_.empty() && log_.front().offset < first) {
      log_.pop_front();
      ++dropped;
    }
    gced_ += dropped;
    if (first > next_offset_) {
      next_offset_ = first;
    }
    return dropped;
  }

  // Overwrites harness accounting and compaction bookkeeping with
  // snapshot-record values, superseding whatever partial replay accumulated.
  void RestoreAccounting(std::uint64_t gced, std::uint64_t compacted_away,
                         std::uint64_t silent_skips, common::TimeMicros last_compaction_horizon,
                         Offset compact_end_offset) {
    gced_ = gced;
    compacted_away_ = compacted_away;
    silent_skips_ = silent_skips;
    last_compaction_horizon_ = last_compaction_horizon;
    compact_end_offset_ = compact_end_offset;
  }

 private:
  void EnforceSizeCap() {
    if (policy_.max_messages == 0) {
      return;
    }
    std::uint64_t dropped = 0;
    while (log_.size() > policy_.max_messages) {
      log_.pop_front();
      ++gced_;
      ++dropped;
    }
    if (dropped > 0 && retention_cb_) {
      retention_cb_(RetentionEvent{RetentionEvent::Kind::kSizeCap, 0, first_offset(), dropped});
    }
  }

  RetentionPolicy policy_;
  std::deque<StoredMessage> log_;
  Offset next_offset_ = 0;
  std::uint64_t gced_ = 0;
  std::uint64_t compacted_away_ = 0;
  mutable std::uint64_t silent_skips_ = 0;
  common::TimeMicros last_compaction_horizon_ = 0;
  Offset compact_end_offset_ = 0;
  AppendCallback append_cb_;
  RetentionCallback retention_cb_;
};

}  // namespace pubsub

#endif  // SRC_PUBSUB_LOG_H_
