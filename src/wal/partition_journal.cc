#include "wal/partition_journal.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "wal/record_codec.h"

namespace wal {

namespace {

enum RecordType : std::uint8_t {
  kAppend = 1,
  kTrim = 2,
  kCompact = 3,
  kSnapshot = 4,
};

common::Status BadRecord(const char* what) {
  return common::Status::Internal(std::string("malformed partition journal record: ") + what);
}

}  // namespace

PartitionJournal::PartitionJournal(Vfs* vfs, PartitionJournalOptions options,
                                   common::MetricsRegistry* metrics, pubsub::PartitionLog* log)
    : vfs_(vfs), options_(options), metrics_(metrics), log_(log) {}

PartitionJournal::~PartitionJournal() {
  if (log_ != nullptr) {
    log_->set_append_callback(nullptr);
    log_->set_retention_callback(nullptr);
  }
}

common::Result<std::unique_ptr<PartitionJournal>> PartitionJournal::Open(
    Vfs* vfs, std::string dir, PartitionJournalOptions options, common::MetricsRegistry* metrics,
    pubsub::PartitionLog* log) {
  std::unique_ptr<PartitionJournal> journal(new PartitionJournal(vfs, options, metrics, log));
  auto opened = Log::Open(
      vfs, std::move(dir), options.log, metrics,
      [&journal](std::uint64_t index, std::string_view payload) {
        return journal->Replay(index, payload);
      },
      &journal->recovery_stats_);
  if (!opened.ok()) {
    return opened.status();
  }
  if (!journal->last_snapshot_check_.ok()) {
    // The final (authoritative) snapshot disagreed with replay: retained
    // segments are missing. Never silently absorb that.
    return journal->last_snapshot_check_;
  }
  journal->wal_ = std::move(opened.value());

  // Fold the replayed appends into per-segment maxima now that segment
  // boundaries are known.
  for (const SegmentInfo& seg : journal->wal_->Segments()) {
    for (const auto& [index, offset] : journal->replay_appends_) {
      if (index >= seg.first_index && index < seg.end_index) {
        auto [it, inserted] = journal->segment_max_offset_.try_emplace(seg.first_index, offset);
        if (!inserted && offset > it->second) {
          it->second = offset;
        }
      }
    }
  }
  journal->replay_appends_.clear();
  journal->replay_appends_.shrink_to_fit();

  log->set_append_callback(
      [j = journal.get()](pubsub::PartitionLog::Run run) { j->OnAppend(run); });
  log->set_retention_callback(
      [j = journal.get()](const pubsub::RetentionEvent& event) { j->OnRetention(event); });
  return journal;
}

common::Status PartitionJournal::Replay(std::uint64_t index, std::string_view payload) {
  RecordReader reader(payload);
  std::uint8_t tag = 0;
  if (!reader.ReadU8(&tag)) {
    return BadRecord("empty payload");
  }
  switch (tag) {
    case kAppend: {
      std::uint64_t offset = 0;
      pubsub::Message msg;
      if (!reader.ReadU64(&offset) || !reader.ReadBytes(&msg.key) ||
          !reader.ReadBytes(&msg.value) || !reader.ReadI64(&msg.publish_time)) {
        return BadRecord("append");
      }
      // Record headers ride as an optional trailing block: absent in
      // journals written before filtered subscriptions (and for records with
      // no headers), so old journals replay with empty headers.
      if (!reader.Done()) {
        std::uint32_t n = 0;
        if (!reader.ReadU32(&n)) {
          return BadRecord("append");
        }
        msg.headers.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          std::string name;
          std::string value;
          if (!reader.ReadBytes(&name) || !reader.ReadBytes(&value)) {
            return BadRecord("append");
          }
          msg.headers.emplace_back(std::move(name), std::move(value));
        }
      }
      if (!reader.Done()) {
        return BadRecord("append");
      }
      log_->RestoreAppend(offset, std::move(msg));
      replay_appends_.emplace_back(index, offset);
      return common::Status::Ok();
    }
    case kTrim: {
      std::uint64_t first = 0;
      if (!reader.ReadU64(&first) || !reader.Done()) {
        return BadRecord("trim");
      }
      log_->TrimTo(first);
      return common::Status::Ok();
    }
    case kCompact: {
      std::int64_t horizon = 0;
      if (!reader.ReadI64(&horizon) || !reader.Done()) {
        return BadRecord("compact");
      }
      // Compaction is deterministic given log state + horizon, so re-running
      // it reproduces the original removals and bookkeeping. No callbacks
      // are attached during replay, so nothing is re-journaled.
      log_->Compact(horizon);
      return common::Status::Ok();
    }
    case kSnapshot: {
      std::uint64_t first = 0;
      std::uint64_t next = 0;
      std::uint64_t gced = 0;
      std::uint64_t compacted = 0;
      std::uint64_t skips = 0;
      std::int64_t horizon = 0;
      std::uint64_t compact_end = 0;
      if (!reader.ReadU64(&first) || !reader.ReadU64(&next) || !reader.ReadU64(&gced) ||
          !reader.ReadU64(&compacted) || !reader.ReadU64(&skips) || !reader.ReadI64(&horizon) ||
          !reader.ReadU64(&compact_end) || !reader.Done()) {
        return BadRecord("snapshot");
      }
      log_->TrimTo(first);
      // At the instant this snapshot was written the log held exactly
      // [first, next); segment GC never drops an append that was retained at
      // snapshot time, so replay of an intact wal reproduces both bounds
      // here. A mismatch therefore means retained segments went missing —
      // unless a *later* GC round superseded this snapshot (its own rounds
      // legitimately dropped some of these appends), which is why the
      // verdict is deferred: only the last snapshot's check gates Open.
      if (log_->end_offset() != next) {
        last_snapshot_check_ = common::Status::Internal(
            "partition journal snapshot expects end offset " + std::to_string(next) +
            " but replay reached " + std::to_string(log_->end_offset()));
      } else if (log_->first_offset() != first) {
        // Catches loss of the segments holding the earliest retained appends
        // when later ones survived (invisible to the end-offset check).
        last_snapshot_check_ = common::Status::Internal(
            "partition journal snapshot expects first retained offset " + std::to_string(first) +
            " but replay has " + std::to_string(log_->first_offset()));
      } else {
        last_snapshot_check_ = common::Status::Ok();
      }
      log_->RestoreAccounting(gced, compacted, skips, horizon, compact_end);
      return common::Status::Ok();
    }
    default:
      return BadRecord("unknown tag");
  }
}

void PartitionJournal::NoteFailure(const common::Status& status) {
  if (status_.ok()) {
    status_ = status;
  }
  if (metrics_ != nullptr) {
    metrics_->counter("wal.journal.append_errors").Increment();
  }
}

void PartitionJournal::EncodeAppend(std::string* record, pubsub::Offset offset,
                                    std::string_view key, std::string_view value,
                                    common::TimeMicros publish_time,
                                    const pubsub::Headers* headers) {
  PutU8(record, kAppend);
  PutU64(record, offset);
  PutBytes(record, key);
  PutBytes(record, value);
  PutI64(record, publish_time);
  if (headers != nullptr && !headers->empty()) {  // Trailing block; omitted when empty.
    PutU32(record, static_cast<std::uint32_t>(headers->size()));
    for (const auto& [name, val] : *headers) {
      PutBytes(record, name);
      PutBytes(record, val);
    }
  }
}

void PartitionJournal::OnAppend(pubsub::PartitionLog::Run run) {
  // One buffer holds the whole run's records; the views slice it.
  std::string encoded;
  std::vector<std::size_t> ends;
  ends.reserve(run.size());
  for (const pubsub::StoredMessage& msg : run) {
    EncodeAppend(&encoded, msg.offset, msg.message.key, msg.message.value,
                 msg.message.publish_time, &msg.message.headers);
    ends.push_back(encoded.size());
  }
  std::vector<std::string_view> records;
  records.reserve(ends.size());
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    records.emplace_back(encoded.data() + begin, end - begin);
    begin = end;
  }
  const std::uint64_t first = wal_->next_index();
  const common::Status status = wal_->AppendBatch(records).status();
  // Credit every segment the batch reached with the highest offset the run
  // left there. On error this still covers the records whose frames were
  // written: they are in the log, so they pin their segments too.
  const std::uint64_t end = wal_->next_index();
  for (const SegmentInfo& seg : wal_->Segments(first)) {
    const std::uint64_t last = std::min(seg.end_index, end);
    if (last <= std::max(seg.first_index, first)) {
      continue;  // No record of this run in the segment.
    }
    const pubsub::Offset offset = run.front().offset + (last - 1 - first);
    auto [it, inserted] = segment_max_offset_.try_emplace(seg.first_index, offset);
    if (!inserted && offset > it->second) {
      it->second = offset;
    }
  }
  if (!status.ok()) {
    NoteFailure(status);
  }
}

void PartitionJournal::OnRetention(const pubsub::RetentionEvent& event) {
  std::string record;
  if (event.kind == pubsub::RetentionEvent::Kind::kCompact) {
    PutU8(&record, kCompact);
    PutI64(&record, event.horizon);
  } else {
    PutU8(&record, kTrim);
    PutU64(&record, event.first_offset);
  }
  common::Status status = wal_->Append(record).status();
  if (status.ok()) {
    status = GcSegments();
  }
  if (!status.ok()) {
    NoteFailure(status);
  }
}

common::Status PartitionJournal::GcSegments() {
  // Droppable: the prefix of *sealed* segments whose appends (if any) are all
  // below the first retained offset.
  const pubsub::Offset first_retained = log_->first_offset();
  std::uint64_t drop_before = 0;
  bool any = false;
  for (const SegmentInfo& seg : wal_->Segments()) {
    if (!seg.sealed) {
      break;
    }
    auto it = segment_max_offset_.find(seg.first_index);
    if (it != segment_max_offset_.end() && it->second >= first_retained) {
      break;  // Holds a retained append; the prefix stops here.
    }
    drop_before = seg.end_index;
    any = true;
  }
  if (!any) {
    return common::Status::Ok();
  }

  // Snapshot first — durable before any drop — so marks living in the
  // dropped segments are superseded.
  std::string record;
  PutU8(&record, kSnapshot);
  PutU64(&record, log_->first_offset());
  PutU64(&record, log_->end_offset());
  PutU64(&record, log_->gced());
  PutU64(&record, log_->compacted_away());
  PutU64(&record, log_->silent_skips());
  PutI64(&record, log_->last_compaction_horizon());
  PutU64(&record, log_->compact_end_offset());
  RETURN_IF_ERROR(wal_->Append(record).status());
  RETURN_IF_ERROR(wal_->Sync());

  auto dropped = wal_->DropSealedSegmentsBefore(drop_before);
  if (!dropped.ok()) {
    return dropped.status();
  }
  for (auto it = segment_max_offset_.begin(); it != segment_max_offset_.end();) {
    const bool still_present = [&] {
      for (const SegmentInfo& seg : wal_->Segments()) {
        if (seg.first_index == it->first) {
          return true;
        }
      }
      return false;
    }();
    it = still_present ? std::next(it) : segment_max_offset_.erase(it);
  }
  return common::Status::Ok();
}

}  // namespace wal
