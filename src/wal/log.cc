#include "wal/log.h"

#include <algorithm>
#include <cstdio>

#include "wal/crc32c.h"
#include "wal/record_codec.h"

namespace wal {

namespace {

constexpr std::size_t kFrameHeaderBytes = 16;  // crc(4) + len(4) + index(8).
constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".wal";

std::string SegmentName(std::uint64_t first_index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seg-%020llu.wal",
                static_cast<unsigned long long>(first_index));
  return buf;
}

// Parses "seg-<20 digits>.wal"; false for anything else.
bool ParseSegmentName(const std::string& name, std::uint64_t* first_index) {
  const std::size_t prefix = sizeof(kSegmentPrefix) - 1;
  const std::size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() != prefix + 20 + suffix || name.compare(0, prefix, kSegmentPrefix) != 0 ||
      name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = prefix; i < prefix + 20; ++i) {
    if (name[i] < '0' || name[i] > '9') {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  *first_index = value;
  return true;
}

std::uint32_t FrameCrc(std::string_view index_and_payload) { return Crc32c(index_and_payload); }

// Appends one frame for record `index` to `out`.
void PutFrame(std::string* out, std::uint64_t index, std::string_view payload) {
  const std::size_t at = out->size();
  PutU32(out, 0);  // CRC, filled in once the index bytes are in place.
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU64(out, index);
  out->append(payload);
  const std::uint32_t crc = Crc32c(payload, Crc32c(std::string_view(out->data() + at + 8, 8)));
  const std::uint32_t masked = MaskCrc(crc);
  for (int i = 0; i < 4; ++i) {
    (*out)[at + static_cast<std::size_t>(i)] = static_cast<char>((masked >> (8 * i)) & 0xffu);
  }
}

}  // namespace

Log::Log(Vfs* vfs, std::string dir, LogOptions options, common::MetricsRegistry* metrics)
    : vfs_(vfs),
      dir_(std::move(dir)),
      options_(options),
      metrics_(metrics),
      appends_(metrics != nullptr ? &metrics->counter("wal.appends") : nullptr) {}

void Log::Count(const std::string& name, std::int64_t delta) {
  if (metrics_ != nullptr) {
    metrics_->counter(name).Increment(delta);
  }
}

std::string Log::SegmentPath(std::uint64_t first_index) const {
  return dir_ + "/" + SegmentName(first_index);
}

std::string Log::SegmentFileName(std::uint64_t first_index) { return SegmentName(first_index); }

common::Result<std::unique_ptr<Log>> Log::Open(Vfs* vfs, std::string dir, LogOptions options,
                                               common::MetricsRegistry* metrics,
                                               const ReplayFn& replay, RecoveryStats* stats) {
  RETURN_IF_ERROR(vfs->CreateDirs(dir));
  auto names = vfs->ListDir(dir);
  if (!names.ok()) {
    return names.status();
  }

  std::unique_ptr<Log> log(new Log(vfs, std::move(dir), options, metrics));
  RecoveryStats local_stats;

  std::vector<std::uint64_t> firsts;
  for (const auto& name : names.value()) {
    std::uint64_t first_index = 0;
    if (!ParseSegmentName(name, &first_index)) {
      log->Count("wal.recovery.rejected_segments", 1);
      return common::Status::Internal("unexpected file in wal dir: " + name);
    }
    firsts.push_back(first_index);  // ListDir sorts; zero-padding keeps numeric order.
  }

  std::uint64_t expected = firsts.empty() ? 0 : firsts.front();
  for (std::size_t seg_no = 0; seg_no < firsts.size(); ++seg_no) {
    const bool sealed = seg_no + 1 < firsts.size();
    const std::string path = log->SegmentPath(firsts[seg_no]);
    if (firsts[seg_no] != expected) {
      // A whole segment's worth of records is missing or misnamed.
      log->Count("wal.recovery.rejected_segments", 1);
      return common::Status::Internal("wal segment " + path + " starts at index " +
                                      std::to_string(firsts[seg_no]) + ", expected " +
                                      std::to_string(expected));
    }
    auto contents = ReadFileToString(*vfs, path);
    if (!contents.ok()) {
      return contents.status();
    }
    const std::string& data = contents.value();
    ++local_stats.segments_scanned;

    Segment seg;
    seg.first_index = firsts[seg_no];
    std::size_t pos = 0;
    bool truncated = false;
    std::string reject;
    while (pos < data.size()) {
      std::string_view frame_error;
      std::uint64_t index = 0;
      std::size_t frame_bytes = 0;
      if (data.size() - pos < kFrameHeaderBytes) {
        frame_error = "truncated frame header";
      } else {
        const std::uint32_t stored_crc = UnmaskCrc(DecodeU32(data.data() + pos));
        const std::uint32_t len = DecodeU32(data.data() + pos + 4);
        index = DecodeU64(data.data() + pos + 8);
        if (data.size() - pos - kFrameHeaderBytes < len) {
          frame_error = "truncated frame payload";
        } else if (FrameCrc(std::string_view(data.data() + pos + 8, 8 + len)) != stored_crc) {
          frame_error = "crc mismatch";
        } else {
          frame_bytes = kFrameHeaderBytes + len;
        }
      }

      if (frame_error.empty() && index > expected) {
        // An interior record is missing. Skipping it would silently lose
        // data, so this is always fatal — even in the active segment.
        log->Count("wal.recovery.rejected_segments", 1);
        return common::Status::Internal("wal gap in " + path + ": found index " +
                                        std::to_string(index) + ", expected " +
                                        std::to_string(expected));
      }

      if (!frame_error.empty() || index < expected) {
        const std::string what =
            !frame_error.empty() ? std::string(frame_error)
                                 : "duplicate frame (index " + std::to_string(index) + ")";
        if (sealed) {
          // Sealed segments were fully synced before any later write, so
          // this cannot be a crash artifact; reject loudly.
          log->Count("wal.recovery.rejected_segments", 1);
          return common::Status::Internal("corrupt sealed wal segment " + path + " at byte " +
                                          std::to_string(pos) + ": " + what);
        }
        // Active segment: a torn or retried final write. Truncate the tail
        // at the last valid frame; nothing after it is replayed.
        local_stats.torn_tail_bytes += data.size() - pos;
        local_stats.torn_tail_frames += 1;
        RETURN_IF_ERROR(vfs->Truncate(path, pos));
        truncated = true;
        break;
      }

      const std::string_view payload(data.data() + pos + kFrameHeaderBytes,
                                     frame_bytes - kFrameHeaderBytes);
      RETURN_IF_ERROR(replay(index, payload));
      ++local_stats.records_replayed;
      ++expected;
      pos += frame_bytes;
    }
    seg.end_index = expected;
    seg.bytes = truncated ? pos : data.size();
    log->segments_.push_back(seg);
  }

  log->next_index_ = expected;
  if (log->segments_.empty()) {
    log->segments_.push_back(Segment{log->next_index_, log->next_index_, 0});
  }
  RETURN_IF_ERROR(log->OpenActiveForAppend());

  if (metrics != nullptr) {
    metrics->counter("wal.recovery.torn_tail_bytes")
        .Increment(static_cast<std::int64_t>(local_stats.torn_tail_bytes));
    metrics->counter("wal.recovery.torn_tail_frames")
        .Increment(static_cast<std::int64_t>(local_stats.torn_tail_frames));
    metrics->counter("wal.recovery.records_replayed")
        .Increment(static_cast<std::int64_t>(local_stats.records_replayed));
  }
  if (stats != nullptr) {
    *stats = local_stats;
  }
  return log;
}

common::Status Log::OpenActiveForAppend() {
  auto file = vfs_->OpenAppend(SegmentPath(segments_.back().first_index));
  if (!file.ok()) {
    return file.status();
  }
  active_file_ = std::move(file.value());
  return common::Status::Ok();
}

common::Status Log::Rotate() {
  // Seal: sync then close, so sealed segments are fully durable before any
  // later write. Recovery relies on this to treat sealed anomalies as
  // corruption rather than crash artifacts.
  RETURN_IF_ERROR(active_file_->Sync());
  RETURN_IF_ERROR(active_file_->Close());
  segments_.push_back(Segment{next_index_, next_index_, 0});
  return OpenActiveForAppend();
}

common::Result<std::uint64_t> Log::AppendBatch(std::span<const std::string_view> payloads) {
  const std::uint64_t first = next_index_;
  if (payloads.empty()) {
    return first;
  }
  std::size_t total = 0;
  for (std::string_view payload : payloads) {
    total += kFrameHeaderBytes + payload.size();
  }
  // Frames bound for the active segment, written with one Append.
  std::string pending;
  pending.reserve(total);
  std::uint64_t pending_records = 0;
  auto write_pending = [&]() -> common::Status {
    if (pending_records == 0) {
      return common::Status::Ok();
    }
    RETURN_IF_ERROR(active_file_->Append(pending));
    segments_.back().bytes += pending.size();
    next_index_ += pending_records;
    segments_.back().end_index = next_index_;
    pending.clear();
    pending_records = 0;
    return common::Status::Ok();
  };
  for (std::string_view payload : payloads) {
    // The rotation rule of a single append: a record opens a new segment
    // once the active one has reached segment_bytes.
    if (segments_.back().bytes + pending.size() >= options_.segment_bytes) {
      RETURN_IF_ERROR(write_pending());
      RETURN_IF_ERROR(Rotate());
    }
    PutFrame(&pending, next_index_ + pending_records, payload);
    ++pending_records;
  }
  RETURN_IF_ERROR(write_pending());
  if (options_.sync_every_append) {
    RETURN_IF_ERROR(active_file_->Sync());
  }
  if (appends_ != nullptr) {
    appends_->Increment(static_cast<std::int64_t>(payloads.size()));
  }
  if (append_observer_) {
    append_observer_(first, payloads);
  }
  return first;
}

common::Status Log::Sync() { return active_file_->Sync(); }

common::Result<std::uint64_t> Log::DropSealedSegmentsBefore(std::uint64_t index) {
  // Open readers pin the segments at or past their cursor: reclaiming a
  // sealed segment a catch-up stream still holds a cursor into would turn
  // its next read into silent loss. Clamp the drop point to the slowest
  // reader instead, and count the clamp so operators see GC being held back.
  std::uint64_t effective = index;
  for (const LogReader* reader : readers_) {
    effective = std::min(effective, reader->next_index());
  }
  std::uint64_t dropped = 0;
  std::uint64_t pinned = 0;
  while (segments_.size() > 1 && segments_.front().end_index <= effective) {
    RETURN_IF_ERROR(vfs_->Remove(SegmentPath(segments_.front().first_index)));
    segments_.erase(segments_.begin());
    ++dropped;
  }
  // Segments that would have been dropped but for a reader's pin.
  for (const Segment& seg : segments_) {
    if (segments_.size() > 1 && seg.end_index <= index && &seg != &segments_.back()) {
      ++pinned;
    }
  }
  Count("wal.gc.segments_dropped", static_cast<std::int64_t>(dropped));
  Count("wal.gc.segments_pinned", static_cast<std::int64_t>(pinned));
  return dropped;
}

std::unique_ptr<LogReader> Log::OpenReader(std::uint64_t from_index) {
  const std::uint64_t from = std::max(from_index, oldest_retained_index());
  std::unique_ptr<LogReader> reader(new LogReader(this, from));
  readers_.push_back(reader.get());
  return reader;
}

LogReader::~LogReader() {
  auto& readers = log_->readers_;
  readers.erase(std::remove(readers.begin(), readers.end(), this), readers.end());
}

common::Status LogReader::LoadSegmentContaining(std::uint64_t index) {
  if (index < log_->oldest_retained_index()) {
    // The cursor's segment is gone. OpenReader pins against GC, so this only
    // happens for a cursor positioned below the retained prefix out of band;
    // the caller must force-resync from current state.
    return common::Status::NotFound("wal reader outrun by gc: index " + std::to_string(index) +
                                    " < oldest retained " +
                                    std::to_string(log_->oldest_retained_index()));
  }
  const Log::Segment* seg = nullptr;
  for (const Log::Segment& s : log_->segments_) {
    if (index >= s.first_index && index < s.end_index) {
      seg = &s;
      break;
    }
  }
  if (seg == nullptr) {
    return common::Status::Internal("wal reader: no segment holds index " +
                                    std::to_string(index));
  }
  auto contents = ReadFileToString(*log_->vfs_, log_->SegmentPath(seg->first_index));
  if (!contents.ok()) {
    return contents.status();
  }
  cached_ = std::move(contents.value());
  cached_first_ = seg->first_index;
  cached_pos_ = 0;
  cache_valid_ = true;
  // Walk frames from the segment head to the cursor (frames are variable
  // length, so there is no random access by index).
  std::uint64_t at = seg->first_index;
  while (at < index) {
    if (cached_.size() - cached_pos_ < kFrameHeaderBytes) {
      return common::Status::Internal("wal reader: truncated frame while seeking in " +
                                      log_->SegmentPath(seg->first_index));
    }
    const std::uint32_t len = DecodeU32(cached_.data() + cached_pos_ + 4);
    cached_pos_ += kFrameHeaderBytes + len;
    ++at;
  }
  return common::Status::Ok();
}

common::Result<bool> LogReader::Next(std::uint64_t* index, std::string* payload) {
  if (next_index_ >= log_->next_index()) {
    return false;  // Caught up; more records may land later.
  }
  // (Re)load when the cursor left the cached segment or the cached parse of
  // the active segment is exhausted but the log has more records (the active
  // file grew, or rotation moved the cursor's record to a new segment).
  const bool in_cached_segment =
      cache_valid_ && next_index_ >= cached_first_ && cached_pos_ < cached_.size();
  if (!in_cached_segment) {
    RETURN_IF_ERROR(LoadSegmentContaining(next_index_));
  }
  if (cached_.size() - cached_pos_ < kFrameHeaderBytes) {
    return common::Status::Internal("wal reader: truncated frame header in segment " +
                                    std::to_string(cached_first_));
  }
  const std::uint32_t len = DecodeU32(cached_.data() + cached_pos_ + 4);
  const std::uint64_t frame_index = DecodeU64(cached_.data() + cached_pos_ + 8);
  if (cached_.size() - cached_pos_ - kFrameHeaderBytes < len || frame_index != next_index_) {
    return common::Status::Internal("wal reader: unexpected frame (index " +
                                    std::to_string(frame_index) + ", want " +
                                    std::to_string(next_index_) + ")");
  }
  *index = next_index_;
  payload->assign(cached_.data() + cached_pos_ + kFrameHeaderBytes, len);
  cached_pos_ += kFrameHeaderBytes + len;
  ++next_index_;
  return true;
}

std::uint64_t Log::active_segment_first_index() const { return segments_.back().first_index; }

std::vector<SegmentInfo> Log::Segments(std::uint64_t from_index) const {
  std::size_t first = segments_.size();
  while (first > 0 && (segments_[first - 1].end_index > from_index ||
                       segments_[first - 1].first_index >= from_index)) {
    --first;
  }
  std::vector<SegmentInfo> out;
  out.reserve(segments_.size() - first);
  for (std::size_t i = first; i < segments_.size(); ++i) {
    out.push_back(SegmentInfo{segments_[i].first_index, segments_[i].end_index,
                              segments_[i].bytes, i + 1 < segments_.size()});
  }
  return out;
}

}  // namespace wal
