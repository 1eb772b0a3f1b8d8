// wal::Log: framing, segment rotation, recovery (torn tails, duplicates,
// gaps, sealed corruption), and sealed-prefix GC. All on FaultVfs so the
// corruption cases can edit raw bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "wal/fault_vfs.h"
#include "wal/log.h"

namespace wal {
namespace {

using Record = std::pair<std::uint64_t, std::string>;

std::string SegmentName(std::uint64_t first_index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seg-%020llu.wal",
                static_cast<unsigned long long>(first_index));
  return buf;
}

// Opens `dir`, collecting every replayed record into `records`.
common::Result<std::unique_ptr<Log>> OpenCollecting(Vfs* vfs, const std::string& dir,
                                                    LogOptions options,
                                                    common::MetricsRegistry* metrics,
                                                    std::vector<Record>* records,
                                                    RecoveryStats* stats = nullptr) {
  return Log::Open(vfs, dir, options, metrics,
                   [records](std::uint64_t index, std::string_view payload) {
                     records->emplace_back(index, std::string(payload));
                     return common::Status::Ok();
                   },
                   stats);
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// Byte `j` of a golden payload for `record`.
std::string GoldenPayload(std::size_t record, std::size_t len) {
  std::string out;
  for (std::size_t j = 0; j < len; ++j) {
    out.push_back(static_cast<char>((record * 37 + j * 11 + 5) & 0xff));
  }
  return out;
}

TEST(WalLogTest, GoldenSegmentRecoversAndReencodesByteForByte) {
  // Seven records with payloads of 0, 1, 7, 8, 9, 23 and 40 bytes, as the
  // byte-at-a-time CRC32C kernel wrote them before slicing-by-8. Every frame
  // must still recover, and appending the same payloads must write the same
  // bytes: the checksum kernel changed, the format did not.
  const std::vector<std::size_t> lengths = {0, 1, 7, 8, 9, 23, 40};
  const std::string golden = FromHex(
      "29039807000000000000000000000000e0f39cd2010000000100000000000000"
      "2a069ac6800700000002000000000000004f5a65707b8691c642a90d08000000"
      "0300000000000000747f8a95a0abb6c1a950c944090000000400000000000000"
      "99a4afbac5d0dbe6f177722aa2170000000500000000000000bec9d4dfeaf500"
      "0b16212c37424d58636e79848f9aa5b082bfcc09280000000600000000000000"
      "e3eef9040f1a25303b46515c67727d88939ea9b4bfcad5e0ebf6010c17222d38"
      "434e59646f7a8590");
  FaultVfs vfs;
  ASSERT_TRUE(vfs.CreateDirs("log").ok());
  {
    auto file = vfs.OpenAppend("log/" + SegmentName(0));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(golden).ok());
    ASSERT_TRUE((*file)->Sync().ok());
  }
  std::vector<Record> records;
  RecoveryStats stats;
  auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &records, &stats);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(stats.torn_tail_bytes, 0u);
  ASSERT_EQ(records.size(), lengths.size());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_EQ(records[i].first, i);
    EXPECT_EQ(records[i].second, GoldenPayload(i, lengths[i])) << "record " << i;
  }

  FaultVfs fresh;
  std::vector<Record> none;
  auto rewritten = OpenCollecting(&fresh, "log", LogOptions{}, nullptr, &none);
  ASSERT_TRUE(rewritten.ok());
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    ASSERT_TRUE((*rewritten)->Append(GoldenPayload(i, lengths[i])).ok());
  }
  const std::string* bytes = fresh.MutableContents("log/" + SegmentName(0));
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(*bytes, golden);
}

TEST(WalLogTest, AppendReplayRoundTrip) {
  FaultVfs vfs;
  std::vector<std::string> payloads;
  {
    std::vector<Record> none;
    auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &none);
    ASSERT_TRUE(log.ok());
    EXPECT_TRUE(none.empty());
    for (int i = 0; i < 50; ++i) {
      payloads.push_back("record-" + std::to_string(i) + std::string(i % 7, '#'));
      auto index = (*log)->Append(payloads.back());
      ASSERT_TRUE(index.ok());
      EXPECT_EQ(*index, static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ((*log)->next_index(), 50u);
  }
  std::vector<Record> records;
  RecoveryStats stats;
  auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &records, &stats);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(records[i].first, i);
    EXPECT_EQ(records[i].second, payloads[i]);
  }
  EXPECT_EQ(stats.records_replayed, 50u);
  EXPECT_EQ(stats.torn_tail_bytes, 0u);
  EXPECT_EQ((*log)->next_index(), 50u);
}

TEST(WalLogTest, RotationSealsSegmentsContiguously) {
  FaultVfs vfs;
  LogOptions options;
  options.segment_bytes = 128;  // Frames are 16 + ~10 bytes; forces rotation.
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", options, nullptr, &none);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
  }
  const auto segments = (*log)->Segments();
  ASSERT_GT(segments.size(), 2u);
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].first_index, expected);
    EXPECT_GE(segments[i].end_index, segments[i].first_index);
    EXPECT_EQ(segments[i].sealed, i + 1 < segments.size());
    expected = segments[i].end_index;
    EXPECT_TRUE(vfs.Exists("log/" + SegmentName(segments[i].first_index)));
  }
  EXPECT_EQ(expected, 40u);
  EXPECT_EQ((*log)->active_segment_first_index(), segments.back().first_index);

  // Reopen sees the same segment layout and all 40 records.
  log->reset();
  std::vector<Record> records;
  auto reopened = OpenCollecting(&vfs, "log", options, nullptr, &records);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(records.size(), 40u);
  EXPECT_EQ((*reopened)->Segments().size(), segments.size());
  EXPECT_EQ((*reopened)->next_index(), 40u);
}

TEST(WalLogTest, ReopenContinuesIndexSequence) {
  FaultVfs vfs;
  for (int round = 0; round < 3; ++round) {
    std::vector<Record> records;
    auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &records);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ(records.size(), static_cast<std::size_t>(10 * round));
    for (int i = 0; i < 10; ++i) {
      auto index = (*log)->Append("r");
      ASSERT_TRUE(index.ok());
      EXPECT_EQ(*index, static_cast<std::uint64_t>(10 * round + i));
    }
  }
}

TEST(WalLogTest, TornTailTruncatedAtLastValidFrame) {
  FaultVfs vfs;
  common::MetricsRegistry metrics;
  {
    std::vector<Record> none;
    auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &none);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
    }
  }
  std::string* raw = vfs.MutableContents("log/" + SegmentName(0));
  ASSERT_NE(raw, nullptr);
  const std::size_t intact = raw->size();
  raw->resize(intact - 3);  // Tear the last frame mid-payload.

  std::vector<Record> records;
  RecoveryStats stats;
  auto log = OpenCollecting(&vfs, "log", LogOptions{}, &metrics, &records, &stats);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(records.size(), 4u);  // Record 4 lost with the torn tail.
  EXPECT_EQ((*log)->next_index(), 4u);
  EXPECT_GT(stats.torn_tail_bytes, 0u);
  EXPECT_EQ(stats.torn_tail_frames, 1u);
  EXPECT_EQ(metrics.counter("wal.recovery.torn_tail_frames").value(), 1);
  EXPECT_EQ(metrics.counter("wal.recovery.rejected_segments").value(), 0);

  // The tail was physically truncated; appending resumes at index 4 and the
  // next recovery is clean.
  ASSERT_TRUE((*log)->Append("replacement-4").ok());
  log->reset();
  records.clear();
  RecoveryStats clean;
  auto again = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &records, &clean);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.back().second, "replacement-4");
  EXPECT_EQ(clean.torn_tail_bytes, 0u);
}

TEST(WalLogTest, DuplicateTailFrameInActiveSegmentTruncates) {
  FaultVfs vfs;
  std::string frame0;
  {
    std::vector<Record> none;
    auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &none);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append("first").ok());
    frame0 = *vfs.MutableContents("log/" + SegmentName(0));  // Bytes of frame 0.
    ASSERT_TRUE((*log)->Append("second").ok());
  }
  // A retried write duplicated frame 0 at the tail (index 0 < expected 2).
  vfs.MutableContents("log/" + SegmentName(0))->append(frame0);

  std::vector<Record> records;
  RecoveryStats stats;
  auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &records, &stats);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ((*log)->next_index(), 2u);
  EXPECT_EQ(stats.torn_tail_frames, 1u);
  EXPECT_EQ(stats.torn_tail_bytes, frame0.size());
}

TEST(WalLogTest, InteriorGapRejectsEvenInActiveSegment) {
  FaultVfs vfs;
  std::size_t frame1_begin = 0;
  std::size_t frame1_end = 0;
  {
    std::vector<Record> none;
    auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &none);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append("first").ok());
    frame1_begin = vfs.MutableContents("log/" + SegmentName(0))->size();
    ASSERT_TRUE((*log)->Append("second").ok());
    frame1_end = vfs.MutableContents("log/" + SegmentName(0))->size();
    ASSERT_TRUE((*log)->Append("third").ok());
  }
  // Splice frame 1 out: frame 2 (index 2) now follows frame 0, expected 1.
  std::string* raw = vfs.MutableContents("log/" + SegmentName(0));
  raw->erase(frame1_begin, frame1_end - frame1_begin);

  common::MetricsRegistry metrics;
  std::vector<Record> records;
  auto log = OpenCollecting(&vfs, "log", LogOptions{}, &metrics, &records);
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), common::StatusCode::kInternal);
  EXPECT_EQ(metrics.counter("wal.recovery.rejected_segments").value(), 1);
  // Nothing after the gap was replayed.
  EXPECT_EQ(records.size(), 1u);
}

TEST(WalLogTest, SealedSegmentCorruptionRejectsLoudly) {
  FaultVfs vfs;
  LogOptions options;
  options.segment_bytes = 64;
  {
    std::vector<Record> none;
    auto log = OpenCollecting(&vfs, "log", options, nullptr, &none);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
    }
    ASSERT_GT((*log)->Segments().size(), 1u);
  }
  // Flip one payload byte in the first (sealed) segment.
  std::string* raw = vfs.MutableContents("log/" + SegmentName(0));
  ASSERT_NE(raw, nullptr);
  (*raw)[raw->size() - 1] ^= 0x01;

  common::MetricsRegistry metrics;
  std::vector<Record> records;
  auto log = OpenCollecting(&vfs, "log", options, &metrics, &records);
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), common::StatusCode::kInternal);
  EXPECT_EQ(metrics.counter("wal.recovery.rejected_segments").value(), 1);
}

TEST(WalLogTest, MissingSegmentInSequenceRejects) {
  FaultVfs vfs;
  LogOptions options;
  options.segment_bytes = 64;
  {
    std::vector<Record> none;
    auto log = OpenCollecting(&vfs, "log", options, nullptr, &none);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
    }
    const auto segments = (*log)->Segments();
    ASSERT_GT(segments.size(), 2u);
    // Delete a middle sealed segment out from under the log.
    ASSERT_TRUE(vfs.Remove("log/" + SegmentName(segments[1].first_index)).ok());
  }
  std::vector<Record> records;
  auto log = OpenCollecting(&vfs, "log", options, nullptr, &records);
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), common::StatusCode::kInternal);
}

TEST(WalLogTest, StrayFileInWalDirRejects) {
  FaultVfs vfs;
  {
    std::vector<Record> none;
    auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &none);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append("r").ok());
  }
  auto stray = vfs.OpenAppend("log/notes.txt");
  ASSERT_TRUE(stray.ok());
  std::vector<Record> records;
  auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &records);
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), common::StatusCode::kInternal);
}

TEST(WalLogTest, DropSealedSegmentsBeforeNeverTouchesActiveOrPartialSegments) {
  FaultVfs vfs;
  common::MetricsRegistry metrics;
  LogOptions options;
  options.segment_bytes = 64;
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", options, &metrics, &none);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
  }
  const auto before = (*log)->Segments();
  ASSERT_GT(before.size(), 3u);

  // An index inside segment 1 drops only segment 0.
  auto dropped = (*log)->DropSealedSegmentsBefore(before[1].first_index + 1);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 1u);
  EXPECT_FALSE(vfs.Exists("log/" + SegmentName(before[0].first_index)));
  EXPECT_TRUE(vfs.Exists("log/" + SegmentName(before[1].first_index)));

  // next_index covers everything, but the active segment must survive.
  dropped = (*log)->DropSealedSegmentsBefore((*log)->next_index());
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, before.size() - 2);
  const auto after = (*log)->Segments();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].first_index, before.back().first_index);
  EXPECT_EQ(metrics.counter("wal.gc.segments_dropped").value(),
            static_cast<std::int64_t>(before.size() - 1));

  // Appends continue and recovery replays only the surviving segment.
  ASSERT_TRUE((*log)->Append("tail").ok());
  log->reset();
  std::vector<Record> records;
  auto reopened = OpenCollecting(&vfs, "log", options, nullptr, &records);
  ASSERT_TRUE(reopened.ok());
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().first, before.back().first_index);
  EXPECT_EQ(records.back().second, "tail");
  EXPECT_EQ((*reopened)->next_index(), 21u);
}

TEST(WalLogReaderTest, ReaderStreamsAcrossRotationAndLiveTail) {
  FaultVfs vfs;
  LogOptions options;
  options.segment_bytes = 64;
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", options, nullptr, &none);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
  }
  ASSERT_GT((*log)->Segments().size(), 2u);

  auto reader = (*log)->OpenReader(0);
  std::uint64_t index = 0;
  std::string payload;
  for (int i = 0; i < 12; ++i) {
    auto more = reader->Next(&index, &payload);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
    EXPECT_EQ(index, static_cast<std::uint64_t>(i));
    EXPECT_EQ(payload, "payload-" + std::to_string(i));
  }
  auto caught_up = reader->Next(&index, &payload);
  ASSERT_TRUE(caught_up.ok());
  EXPECT_FALSE(*caught_up);

  // The active segment grows under the open reader; Next picks it up.
  ASSERT_TRUE((*log)->Append("late").ok());
  auto more = reader->Next(&index, &payload);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(index, 12u);
  EXPECT_EQ(payload, "late");
}

TEST(WalLogReaderTest, OpenReaderPinsSealedSegmentsAgainstGc) {
  // Regression: GC used to honor DropSealedSegmentsBefore unconditionally, so
  // a sealed segment could vanish under an open reader's cursor — the
  // catch-up stream's next read became silent loss. Readers must pin.
  FaultVfs vfs;
  common::MetricsRegistry metrics;
  LogOptions options;
  options.segment_bytes = 64;
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", options, &metrics, &none);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
  }
  const auto before = (*log)->Segments();
  ASSERT_GT(before.size(), 3u);

  auto reader = (*log)->OpenReader(0);
  auto dropped = (*log)->DropSealedSegmentsBefore((*log)->next_index());
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0u) << "GC reclaimed a segment pinned by an open reader";
  EXPECT_GT(metrics.counter("wal.gc.segments_pinned").value(), 0);
  EXPECT_EQ((*log)->oldest_retained_index(), 0u);

  // Every record is still readable through the pinned prefix.
  std::uint64_t index = 0;
  std::string payload;
  for (int i = 0; i < 20; ++i) {
    auto more = reader->Next(&index, &payload);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(*more);
    EXPECT_EQ(payload, "payload-" + std::to_string(i));
  }

  // Closing the reader releases the pin; the same GC call now reclaims.
  reader.reset();
  dropped = (*log)->DropSealedSegmentsBefore((*log)->next_index());
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, before.size() - 1);
  EXPECT_EQ((*log)->Segments().size(), 1u);
}

TEST(WalLogReaderTest, SlowestReaderGovernsTheGcClamp) {
  FaultVfs vfs;
  LogOptions options;
  options.segment_bytes = 64;
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", options, nullptr, &none);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*log)->Append("r" + std::to_string(i)).ok());
  }
  auto slow = (*log)->OpenReader(0);
  auto fast = (*log)->OpenReader(0);
  std::uint64_t index = 0;
  std::string payload;
  while (true) {
    auto more = fast->Next(&index, &payload);
    ASSERT_TRUE(more.ok());
    if (!*more) {
      break;
    }
  }
  auto dropped = (*log)->DropSealedSegmentsBefore((*log)->next_index());
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0u);  // The slow reader at index 0 pins everything.

  slow.reset();
  dropped = (*log)->DropSealedSegmentsBefore((*log)->next_index());
  ASSERT_TRUE(dropped.ok());
  EXPECT_GT(*dropped, 0u);  // The caught-up reader pins nothing sealed.
}

TEST(WalLogReaderTest, OpenReaderBelowRetainedPrefixClampsToOldest) {
  FaultVfs vfs;
  LogOptions options;
  options.segment_bytes = 64;
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", options, nullptr, &none);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*log)->Append("r" + std::to_string(i)).ok());
  }
  auto dropped = (*log)->DropSealedSegmentsBefore((*log)->next_index());
  ASSERT_TRUE(dropped.ok());
  ASSERT_GT(*dropped, 0u);
  const std::uint64_t oldest = (*log)->oldest_retained_index();
  ASSERT_GT(oldest, 0u);

  // Asking for the reclaimed prefix yields the oldest retained record, not a
  // silent gap: the caller can compare next_index() to its request and
  // force-resync if the clamp is unacceptable.
  auto reader = (*log)->OpenReader(0);
  EXPECT_EQ(reader->next_index(), oldest);
  std::uint64_t index = 0;
  std::string payload;
  auto more = reader->Next(&index, &payload);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(index, oldest);
}

TEST(WalLogReaderTest, FlippedPayloadByteIsRefusedAtItsIndex) {
  // The reader hands out only frames whose CRC checks. The first segment
  // (64-byte rotation) holds records 0-2 and is sealed.
  FaultVfs vfs;
  LogOptions options;
  options.segment_bytes = 64;
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", options, nullptr, &none);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
  }
  std::string* raw = vfs.MutableContents("log/" + SegmentName(0));
  ASSERT_NE(raw, nullptr);
  const std::size_t at = raw->find("payload-1");
  ASSERT_NE(at, std::string::npos);
  (*raw)[at + 3] ^= 0x20;  // "payLoad-1"

  auto reader = (*log)->OpenReader(0);
  std::uint64_t index = 0;
  std::string payload;
  auto first = reader->Next(&index, &payload);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(*first);
  EXPECT_EQ(payload, "payload-0");
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto refused = reader->Next(&index, &payload);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), common::StatusCode::kInternal);
    EXPECT_NE(refused.status().message().find("index 1"), std::string::npos)
        << refused.status().ToString();
    EXPECT_EQ(reader->next_index(), 1u);  // The cursor stays on the refused frame.
  }
  // A reader that starts past the corrupt frame seeks over it and reads on.
  auto later = (*log)->OpenReader(2);
  auto more = later->Next(&index, &payload);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  ASSERT_TRUE(*more);
  EXPECT_EQ(payload, "payload-2");
}

TEST(WalLogReaderTest, CorruptLengthIsRefusedWithoutReadingPastTheSegment) {
  // A reader opened past a frame walks over its length field to reach the
  // cursor. A length near 4 GiB must fail that walk, not move the cursor
  // past the buffer for the next header read (ASan reports any such read).
  FaultVfs vfs;
  LogOptions options;
  options.segment_bytes = 64;
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", options, nullptr, &none);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*log)->Append("payload-" + std::to_string(i)).ok());
  }
  std::string* raw = vfs.MutableContents("log/" + SegmentName(0));
  ASSERT_NE(raw, nullptr);
  for (int i = 0; i < 4; ++i) {
    (*raw)[4 + static_cast<std::size_t>(i)] = static_cast<char>(i == 0 ? 0xf0 : 0xff);
  }

  std::uint64_t index = 0;
  std::string payload;
  for (std::uint64_t from : {1u, 2u}) {
    auto reader = (*log)->OpenReader(from);
    auto more = reader->Next(&index, &payload);
    EXPECT_FALSE(more.ok()) << "from " << from;
    EXPECT_EQ(reader->next_index(), from);
  }
  // At the cursor itself, the same length overruns the segment.
  auto reader = (*log)->OpenReader(0);
  auto more = reader->Next(&index, &payload);
  EXPECT_FALSE(more.ok());
  EXPECT_EQ(reader->next_index(), 0u);
}

TEST(WalLogTest, ReplayErrorAbortsOpen) {
  FaultVfs vfs;
  {
    std::vector<Record> none;
    auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &none);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append("r").ok());
  }
  auto log = Log::Open(&vfs, "log", LogOptions{}, nullptr,
                       [](std::uint64_t, std::string_view) {
                         return common::Status::Internal("replay refused");
                       });
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), common::StatusCode::kInternal);
}

TEST(WalLogTest, AppendFailsWhileCrashedAndResumesAfterRecovery) {
  FaultOptions fault;
  fault.crash_at_append = 3;  // Crash partway through the workload.
  FaultVfs vfs(fault);
  std::vector<Record> none;
  auto log = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &none);
  ASSERT_TRUE(log.ok());
  int acked = 0;
  for (int i = 0; i < 10; ++i) {
    if ((*log)->Append("payload-" + std::to_string(i)).ok()) {
      ++acked;
    }
  }
  EXPECT_TRUE(vfs.crashed());
  EXPECT_LT(acked, 10);

  vfs.Restart();
  std::vector<Record> records;
  auto recovered = OpenCollecting(&vfs, "log", LogOptions{}, nullptr, &records);
  ASSERT_TRUE(recovered.ok());
  // Every acked append was synced before being acked, so all survive. The
  // torn write may happen to persist its complete frame, in which case the
  // un-acked record also recovers — but never more than that.
  EXPECT_GE(records.size(), static_cast<std::size_t>(acked));
  EXPECT_LE(records.size(), static_cast<std::size_t>(acked) + 1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].second, "payload-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace wal
