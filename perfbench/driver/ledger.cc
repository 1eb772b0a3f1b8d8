// The per-layer ledger: the workload's own records replayed single-threaded
// through each layer alone, timed from outside the layer's public calls.
// Each figure is the median over chunks of kChunk calls, per call.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "driver/stats.h"
#include "net/frame_decoder.h"
#include "net/messages.h"
#include "net/wire.h"
#include "pubsub/broker.h"
#include "pubsub/interest_index.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "wal/log.h"
#include "wal/partition_journal.h"
#include "wal/posix_vfs.h"

namespace perfbench {
namespace {

constexpr std::size_t kRecords = 20'000;
constexpr std::size_t kWalRecords = 2'000;
constexpr std::size_t kWalSyncEvery = 32;
constexpr std::size_t kScanFilters = 50;
constexpr std::size_t kChunk = 500;

// Times fn(i) for i in [0, n) in chunks; returns the median ns per call.
template <typename Fn>
double ChunkedNs(std::size_t n, Fn&& fn) {
  std::vector<double> per_call;
  for (std::size_t lo = 0; lo < n; lo += kChunk) {
    const std::size_t hi = std::min(n, lo + kChunk);
    const std::int64_t t0 = NowNs();
    for (std::size_t i = lo; i < hi; ++i) fn(i);
    per_call.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(hi - lo));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call.empty() ? 0 : per_call[per_call.size() / 2];
}

}  // namespace

void RunLedger(const RunConfig& config, RunResult* result) {
  const WorkloadSpec& spec = *config.spec;
  auto& x = result->metrics;
  std::vector<Input> inputs;
  std::vector<std::string> keys, values;
  InputStream live(spec, config.seed, StreamTag::kLive);
  for (std::size_t i = 0; i < kRecords; ++i) {
    inputs.push_back(live.Next());
    keys.push_back(KeyAt(inputs.back().rank));
    values.push_back(ValueFor(static_cast<std::uint32_t>(i), spec.value_bytes));
  }

  // pubsub: append into a standalone broker.
  sim::Simulator sim(1);
  sim::Network net(&sim, {.base = 0, .jitter = 0});
  pubsub::Broker broker(&sim, &net, "ledger");
  (void)broker.CreateTopic("ledger", {.partitions = spec.partitions});
  x["pubsub.append_ns"] = ChunkedNs(kRecords, [&](std::size_t i) {
    (void)broker.Publish("ledger", pubsub::Message{keys[i], values[i]}, inputs[i].partition);
  });

  // pubsub: interest matching over filtered_replay's filter set (this seed),
  // whatever the workload — the index alone, fed this workload's records.
  const std::vector<FilterSpec> filters = MakeFilters(*FindWorkload("filtered_replay"), config.seed);
  pubsub::InterestIndex index;
  for (std::size_t f = 0; f < filters.size(); ++f) index.Add(f + 1, filters[f].filter);
  const pubsub::Headers no_headers;
  std::uint64_t matched_subs = 0;
  x["pubsub.match_ns"] = ChunkedNs(kRecords, [&](std::size_t i) {
    index.Match(keys[i], no_headers, [&](pubsub::InterestIndex::SubscriberId) { ++matched_subs; });
  });
  x["pubsub.lanes_scanned_per_record"] =
      static_cast<double>(index.lanes_scanned()) / static_cast<double>(kRecords);
  x["pubsub.matched_over_scanned"] =
      index.lanes_scanned() > 0
          ? static_cast<double>(index.lanes_matched()) / static_cast<double>(index.lanes_scanned())
          : 0;

  // pubsub: the filtered catch-up read over the appended log.
  std::vector<pubsub::StoredMessage> out;
  std::uint64_t scanned = 0;
  const std::int64_t s0 = NowNs();
  for (std::size_t f = 0; f < kScanFilters && f < filters.size(); ++f) {
    const pubsub::PartitionId p = filters[f].partition % spec.partitions;
    pubsub::Offset next = 0;
    out.clear();
    (void)broker.FetchFilteredInto("ledger", p, 0, kRecords, 0, filters[f].filter, &out, &next,
                                   &scanned);
  }
  x["pubsub.scan_ns_per_record"] =
      scanned > 0 ? static_cast<double>(NowNs() - s0) / static_cast<double>(scanned) : 0;

  // wal: append and group sync on real files.
  wal::PosixVfs vfs;
  const std::string dir = config.work_dir + "/ledger-wal-" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  {
    auto log = wal::Log::Open(&vfs, dir, {.segment_bytes = 1u << 20, .sync_every_append = false},
                              nullptr, [](std::uint64_t, std::string_view) { return common::Status::Ok(); });
    if (!log.ok()) {
      result->Fail("ledger WAL open: " + log.status().message());
      return;
    }
    std::string record;
    std::vector<double> append_ns, sync_ns;
    bool ok = true;
    for (std::size_t i = 0; i < kWalRecords; ++i) {
      record.clear();
      wal::PartitionJournal::EncodeAppend(&record, i, keys[i], values[i], 0, nullptr);
      const std::int64_t t0 = NowNs();
      ok = ok && (*log)->Append(record).ok();
      const std::int64_t t1 = NowNs();
      append_ns.push_back(static_cast<double>(t1 - t0));
      if ((i + 1) % kWalSyncEvery == 0) {
        ok = ok && (*log)->Sync().ok();
        sync_ns.push_back(static_cast<double>(NowNs() - t1));
      }
    }
    if (!ok) result->Fail("ledger WAL append/sync failed");
    x["wal.append_ns"] = Summarize(&append_ns).p50;
    x["wal.sync_ns"] = Summarize(&sync_ns).p50;
    std::uint64_t bytes = 0;
    for (const wal::SegmentInfo& seg : (*log)->Segments()) bytes += seg.bytes;
    x["wal.bytes_per_record"] = static_cast<double>(bytes) / static_cast<double>(kWalRecords);
  }
  std::filesystem::remove_all(dir);

  // net: encode PUBLISH frames, then decode them back.
  std::vector<std::string> frames(kRecords);
  std::string payload;
  x["net.encode_ns"] = ChunkedNs(kRecords, [&](std::size_t i) {
    net::PublishRequest req;
    req.topic = "ledger";
    req.ack = net::PublishAck::kOffset;
    req.has_partition = true;
    req.partition = inputs[i].partition;
    req.key = keys[i];
    req.value = values[i];
    payload.clear();
    net::Encode(req, &payload);
    net::EncodeFrame(frames[i], net::Verb::kPublish, i + 1, payload);
  });
  net::FrameDecoder decoder;
  std::size_t decoded = 0;
  x["net.decode_ns"] = ChunkedNs(kRecords, [&](std::size_t i) {
    decoder.Feed(frames[i]);
    net::Frame frame;
    net::PublishRequest req;
    if (decoder.Next(&frame) == net::FrameDecoder::Result::kFrame && net::Decode(frame.payload, &req)) {
      ++decoded;
    }
  });
  if (decoded != kRecords) result->Fail("ledger frame round trip lost frames");

  // The layers' self times on the publish→deliver path, summed.
  double sum_ns = x["pubsub.append_ns"] + x["runtime.post_ns_p50"] + x["runtime.poll_ns_per_record"];
  if (spec.kind == Kind::kFilteredReplay) sum_ns += x["pubsub.match_ns"];
  if (spec.kind == Kind::kWireAck) sum_ns += 2 * (x["net.encode_ns"] + x["net.decode_ns"]);
  if (spec.kind == Kind::kDurableIngest) {
    // Leader and follower each append; the workload's WAL is in memory.
    sum_ns += 2 * x["wal.append_ns"];
  }
  x["ledger.layer_sum_us"] = sum_ns / 1e3;
}

}  // namespace perfbench
