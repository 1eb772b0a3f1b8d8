// Experiment E1 (paper §3.1, Figure 1): backlogs, retention GC, and silent
// message loss.
//
// A producer emits events at a fixed rate. The consumer suffers an outage of
// varying length. The pubsub pipeline (durable log, time-based retention,
// consumer group) garbage-collects messages the consumer never saw and gives
// it no signal; the storage+watch pipeline (ingest store + watch system with
// a bounded soft-state window) either replays the gap or sends an explicit
// resync, after which the consumer recovers complete state from the store.
//
// Also runs ablation A1: retained-window size vs resync rate and recovery.
//
// Flags:
//   --durable  back the pubsub broker with the segmented WAL (fault-free
//              FaultVfs) and additionally measure journaling volume, segment
//              GC, and post-run crash-recovery cost (experiment D1).
//   --json     emit machine-readable JSON instead of the text tables. The
//              JSON states the host's hardware_concurrency and the build
//              type, since wal_recovery_ms is a wall-clock time.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/table.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "pubsub/broker.h"
#include "pubsub/consumer.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/ingest_store.h"
#include "wal/broker_journal.h"
#include "wal/fault_vfs.h"
#include "watch/materialized.h"
#include "watch/snapshot_source.h"
#include "watch/store_watch.h"

namespace {

constexpr common::TimeMicros kMs = common::kMicrosPerMilli;
constexpr common::TimeMicros kSec = common::kMicrosPerSecond;

constexpr std::uint64_t kKeys = 2000;
constexpr common::TimeMicros kEventPeriod = 2 * kMs;  // 500 events/sec.
constexpr common::TimeMicros kRetention = 3 * kSec;
constexpr common::TimeMicros kOutageStart = 2 * kSec;
constexpr common::TimeMicros kRunFor = 30 * kSec;

struct PubsubResult {
  std::uint64_t published = 0;
  std::uint64_t received = 0;
  std::uint64_t lost = 0;
  bool loss_signalled = false;  // Pubsub never signals it.
  double catchup_ms = -1;
  // Durable mode only (D1): journaling volume and recovery cost.
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_segments_dropped = 0;
  std::uint64_t wal_records_replayed = 0;
  double wal_recovery_ms = -1;
  bool wal_recovered_identical = false;
};

PubsubResult RunPubsub(common::TimeMicros outage, bool durable) {
  sim::Simulator sim(42);
  sim::Network net(&sim, {.base = 200, .jitter = 0});
  pubsub::Broker broker(&sim, &net, "broker", 100 * kMs);
  const pubsub::TopicConfig topic_config{.partitions = 4,
                                         .retention = {.retention = kRetention}};

  // Durable mode: every append, retention trim, and committed offset is
  // journaled through the segmented WAL on an in-memory (fault-free) vfs.
  wal::FaultVfs vfs;
  common::MetricsRegistry metrics;
  std::unique_ptr<wal::BrokerJournal> journal;
  if (durable) {
    auto opened =
        wal::BrokerJournal::Open(&vfs, "wal", wal::BrokerJournalOptions{}, &metrics, &broker);
    if (!opened.ok()) {
      std::fprintf(stderr, "wal open failed: %s\n", opened.status().message().c_str());
      return {};
    }
    journal = std::move(opened.value());
    (void)journal->CreateTopic("events", topic_config);
  } else {
    (void)broker.CreateTopic("events", topic_config);
  }
  PubsubResult result;
  std::set<std::string> seen;
  pubsub::GroupConsumer consumer(
      &sim, &net, &broker, "ingestors", "events", "consumer-0",
      [&](pubsub::PartitionId, const pubsub::StoredMessage& m) {
        seen.insert(m.message.key);
        return true;
      },
      {.poll_period = 10 * kMs, .heartbeat_period = 200 * kMs, .max_poll_messages = 64});
  consumer.Start();

  common::Rng rng(7);
  std::uint64_t seq = 0;
  sim::PeriodicTask producer(&sim, kEventPeriod, [&] {
    (void)broker.Publish("events",
                         pubsub::Message{"ev-" + std::to_string(seq++),
                                         std::string(64, 'x'), 0});
    ++result.published;
  });

  sim::FailureInjector injector(&sim, &net);
  injector.Register("consumer-0", {.on_crash = [&] { consumer.OnCrash(); },
                                   .on_restart = [&] { consumer.OnRestart(); }});
  if (outage > 0) {
    injector.ScheduleCrash("consumer-0", kOutageStart, outage);
  }

  sim.RunUntil(kRunFor);
  producer.Stop();

  // Catch-up time: after production stops, drain; record when backlog hits 0.
  const common::TimeMicros drain_start = sim.Now();
  common::TimeMicros done_at = -1;
  for (common::TimeMicros t = drain_start; t < drain_start + 60 * kSec; t += 50 * kMs) {
    sim.RunUntil(t);
    if (broker.GroupBacklog("ingestors", "events") == 0) {
      done_at = sim.Now();
      break;
    }
  }
  result.received = seen.size();
  result.lost = result.published - result.received;
  result.catchup_ms = done_at < 0 ? -1 : static_cast<double>(done_at - drain_start) / kMs;

  if (durable) {
    result.wal_appends = static_cast<std::uint64_t>(metrics.counter("wal.appends").value());
    result.wal_segments_dropped =
        static_cast<std::uint64_t>(metrics.counter("wal.gc.segments_dropped").value());

    // D1: crash here (process death; the vfs survives) and measure recovery
    // onto a fresh broker. Identical recovered offsets = the delivery
    // guarantee the WAL exists to provide.
    sim::Simulator sim2(43);
    sim::Network net2(&sim2, {.base = 200, .jitter = 0});
    pubsub::Broker recovered(&sim2, &net2, "broker", 100 * kMs);
    const auto t0 = std::chrono::steady_clock::now();
    auto reopened = wal::BrokerJournal::Open(&vfs, "wal", wal::BrokerJournalOptions{}, nullptr,
                                             &recovered);
    const auto t1 = std::chrono::steady_clock::now();
    result.wal_recovery_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (reopened.ok()) {
      result.wal_records_replayed = (*reopened)->recovery_stats().records_replayed;
      result.wal_recovered_identical = true;
      for (pubsub::PartitionId p = 0; p < 4; ++p) {
        result.wal_recovered_identical =
            result.wal_recovered_identical &&
            recovered.EndOffset("events", p) == broker.EndOffset("events", p) &&
            recovered.Log("events", p)->first_offset() ==
                broker.Log("events", p)->first_offset() &&
            recovered.CommittedOffset("ingestors", p) == broker.CommittedOffset("ingestors", p);
      }
    }
  }
  return result;
}

struct WatchResult {
  std::uint64_t published = 0;
  std::uint64_t final_state_complete = 0;  // Keys materialized after recovery.
  std::uint64_t lost = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t session_repairs = 0;
  double catchup_ms = -1;
};

WatchResult RunWatch(common::TimeMicros outage, std::size_t window_events) {
  sim::Simulator sim(42);
  sim::Network net(&sim, {.base = 200, .jitter = 0});
  storage::IngestStore store("events");
  watch::IngestStoreWatch store_watch(
      &sim, &net, &store, "ingest-watch",
      {.window = {.max_events = window_events},
       .delivery_latency = 1 * kMs,
       .progress_period = 20 * kMs});
  watch::IngestSnapshotSource source(&store);
  watch::MaterializedRange consumer(&sim, &store_watch, &source, common::KeyRange::All(),
                                    {.resync_delay = 20 * kMs,
                                     .session_check_period = 50 * kMs,
                                     .node = "consumer-0",
                                     .net = &net});
  net.AddNode("consumer-0");
  consumer.Start();

  WatchResult result;
  std::uint64_t seq = 0;
  sim::PeriodicTask producer(&sim, kEventPeriod, [&] {
    store.Append("ev-" + std::to_string(seq++), std::string(64, 'x'), sim.Now());
    ++result.published;
  });
  // The ingest store trims raw history on the same retention as pubsub — but
  // being a store, it keeps the latest state per key queryable forever.
  sim::PeriodicTask retention(&sim, 100 * kMs,
                              [&] { store.RetainAfter(sim.Now() - kRetention); });

  sim::FailureInjector injector(&sim, &net);
  injector.Register("consumer-0",
                    {.on_crash = [] {}, .on_restart = [] {}});
  if (outage > 0) {
    injector.ScheduleCrash("consumer-0", kOutageStart, outage);
  }

  sim.RunUntil(kRunFor);
  producer.Stop();

  const common::TimeMicros drain_start = sim.Now();
  common::TimeMicros done_at = -1;
  for (common::TimeMicros t = drain_start; t < drain_start + 60 * kSec; t += 50 * kMs) {
    sim.RunUntil(t);
    if (consumer.ready() &&
        consumer.LatestScan(common::KeyRange::All()).size() >= result.published) {
      done_at = sim.Now();
      break;
    }
  }
  result.final_state_complete = consumer.LatestScan(common::KeyRange::All()).size();
  result.lost = result.published - result.final_state_complete;
  result.resyncs = consumer.resyncs();
  result.session_repairs = consumer.session_repairs();
  result.catchup_ms = done_at < 0 ? -1 : static_cast<double>(done_at - drain_start) / kMs;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool durable = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--durable") == 0) {
      durable = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (known: --durable --json)\n", argv[i]);
      return 2;
    }
  }

  const std::vector<common::TimeMicros> outages = {common::TimeMicros(0), 1 * kSec, 2 * kSec,
                                                   5 * kSec, 10 * kSec, 20 * kSec};
  std::vector<PubsubResult> pubsub_rows;
  std::vector<WatchResult> watch_rows;
  for (common::TimeMicros outage : outages) {
    pubsub_rows.push_back(RunPubsub(outage, durable));
    watch_rows.push_back(RunWatch(outage, 4096));
  }

  const std::vector<std::size_t> windows = {256u, 1024u, 4096u, 16384u, 65536u};
  std::vector<WatchResult> ablation_rows;
  for (std::size_t window : windows) {
    ablation_rows.push_back(RunWatch(5 * kSec, window));
  }

  if (json) {
    std::printf("{\n  \"bench\": \"backlog_gc\",\n  \"durable\": %s,\n"
                "  \"hardware_concurrency\": %u,\n  \"build_type\": \"%s\",\n",
                durable ? "true" : "false", std::thread::hardware_concurrency(),
                PUBSUB_BUILD_TYPE);
    std::printf("  \"e1\": [\n");
    for (std::size_t i = 0; i < outages.size(); ++i) {
      const PubsubResult& p = pubsub_rows[i];
      const WatchResult& w = watch_rows[i];
      std::printf("    {\"outage_s\": %.1f, \"published\": %llu, \"pub_lost\": %llu, "
                  "\"pub_signal\": false, \"pub_catchup_ms\": %.0f, \"watch_lost\": %llu, "
                  "\"watch_resyncs\": %llu, \"watch_catchup_ms\": %.0f",
                  static_cast<double>(outages[i]) / kSec,
                  static_cast<unsigned long long>(p.published),
                  static_cast<unsigned long long>(p.lost), p.catchup_ms,
                  static_cast<unsigned long long>(w.lost),
                  static_cast<unsigned long long>(w.resyncs), w.catchup_ms);
      if (durable) {
        std::printf(", \"wal_appends\": %llu, \"wal_segments_dropped\": %llu, "
                    "\"wal_records_replayed\": %llu, \"wal_recovery_ms\": %.3f, "
                    "\"wal_recovered_identical\": %s",
                    static_cast<unsigned long long>(p.wal_appends),
                    static_cast<unsigned long long>(p.wal_segments_dropped),
                    static_cast<unsigned long long>(p.wal_records_replayed), p.wal_recovery_ms,
                    p.wal_recovered_identical ? "true" : "false");
      }
      std::printf("}%s\n", i + 1 < outages.size() ? "," : "");
    }
    std::printf("  ],\n  \"a1\": [\n");
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const WatchResult& w = ablation_rows[i];
      std::printf("    {\"window_events\": %llu, \"resyncs\": %llu, \"session_repairs\": %llu, "
                  "\"lost\": %llu, \"catchup_ms\": %.0f}%s\n",
                  static_cast<unsigned long long>(windows[i]),
                  static_cast<unsigned long long>(w.resyncs),
                  static_cast<unsigned long long>(w.session_repairs),
                  static_cast<unsigned long long>(w.lost), w.catchup_ms,
                  i + 1 < windows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
  }

  std::printf("E1: backlog + retention GC (paper §3.1)%s\n",
              durable ? " — durable broker (WAL-backed)" : "");
  std::printf("rate=500 ev/s, pubsub retention=%llds, watch window=4096 events\n",
              static_cast<long long>(kRetention / kSec));

  bench::Table table(
      "Consumer outage vs. loss and recovery (pubsub log vs. store+watch)",
      {"outage_s", "pub_lost", "pub_signal", "pub_catchup_ms", "watch_lost", "watch_signal",
       "watch_resyncs", "watch_catchup_ms"});
  for (std::size_t i = 0; i < outages.size(); ++i) {
    const PubsubResult& p = pubsub_rows[i];
    const WatchResult& w = watch_rows[i];
    // "Signal" means the explicit may-have-missed-events notification
    // (OnResync); a transparent session repair that replays the gap needs no
    // signal because nothing was missed.
    const bool watch_signalled = w.resyncs > 0;
    table.AddRow({bench::F(static_cast<double>(outages[i]) / kSec, 1), bench::I(p.lost),
                  bench::B(p.loss_signalled), bench::F(p.catchup_ms, 0), bench::I(w.lost),
                  bench::B(watch_signalled), bench::I(w.resyncs),
                  bench::F(w.catchup_ms, 0)});
  }
  table.Print();

  if (durable) {
    bench::Table dtable("D1: WAL journaling volume and crash recovery per outage",
                        {"outage_s", "wal_appends", "segs_dropped", "replayed", "recovery_ms",
                         "recovered_identical"});
    for (std::size_t i = 0; i < outages.size(); ++i) {
      const PubsubResult& p = pubsub_rows[i];
      dtable.AddRow({bench::F(static_cast<double>(outages[i]) / kSec, 1),
                     bench::I(p.wal_appends), bench::I(p.wal_segments_dropped),
                     bench::I(p.wal_records_replayed), bench::F(p.wal_recovery_ms, 3),
                     bench::B(p.wal_recovered_identical)});
    }
    dtable.Print();
  }

  bench::Table ablation(
      "A1: retained-window size vs resync (outage fixed at 5s)",
      {"window_events", "resyncs", "session_repairs", "lost", "catchup_ms"});
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const WatchResult& w = ablation_rows[i];
    ablation.AddRow({bench::I(windows[i]), bench::I(w.resyncs), bench::I(w.session_repairs),
                     bench::I(w.lost), bench::F(w.catchup_ms, 0)});
  }
  ablation.Print();

  std::printf(
      "\nShape check: pubsub loses messages exactly when outage approaches/exceeds retention,\n"
      "with no signal; watch loses nothing (state recovered from the store), signals resync\n"
      "when the window is exceeded, and catches up. Small windows resync more; recovery\n"
      "stays bounded.%s\n",
      durable ? "\nDurable mode: journaling mirrors every append/trim/commit; recovery "
                "rebuilds identical offsets."
              : "");
  (void)kKeys;
  return 0;
}
