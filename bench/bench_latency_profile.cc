// O2/L1: end-to-end latency profile of both delivery pipelines, per stage.
//
// Drives the sharded runtime under an E1-style load grid (1, 2, 4 shards;
// P producers each issuing one publish + one watch ingest per message) with
// tracing enabled, and reports per-stage p50/p99/p99.9 from the obs collector
// for both paths:
//
//   pubsub:  origin -> append -> fetch -> deliver -> ack   (+ origin -> ack)
//   watch:   origin -> append -> deliver -> ack            (+ origin -> ack)
//
// Each grid point also runs the identical workload with tracing disabled
// (obs::SetTracingEnabled(false) — the runtime's default) and reports the
// throughput delta, i.e. the cost of tracing on the hot path. Traced runs use
// admission sampling (--sample=N, default 64: every 64th origin is traced) —
// the production configuration — so the delta stays within noise of the
// disabled mode; --sample=1 traces every record and shows the full cost. The
// disabled mode costs one relaxed atomic load per origin.
//
// The consumer side of the pubsub plane fetches directly from the broker
// facade, so this bench stamps kDeliver/kAck and completes the trace exactly
// the way pubsub::Consumer::Poll does — the bench is the consumer endpoint.
//
// The consumer side of the pubsub plane runs in one of two modes
// (--consumer-mode=event|periodic, default event):
//
//   event:    each partition is owned by one shard-resident Subscription —
//             the owning shard pushes appends into the handoff buffer at
//             append time (stamping kFetch microseconds after kAppend) and
//             rings the consumer's doorbell; consumers drain on wakeup.
//   periodic: the pre-subscription loop — consumers poll Fetch through the
//             facade, so every fetch queues behind the publish storm on the
//             owning shard. This is the baseline whose append->fetch p50
//             sits in the tens of milliseconds under load.
//
//   ./bench_latency_profile [--messages=N] [--producers=P] [--consumers=C]
//                           [--watchers=W] [--sample=N] [--reps=N]
//                           [--consumer-mode=event|periodic] [--json=PATH]
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/json.h"
#include "bench/table.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/collector.h"
#include "obs/trace.h"
#include "pubsub/broker.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"
#include "runtime/shard_pool.h"
#include "runtime/subscription.h"
#include "watch/api.h"

namespace {

constexpr pubsub::PartitionId kPartitions = 8;

// Watcher callback: tracing measures latency now, so the callback only counts.
class CountingCallback : public watch::WatchCallback {
 public:
  void OnEvent(const common::ChangeEvent&) override {
    delivered_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnProgress(const common::ProgressEvent&) override {}
  void OnResync() override { resyncs_.fetch_add(1, std::memory_order_relaxed); }

  std::int64_t delivered() const { return delivered_.load(); }
  std::int64_t resyncs() const { return resyncs_.load(); }

 private:
  std::atomic<std::int64_t> delivered_{0};
  std::atomic<std::int64_t> resyncs_{0};
};

struct RunResult {
  std::size_t shards = 0;
  bool tracing = false;
  double elapsed_sec = 0;
  std::int64_t messages = 0;  // publishes == ingests
  std::int64_t delivered = 0;
  std::int64_t consumed = 0;
  std::int64_t publish_retries = 0;
  std::int64_t ingest_retries = 0;
  double msgs_per_sec = 0;
  std::uint64_t traces_completed = 0;
  obs::Snapshot snapshot;
};

common::Key SplitPoint(std::size_t i, std::size_t n) {
  return common::Key(1, static_cast<char>('a' + (26 * i) / n));
}

RunResult RunOnce(std::size_t shards, int producers, int consumers, int watchers,
                  int per_producer, bool tracing, std::uint64_t sample_every,
                  bool event_consumers) {
  runtime::RuntimeOptions options;
  options.shards = shards;
  options.queue_capacity = 8192;
  options.max_batch = 256;
  for (std::size_t s = 1; s < shards; ++s) {
    options.watch_splits.push_back(SplitPoint(s, shards));
  }
  common::MetricsRegistry registry;
  obs::Collector collector(&registry, {.shards = shards, .worst_traces = 8});
  options.obs = &collector;
  runtime::ShardPool pool(options, &registry);
  runtime::ConcurrentBroker broker(&pool);
  runtime::ConcurrentWatchService watch(&pool);
  pool.Start();
  if (!broker.CreateTopic("bench", {.partitions = kPartitions, .retention = {}}).ok()) {
    std::abort();
  }

  std::vector<std::unique_ptr<CountingCallback>> callbacks;
  std::vector<std::unique_ptr<watch::WatchHandle>> handles;
  for (int w = 0; w < watchers; ++w) {
    const auto i = static_cast<std::size_t>(w);
    const auto n = static_cast<std::size_t>(watchers);
    const common::Key low = i == 0 ? common::Key() : SplitPoint(i, n);
    const common::Key high = i + 1 == n ? common::Key() : SplitPoint(i + 1, n);
    callbacks.push_back(std::make_unique<CountingCallback>());
    handles.push_back(watch.Watch(low, high, 0, callbacks.back().get()));
  }

  for (int c = 0; c < consumers; ++c) {
    if (!broker.JoinGroup("bench-group", "bench", "consumer-" + std::to_string(c)).ok()) {
      std::abort();
    }
  }

  obs::SetTraceSampleEvery(sample_every);
  obs::SetTracingEnabled(tracing);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> consumed{0};
  std::array<std::atomic<pubsub::Offset>, kPartitions> trace_watermark{};
  std::vector<std::thread> consumer_threads;
  // Event mode: each partition is drained through one shard-resident
  // Subscription with a static owner thread (partition p -> thread p mod C).
  // Exclusive ownership makes trace completion exactly-once without the
  // periodic path's watermark, and commits ride the owner shard's queue.
  std::vector<std::unique_ptr<runtime::Subscription>> subs;
  if (event_consumers) {
    for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
      subs.push_back(broker.Subscribe("bench", p, 0));
      if (subs.back() == nullptr) {
        std::abort();
      }
    }
    for (int c = 0; c < consumers; ++c) {
      consumer_threads.emplace_back([&, c] {
        struct Owned {
          pubsub::PartitionId partition;
          runtime::Subscription* sub;
          pubsub::Offset drained = 0;
          pubsub::Offset committed = 0;
        };
        std::vector<Owned> owned;
        for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
          if (static_cast<int>(p) % consumers == c) {
            owned.push_back({p, subs[p].get(), 0});
          }
        }
        if (owned.empty()) {
          return;
        }
        std::vector<pubsub::StoredMessage> batch;
        const auto drain_one = [&](Owned& o) -> std::int64_t {
          batch.clear();
          if (o.sub->PollBatch(&batch, 512) == 0) {
            return 0;
          }
          for (const pubsub::StoredMessage& m : batch) {
            obs::TraceContext trace = m.message.trace;
            if (!trace.active()) {
              continue;
            }
            trace.Stamp(obs::Stage::kDeliver, obs::NowMicros());
            trace.Stamp(obs::Stage::kAck, obs::NowMicros());
            collector.Complete(obs::Path::kPubsub, trace, broker.OwnerShard(o.partition));
          }
          o.drained = batch.back().offset + 1;
          // Commit coarsely: a commit task per small drained batch would
          // contend with the publish storm on the owner shard's queue.
          if (o.drained - o.committed >= 1024) {
            broker.CommitOffsetAsync("bench-group", o.partition, o.drained);
            o.committed = o.drained;
          }
          return static_cast<std::int64_t>(batch.size());
        };
        while (!stop.load(std::memory_order_relaxed)) {
          std::int64_t got = 0;
          for (Owned& o : owned) {
            got += drain_one(o);
          }
          consumed.fetch_add(got, std::memory_order_relaxed);
          if (got == 0) {
            (void)owned.front().sub->Wait(/*timeout_us=*/1000);
          }
        }
        // stop is set only after Quiesce, so the end offsets are final: drain
        // the handoffs to them so every admitted trace completes.
        for (Owned& o : owned) {
          const pubsub::Offset target = broker.EndOffset("bench", o.partition);
          while (o.drained < target) {
            const std::int64_t got = drain_one(o);
            consumed.fetch_add(got, std::memory_order_relaxed);
            if (got == 0) {
              (void)o.sub->Wait(/*timeout_us=*/1000);
            }
          }
          if (o.committed < o.drained) {
            broker.CommitOffsetAsync("bench-group", o.partition, o.drained);
            o.committed = o.drained;
          }
        }
      });
    }
  }
  // Periodic mode: consumer-group members poll assigned partitions through
  // the facade, stamping deliver/ack and completing each traced message the
  // way pubsub::Consumer::Poll does. A member evicted under load gets its
  // partitions re-fetched by another member from that member's own cursor, so
  // a shared per-partition watermark keeps each message's trace from
  // completing twice.
  for (int c = 0; !event_consumers && c < consumers; ++c) {
    consumer_threads.emplace_back([&, c] {
      const std::string member = "consumer-" + std::to_string(c);
      std::map<pubsub::PartitionId, pubsub::Offset> next;
      bool final_pass = false;
      while (true) {
        const bool stopping = stop.load(std::memory_order_relaxed);
        broker.Heartbeat("bench-group", member);
        const auto assigned = broker.AssignedPartitions(
            "bench-group", member, broker.GroupGeneration("bench-group"));
        std::int64_t got = 0;
        for (const pubsub::PartitionId p : assigned) {
          auto batch = broker.Fetch("bench", p, next[p], 512);
          if (!batch.ok() || batch->empty()) {
            continue;
          }
          got += static_cast<std::int64_t>(batch->size());
          for (const pubsub::StoredMessage& m : *batch) {
            obs::TraceContext trace = m.message.trace;
            if (!trace.active()) {
              continue;
            }
            // Advance the completion watermark past this offset; losing the
            // race (or refetching below it) means another member already
            // completed this message's trace.
            pubsub::Offset seen = trace_watermark[p].load(std::memory_order_relaxed);
            bool won = false;
            while (m.offset >= seen) {
              if (trace_watermark[p].compare_exchange_weak(seen, m.offset + 1,
                                                           std::memory_order_relaxed)) {
                won = true;
                break;
              }
            }
            if (!won) {
              continue;
            }
            trace.Stamp(obs::Stage::kDeliver, obs::NowMicros());
            trace.Stamp(obs::Stage::kAck, obs::NowMicros());
            collector.Complete(obs::Path::kPubsub, trace, broker.OwnerShard(p));
          }
          next[p] = batch->back().offset + 1;
          broker.CommitOffset("bench-group", p, next[p]);
        }
        consumed.fetch_add(got, std::memory_order_relaxed);
        if (stopping) {
          if (got == 0 && final_pass) {
            break;  // Drained: two consecutive empty passes after stop.
          }
          final_pass = got == 0;
        } else if (got == 0) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::atomic<std::int64_t> publish_retries{0};
  std::atomic<std::int64_t> ingest_retries{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producer_threads;
  for (int t = 0; t < producers; ++t) {
    producer_threads.emplace_back([&, t] {
      common::Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < per_producer; ++i) {
        const common::Key key =
            common::Key(1, static_cast<char>('a' + rng.Below(26))) + std::to_string(rng.Below(997));
        // Each rejected attempt may have been admitted by the trace sampler;
        // those traces never complete, which the accounting below allows for.
        while (!broker.TryPublish("bench", {key, "m", 0}).ok()) {
          publish_retries.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
        common::ChangeEvent event;
        event.key = key;
        event.mutation = common::Mutation::Put("v");
        event.version = static_cast<common::Version>(t) * 100000000 + i + 1;
        while (!watch.TryIngest(event).ok()) {
          ingest_retries.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producer_threads) {
    t.join();
  }
  pool.Quiesce();  // Every accepted publish/ingest is applied and delivered.
  stop.store(true);
  for (auto& t : consumer_threads) {
    t.join();
  }
  // The clock stops only after the pubsub consumers drained everything: both
  // consumer modes are charged for the same end-to-end work.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  obs::SetTracingEnabled(false);
  obs::SetTraceSampleEvery(1);
  subs.clear();  // Cancel shard-side waiters while the pool still runs.
  pool.Stop();
  handles.clear();

  RunResult r;
  r.shards = shards;
  r.tracing = tracing;
  r.elapsed_sec = std::chrono::duration<double>(elapsed).count();
  r.messages = static_cast<std::int64_t>(producers) * per_producer;
  r.consumed = consumed.load();
  r.publish_retries = publish_retries.load();
  r.ingest_retries = ingest_retries.load();
  for (const auto& cb : callbacks) {
    r.delivered += cb->delivered();
    if (cb->resyncs() != 0) {
      std::fprintf(stderr, "unexpected watcher resync under bench load\n");
      std::abort();
    }
  }
  r.msgs_per_sec = static_cast<double>(r.messages) / r.elapsed_sec;
  r.traces_completed = collector.traces_completed();
  r.snapshot = collector.TakeSnapshot();

  // Tracing accounting: every successful origin that the sampler admits
  // completes exactly one trace (publish -> consumer ack, deduped by the
  // watermark; ingest -> watcher ack, exactly-once by construction).
  // Admission is pseudo-random per origin (Mix64 of a global counter), so the
  // completed count is binomial around attempts/n — allow 6 standard
  // deviations of slack, plus the rejected publish/ingest attempts whose
  // admitted traces are dropped with the record.
  if (tracing) {
    const std::uint64_t n = sample_every == 0 ? 1 : sample_every;
    const auto successes =
        static_cast<std::uint64_t>(r.messages) + static_cast<std::uint64_t>(r.delivered);
    const auto attempts =
        successes + static_cast<std::uint64_t>(r.publish_retries + r.ingest_retries);
    const std::uint64_t retries = attempts - successes;
    const double mean = static_cast<double>(attempts) / static_cast<double>(n);
    const auto slack = static_cast<std::uint64_t>(6.0 * std::sqrt(mean)) + 2;
    const std::uint64_t lo =
        mean > static_cast<double>(retries + slack)
            ? static_cast<std::uint64_t>(mean) - retries - slack
            : 0;
    const std::uint64_t hi = static_cast<std::uint64_t>(mean) + slack;
    if (r.traces_completed < lo || r.traces_completed > hi || r.traces_completed == 0) {
      std::fprintf(stderr,
                   "trace accounting failure: completed=%llu expected in [%llu, %llu] "
                   "(successes=%llu attempts=%llu sample=1/%llu)\n",
                   static_cast<unsigned long long>(r.traces_completed),
                   static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi),
                   static_cast<unsigned long long>(successes),
                   static_cast<unsigned long long>(attempts), static_cast<unsigned long long>(n));
      for (const obs::StageLatency& s : r.snapshot.stages) {
        if (s.shard == -1) {
          std::fprintf(stderr, "  %s %s->%s count=%llu\n", s.path.c_str(), s.from.c_str(),
                       s.to.c_str(), static_cast<unsigned long long>(s.count));
        }
      }
      std::abort();
    }
  }
  return r;
}

// `--json=PATH` writes PATH; bare `--json` writes the canonical
// BENCH_latency.json in the current directory.
std::optional<std::string> JsonPath(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return std::string("BENCH_latency.json");
    }
  }
  return bench::JsonPathFlag(argc, argv);
}

std::int64_t IntFlag(int argc, char** argv, const std::string& name, std::int64_t fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::strtoll(arg.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

std::string StringFlag(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return fallback;
}

// The aggregate (shard == -1) stage rows of a snapshot, for one path.
std::vector<obs::StageLatency> AggregateStages(const obs::Snapshot& snapshot,
                                               const std::string& path) {
  std::vector<obs::StageLatency> out;
  for (const obs::StageLatency& s : snapshot.stages) {
    if (s.shard == -1 && s.path == path) {
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int per_producer = static_cast<int>(IntFlag(argc, argv, "messages", 10000));
  const int producers = static_cast<int>(IntFlag(argc, argv, "producers", 4));
  const int consumers = static_cast<int>(IntFlag(argc, argv, "consumers", 4));
  const int watchers = static_cast<int>(IntFlag(argc, argv, "watchers", 4));
  const int reps = static_cast<int>(IntFlag(argc, argv, "reps", 5));
  const auto sample_every =
      static_cast<std::uint64_t>(IntFlag(argc, argv, "sample", 64));
  const std::string consumer_mode = StringFlag(argc, argv, "consumer-mode", "event");
  if (consumer_mode != "event" && consumer_mode != "periodic") {
    std::fprintf(stderr, "--consumer-mode must be event or periodic\n");
    return 1;
  }
  const bool event_consumers = consumer_mode == "event";
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf(
      "O2/L1: per-stage latency profile — %d producers x %d msgs, %d consumers (%s), "
      "%d watchers, 1/%llu sampling\n",
      producers, per_producer, consumers, consumer_mode.c_str(), watchers,
      static_cast<unsigned long long>(sample_every));
  std::printf("host hardware_concurrency: %u\n", cores);

  // Each grid point runs `reps` interleaved (off, on) pairs. The overhead
  // estimate is the median of the per-pair throughput ratios: adjacent runs
  // see the same host conditions, so each ratio cancels scheduler/thermal
  // drift, and the median strips pair-level outliers — on a small host the
  // run-to-run variance of a single throughput number dwarfs the tracing
  // cost itself. Best-of-reps throughputs are reported alongside.
  struct GridPoint {
    RunResult off;
    RunResult on;
    std::vector<double> off_reps;
    std::vector<double> on_reps;
    double median_overhead_pct = 0;
  };
  const auto median_pair_overhead = [](const GridPoint& p) {
    std::vector<double> ratios;
    for (std::size_t i = 0; i < p.off_reps.size(); ++i) {
      ratios.push_back(p.on_reps[i] / p.off_reps[i]);
    }
    std::sort(ratios.begin(), ratios.end());
    const std::size_t n = ratios.size();
    const double mid =
        n % 2 == 1 ? ratios[n / 2] : (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0;
    return (1.0 - mid) * 100.0;
  };
  const std::vector<std::size_t> shard_counts = {1, 2, 4};
  std::vector<GridPoint> grid;
  std::vector<double> all_ratios;
  for (const std::size_t shards : shard_counts) {
    GridPoint p;
    for (int r = 0; r < reps; ++r) {
      RunResult off = RunOnce(shards, producers, consumers, watchers, per_producer, false,
                              sample_every, event_consumers);
      RunResult on = RunOnce(shards, producers, consumers, watchers, per_producer, true,
                             sample_every, event_consumers);
      p.off_reps.push_back(off.msgs_per_sec);
      p.on_reps.push_back(on.msgs_per_sec);
      if (r == 0 || off.msgs_per_sec > p.off.msgs_per_sec) {
        p.off = std::move(off);
      }
      if (r == 0 || on.msgs_per_sec > p.on.msgs_per_sec) {
        p.on = std::move(on);
      }
    }
    p.median_overhead_pct = median_pair_overhead(p);
    for (std::size_t i = 0; i < p.off_reps.size(); ++i) {
      all_ratios.push_back(p.on_reps[i] / p.off_reps[i]);
    }
    std::printf(
        "  %zu shard(s): off %.0f msgs/sec, on %.0f msgs/sec (best of %d, median-pair "
        "overhead %.1f%%)\n",
        shards, p.off.msgs_per_sec, p.on.msgs_per_sec, reps, p.median_overhead_pct);
    grid.push_back(std::move(p));
  }
  // Headline overhead: the median over every (off, on) pair in the grid —
  // 3x the sample count of any single grid point, so the estimate a small
  // noisy host produces is far more stable than any per-point number.
  std::sort(all_ratios.begin(), all_ratios.end());
  const double overall_overhead_pct =
      all_ratios.empty()
          ? 0.0
          : (1.0 - (all_ratios.size() % 2 == 1
                        ? all_ratios[all_ratios.size() / 2]
                        : (all_ratios[all_ratios.size() / 2 - 1] +
                           all_ratios[all_ratios.size() / 2]) /
                              2.0)) *
                100.0;
  std::printf("  overall median-pair tracing overhead: %.1f%% (%zu pairs)\n",
              overall_overhead_pct, all_ratios.size());

  bench::Table overhead_table("Tracing overhead (same workload, tracing off vs on, best of reps)",
                              {"shards", "off msgs/sec", "on msgs/sec", "overhead %",
                               "traces", "delivered", "consumed"});
  for (const GridPoint& p : grid) {
    overhead_table.AddRow(
        {bench::I(p.on.shards), bench::F(p.off.msgs_per_sec, 0), bench::F(p.on.msgs_per_sec, 0),
         bench::F(p.median_overhead_pct, 1), bench::I(p.on.traces_completed),
         bench::I(static_cast<std::uint64_t>(p.on.delivered)),
         bench::I(static_cast<std::uint64_t>(p.on.consumed))});
  }
  overhead_table.Print();

  // Stage tables from the largest traced run — the most contended grid point.
  const RunResult& profiled = grid.back().on;
  bench::Table stage_table(
      "Per-stage latency at " + std::to_string(profiled.shards) + " shards (aggregate, us)",
      {"path", "stage pair", "count", "p50", "p99", "p99.9", "max"});
  for (const char* path : {"pubsub", "watch"}) {
    for (const obs::StageLatency& s : AggregateStages(profiled.snapshot, path)) {
      stage_table.AddRow({path, s.from + " -> " + s.to, bench::I(s.count), bench::F(s.p50_us, 1),
                          bench::F(s.p99_us, 1), bench::F(s.p999_us, 1), bench::F(s.max_us, 1)});
    }
  }
  stage_table.Print();

  if (const auto json_path = JsonPath(argc, argv)) {
    bench::Json doc = bench::Json::Object();
    doc["bench"] = "bench_latency_profile";
    doc["hardware_concurrency"] = static_cast<std::int64_t>(cores);
    doc["producers"] = producers;
    doc["consumers"] = consumers;
    doc["consumer_mode"] = consumer_mode;
    doc["watchers"] = watchers;
    doc["messages_per_producer"] = per_producer;
    doc["trace_sample_every"] = sample_every;
    doc["reps"] = reps;
    doc["tracing_overhead_overall_median_pct"] = overall_overhead_pct;
    bench::Json& runs = doc["runs"] = bench::Json::Array();
    for (const GridPoint& p : grid) {
      bench::Json& run = runs.Append(bench::Json::Object());
      run["shards"] = static_cast<std::int64_t>(p.on.shards);
      run["tracing_off_msgs_per_sec"] = p.off.msgs_per_sec;
      run["tracing_on_msgs_per_sec"] = p.on.msgs_per_sec;
      run["tracing_overhead_pct"] = p.median_overhead_pct;
      bench::Json& off_reps = run["tracing_off_reps_msgs_per_sec"] = bench::Json::Array();
      for (const double v : p.off_reps) {
        off_reps.Append(bench::Json(v));
      }
      bench::Json& on_reps = run["tracing_on_reps_msgs_per_sec"] = bench::Json::Array();
      for (const double v : p.on_reps) {
        on_reps.Append(bench::Json(v));
      }
      run["messages"] = p.on.messages;
      run["delivered"] = p.on.delivered;
      run["consumed"] = p.on.consumed;
      run["traces_completed"] = p.on.traces_completed;
      for (const char* path : {"pubsub", "watch"}) {
        bench::Json& stages = run[path] = bench::Json::Object();
        for (const obs::StageLatency& s : AggregateStages(p.on.snapshot, path)) {
          bench::Json& pair = stages[s.from + "_to_" + s.to + "_us"] = bench::Json::Object();
          pair["count"] = s.count;
          pair["p50"] = s.p50_us;
          pair["p99"] = s.p99_us;
          pair["p999"] = s.p999_us;
          pair["max"] = s.max_us;
          pair["mean"] = s.mean_us;
        }
      }
      bench::Json& gauges = run["gauges"] = bench::Json::Object();
      for (const auto& [name, value] : p.on.snapshot.gauges) {
        if (name.rfind("obs.", 0) == 0 && name.find(".s", 3) == std::string::npos) {
          gauges[name] = value;  // Aggregate gauges only; shard families stay in text dumps.
        }
      }
    }
    doc["overhead_table"] = bench::TableJson(overhead_table);
    doc["stage_table"] = bench::TableJson(stage_table);
    if (!doc.WriteFile(*json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path->c_str());
  }

  std::printf(
      "\nShape check: every admitted origin completes exactly one trace (publish ->\n"
      "consumer ack, ingest -> watcher ack), so traces ~= (messages + delivered) /\n"
      "sample on each traced run. Tracing overhead is the off-vs-on throughput delta\n"
      "at the configured sampling rate; --sample=1 shows the full always-on cost.\n");
  return 0;
}
