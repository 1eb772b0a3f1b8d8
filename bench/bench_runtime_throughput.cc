// R1: throughput scaling of the sharded concurrent runtime.
//
// Drives P producer threads, C consumer-group members, and W watchers against
// the runtime at 1, 2, 4, and 8 shards and reports aggregate msgs/sec,
// p50/p99 watch delivery latency (wall clock, producer -> watcher callback),
// and scaling efficiency relative to the 1-shard run. Producers hit both
// planes: every iteration publishes one message to the broker (TryPublish
// with retry-on-kUnavailable) and ingests one change event into the watch
// plane (TryIngest, same backpressure discipline), so a "message" below is
// one publish + one ingest.
//
// Scaling expectations depend on the host: on a single hardware thread the
// shards time-slice one core and the curve is flat (the run still validates
// the backpressure accounting); on a 4+-core machine throughput should rise
// monotonically 1 -> 4 shards. The JSON output records hardware_concurrency
// so BENCH_runtime.json is interpretable either way.
//
// The pubsub consumer side runs in one of two modes (--consumer-mode=event|
// periodic, default event): event drains shard-resident Subscriptions woken
// by the broker's append doorbell; periodic polls Fetch through the facade.
// The measured window covers publish AND full pubsub consumption in both
// modes — event mode delivers in-window by construction (the owner shard
// pushes at append time), so stopping the clock at Quiesce would credit the
// periodic mode for consumer work it had merely deferred.
//
// Data plane: --publish-batch=N (default 1) stages N records per
// arena-backed PublishBatch, and --smoke runs a quick 1-shard publish-only
// A/B of batch 512 against batch 1 (best of 2 runs each) and exits nonzero
// if the batched run is slower — the CI perf gate.
//
// Durable mode: --durable=DIR runs one 2-shard, publish-only configuration
// with every shard journaled to a real-file WAL tree (wal::PosixVfs) under a
// fresh DIR/bench_runtime_throughput-wal, replicated to one follower tree
// (RF 2, quorum ack), and reports records/s plus the follower acks sent per
// applied frame. The tree is removed afterwards. Disk timings are noisy, so
// no gate rides on it.
//
// Load modes: the default is the classic closed loop (producers retry
// through backpressure as fast as the runtime admits — peak-capacity
// measurement). --arrival-rate=N switches the publish plane to OPEN-LOOP
// load: arrivals follow a virtual-time schedule fixed by the offered rate
// (bench/loadgen.h — no coordinated omission, the schedule never
// re-anchors), every arrival gets exactly one TryPublish, and a rejection
// is counted as loss instead of silently retried. --theta sets the Zipf
// skew of the open-loop key stream. bench_overload drives this mode past
// saturation; here it makes the R1 scaling rows comparable at a fixed
// offered rate.
//
//   ./bench_runtime_throughput [--messages=N] [--producers=P] [--consumers=C]
//                              [--watchers=W] [--consumer-mode=event|periodic]
//                              [--publish-batch=N] [--arrival-rate=N] [--theta=F]
//                              [--smoke] [--durable=DIR] [--json=PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/json.h"
#include "bench/loadgen.h"
#include "bench/table.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/collector.h"
#include "obs/trace.h"
#include "pubsub/broker.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"
#include "runtime/publish_batch.h"
#include "runtime/shard_pool.h"
#include "runtime/subscription.h"
#include "wal/posix_vfs.h"
#include "watch/api.h"

namespace {

constexpr pubsub::PartitionId kPartitions = 8;

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Watcher callback: every event's payload carries the producer's send
// timestamp; the delta lands in a shared (thread-safe) histogram.
class LatencyCallback : public watch::WatchCallback {
 public:
  LatencyCallback(common::Histogram* latency, std::atomic<std::int64_t>* delivered)
      : latency_(latency), delivered_(delivered) {}

  void OnEvent(const common::ChangeEvent& event) override {
    const std::int64_t sent = std::strtoll(event.mutation.value.c_str(), nullptr, 10);
    latency_->Record(static_cast<double>(NowNanos() - sent) / 1000.0);  // us
    delivered_->fetch_add(1, std::memory_order_relaxed);
  }
  void OnProgress(const common::ProgressEvent&) override {}
  void OnResync() override { resyncs_.fetch_add(1, std::memory_order_relaxed); }

  std::int64_t resyncs() const { return resyncs_.load(); }

 private:
  common::Histogram* latency_;
  std::atomic<std::int64_t>* delivered_;
  std::atomic<std::int64_t> resyncs_{0};
};

struct RunResult {
  std::size_t shards = 0;
  int publish_batch = 1;
  double elapsed_sec = 0;
  std::int64_t messages = 0;  // Closed loop: publishes == ingests. Open loop: offered arrivals.
  std::int64_t accepted = 0;  // == messages in closed loop; TryPublish oks in open loop.
  std::int64_t publish_losses = 0;  // Open loop only: single-attempt rejections.
  std::int64_t publish_retries = 0;
  std::int64_t ingest_retries = 0;
  std::int64_t delivered = 0;
  std::int64_t consumed = 0;
  double p50_us = 0;
  double p99_us = 0;
  double msgs_per_sec = 0;
  // Durable mode: follower acks sent and frames applied.
  std::int64_t repl_acks_sent = 0;
  std::int64_t repl_frames_applied = 0;
};

// Key prefixes spread uniformly over 'a'..'z'; both the shard splits and the
// watcher ranges cut this space, so watchers are affinitized to contiguous
// slices and their union always covers every key regardless of shard count.
common::Key SplitPoint(std::size_t i, std::size_t n) {
  return common::Key(1, static_cast<char>('a' + (26 * i) / n));
}

// `publish_batch` > 1 stages that many records per arena-backed PublishBatch
// (one key per batch, so the batch is a single shard group and its
// retry-on-kUnavailable is all-or-nothing);
// `publish_only` drops the watch-plane ingest so a --smoke A/B measures the
// pubsub data plane in isolation.
// `arrival_rate` > 0 switches the publish plane to open-loop mode: the rate
// is split across producers, each following its own seeded virtual-time
// schedule for per_producer arrivals with ONE TryPublish per arrival
// (`theta` skews the keys); 0 is the classic closed loop.
// A non-empty `durable_dir` journals every shard to real files under it,
// replicated to one follower tree (RF 2).
RunResult RunOnce(std::size_t shards, int producers, int consumers, int watchers,
                  int per_producer, bool trace, bool event_consumers, int publish_batch,
                  bool publish_only, double arrival_rate = 0, double theta = 0,
                  const std::string& durable_dir = "") {
  wal::PosixVfs posix_vfs;  // Outlives the pool.
  runtime::RuntimeOptions options;
  if (!durable_dir.empty()) {
    options.durable_vfs = &posix_vfs;
    options.durable_dir = durable_dir;
    options.replication_factor = 2;
  }
  options.shards = shards;
  options.queue_capacity = 8192;
  options.max_batch = 256;
  for (std::size_t s = 1; s < shards; ++s) {
    options.watch_splits.push_back(SplitPoint(s, shards));
  }
  // --trace: wire the obs collector and enable 1/64 admission sampling (the
  // production tracing configuration).
  common::MetricsRegistry trace_registry;
  std::unique_ptr<obs::Collector> collector;
  if (trace) {
    collector = std::make_unique<obs::Collector>(&trace_registry,
                                                 obs::CollectorOptions{.shards = shards});
    options.obs = collector.get();
    obs::SetTraceSampleEvery(64);
    obs::SetTracingEnabled(true);
  }
  runtime::ShardPool pool(options);
  runtime::ConcurrentBroker broker(&pool);
  runtime::ConcurrentWatchService watch(&pool);
  pool.Start();
  if (!broker.CreateTopic("bench", {.partitions = kPartitions, .retention = {}}).ok()) {
    std::abort();
  }

  common::Histogram& latency = pool.metrics().histogram("delivery_latency_us");
  std::atomic<std::int64_t> delivered{0};

  std::vector<std::unique_ptr<LatencyCallback>> callbacks;
  std::vector<std::unique_ptr<watch::WatchHandle>> handles;
  for (int w = 0; w < watchers; ++w) {
    const auto i = static_cast<std::size_t>(w);
    const auto n = static_cast<std::size_t>(watchers);
    const common::Key low = i == 0 ? common::Key() : SplitPoint(i, n);
    const common::Key high = i + 1 == n ? common::Key() : SplitPoint(i + 1, n);
    callbacks.push_back(std::make_unique<LatencyCallback>(&latency, &delivered));
    handles.push_back(watch.Watch(low, high, 0, callbacks.back().get()));
  }

  // Consumer-group members: poll assigned partitions, commit as they go.
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> consumed{0};
  std::vector<std::thread> consumer_threads;
  for (int c = 0; c < consumers; ++c) {
    const std::string member = "consumer-" + std::to_string(c);
    if (!broker.JoinGroup("bench-group", "bench", member).ok()) {
      std::abort();
    }
  }
  // Event mode: static partition ownership (partition p -> thread p mod C),
  // one shard-resident subscription per partition, coarse async commits.
  std::vector<std::unique_ptr<runtime::Subscription>> subs;
  if (event_consumers && consumers > 0) {
    // Throughput posture: widen the doorbell coalesce window to the waiter's
    // sweep park (5 ms). Rings then only pay for idle-edge latency; sustained
    // load is drained on sweep boundaries, so consumer wakeups — which
    // time-slice against the shard workers on small hosts — are bounded at
    // ~200/s per subscription instead of ~2000/s. (NIC interrupt moderation,
    // applied to the egress doorbell.)
    for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
      runtime::SubscriptionOptions sopt;
      sopt.wake_coalesce_us = 5000;
      subs.push_back(broker.Subscribe("bench", p, 0, sopt));
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
            owned.push_back({p, subs[p].get(), 0, 0});
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
          o.drained = batch.back().offset + 1;
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
            (void)owned.front().sub->Wait(/*timeout_us=*/5000);
          }
        }
        // stop is set only after Quiesce: end offsets are final.
        for (Owned& o : owned) {
          const pubsub::Offset target = broker.EndOffset("bench", o.partition);
          while (o.drained < target) {
            const std::int64_t got = drain_one(o);
            consumed.fetch_add(got, std::memory_order_relaxed);
            if (got == 0) {
              (void)o.sub->Wait(/*timeout_us=*/5000);
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
  std::atomic<std::int64_t> publish_losses{0};
  std::atomic<std::int64_t> open_accepted{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> producer_threads;
  for (int t = 0; t < producers; ++t) {
    producer_threads.emplace_back([&, t] {
      common::Rng rng(static_cast<std::uint64_t>(t) + 1);
      const auto make_key = [&rng] {
        return common::Key(1, static_cast<char>('a' + rng.Below(26))) +
               std::to_string(rng.Below(997));
      };
      const auto ingest_one = [&](int i) {
        // Watch plane: the payload is the send timestamp for latency.
        common::ChangeEvent event;
        event.key = make_key();
        event.mutation = common::Mutation::Put(std::to_string(NowNanos()));
        event.version = static_cast<common::Version>(t) * 100000000 + i + 1;
        while (!watch.TryIngest(event).ok()) {
          ingest_retries.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      };
      if (arrival_rate > 0) {
        // Open loop: one TryPublish per scheduled arrival; a rejection is
        // loss, never a retry (retrying would re-close the loop). Ingest
        // rides along per ACCEPTED publish so the watch plane still sees
        // the same record stream, just thinned by the loss.
        bench::OpenLoopGen gen({.rate_per_sec = arrival_rate / producers,
                                .zipf_theta = theta,
                                .key_space = 26 * 997,
                                .seed = static_cast<std::uint64_t>(t) + 1});
        const std::int64_t epoch_us = NowNanos() / 1000;
        for (int i = 0; i < per_producer; ++i) {
          const std::int64_t target = epoch_us + gen.NextDueUs();
          const std::int64_t now = NowNanos() / 1000;
          if (target - now > 150) {
            // Ahead of schedule: sleep to the due time. Behind: fire now —
            // the schedule never re-anchors (see bench/loadgen.h).
            std::this_thread::sleep_for(std::chrono::microseconds(target - now - 100));
          }
          if (broker.TryPublish("bench", {bench::RankKey(gen.NextRank()), "m", 0, {}}).ok()) {
            open_accepted.fetch_add(1, std::memory_order_relaxed);
            if (!publish_only) {
              ingest_one(i);
            }
          } else {
            publish_losses.fetch_add(1, std::memory_order_relaxed);
          }
        }
        return;
      }
      if (publish_batch > 1) {
        // Batched data plane: stage publish_batch records per arena batch.
        // One key per batch keeps the whole batch on one partition (a single
        // shard group), so a retry after kUnavailable cannot double-publish.
        for (int i = 0; i < per_producer;) {
          const int n = std::min(publish_batch, per_producer - i);
          auto batch = std::make_shared<runtime::PublishBatch>(static_cast<std::size_t>(n));
          const common::Key key = make_key();
          for (int j = 0; j < n; ++j) {
            batch->Add(key, "m");
          }
          while (!broker.TryPublishBatch("bench", batch).ok()) {
            publish_retries.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::yield();
          }
          if (!publish_only) {
            for (int j = 0; j < n; ++j) {
              ingest_one(i + j);
            }
          }
          i += n;
        }
        return;
      }
      for (int i = 0; i < per_producer; ++i) {
        // Publish plane: retry through backpressure, counting each bounce.
        while (!broker.TryPublish("bench", {make_key(), "m", 0, {}}).ok()) {
          publish_retries.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
        if (!publish_only) {
          ingest_one(i);
        }
      }
    });
  }
  for (auto& t : producer_threads) {
    t.join();
  }
  pool.Quiesce();  // Every accepted publish/ingest is applied; watch delivery done.
  if (!pool.durable_status().ok()) {
    std::fprintf(stderr, "durable write failed: %s\n", pool.durable_status().message().c_str());
    std::abort();
  }
  stop.store(true);
  for (auto& t : consumer_threads) {
    t.join();
  }
  // The clock stops only after the pubsub consumers drained everything: both
  // modes are charged for the same end-to-end work, whether delivery ran
  // in-window (event pushes at append time) or lagged (periodic catch-up).
  const auto elapsed = std::chrono::steady_clock::now() - start;
  if (trace) {
    obs::SetTracingEnabled(false);
    obs::SetTraceSampleEvery(1);
  }
  subs.clear();  // Cancel shard-side waiters while the pool still runs.
  pool.Stop();
  handles.clear();

  RunResult r;
  r.shards = shards;
  r.publish_batch = publish_batch;
  r.elapsed_sec = std::chrono::duration<double>(elapsed).count();
  r.messages = static_cast<std::int64_t>(producers) * per_producer;
  r.accepted = arrival_rate > 0 ? open_accepted.load() : r.messages;
  r.publish_losses = publish_losses.load();
  r.publish_retries = publish_retries.load();
  r.ingest_retries = ingest_retries.load();
  r.delivered = delivered.load();
  r.consumed = consumed.load();
  r.p50_us = latency.Percentile(50);
  r.p99_us = latency.Percentile(99);
  r.repl_acks_sent = pool.metrics().counter("wal.repl.acks_sent").value();
  r.repl_frames_applied = pool.metrics().counter("wal.repl.frames_applied").value();
  // Open loop: goodput is what was ACCEPTED; offered arrivals that bounced
  // are loss, not throughput.
  r.msgs_per_sec = static_cast<double>(r.accepted) / r.elapsed_sec;

  // Loud-failure audit: everything accepted must be accounted for.
  std::int64_t appended = 0;
  for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
    appended += static_cast<std::int64_t>(
        pool.core(broker.OwnerShard(p)).broker->EndOffset("bench", p));
  }
  std::int64_t resyncs = 0;
  for (const auto& cb : callbacks) {
    resyncs += cb->resyncs();
  }
  if (appended != r.accepted || resyncs != 0) {
    std::fprintf(stderr, "accounting failure: appended=%lld accepted=%lld resyncs=%lld\n",
                 static_cast<long long>(appended), static_cast<long long>(r.accepted),
                 static_cast<long long>(resyncs));
    std::abort();
  }
  return r;
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

double DoubleFlag(int argc, char** argv, const std::string& name, double fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return std::strtod(arg.c_str() + prefix.size(), nullptr);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const int per_producer = static_cast<int>(IntFlag(argc, argv, "messages", 10000));
  const int producers = static_cast<int>(IntFlag(argc, argv, "producers", 4));
  const int consumers = static_cast<int>(IntFlag(argc, argv, "consumers", 4));
  const int watchers = static_cast<int>(IntFlag(argc, argv, "watchers", 4));
  const int publish_batch = static_cast<int>(IntFlag(argc, argv, "publish-batch", 1));
  const double arrival_rate = DoubleFlag(argc, argv, "arrival-rate", 0);
  const double theta = DoubleFlag(argc, argv, "theta", 0);
  bool trace = false;
  bool smoke = false;
  std::string consumer_mode = "event";
  std::string durable_root;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--consumer-mode=", 0) == 0) {
      consumer_mode = arg.substr(std::string("--consumer-mode=").size());
    } else if (arg.rfind("--durable=", 0) == 0) {
      durable_root = arg.substr(std::string("--durable=").size());
    }
  }
  if (consumer_mode != "event" && consumer_mode != "periodic") {
    std::fprintf(stderr, "--consumer-mode must be event or periodic\n");
    return 1;
  }
  const bool event_consumers = consumer_mode == "event";
  const unsigned cores = std::thread::hardware_concurrency();

  if (smoke) {
    // CI perf gate: 1-shard publish-only A/B of 512-record arena batches
    // against singles. 512 and not less because each batch post that finds
    // the shard worker parked pays a wake + context-switch round trip; the
    // batch must amortize that fixed cost as well as the per-record savings.
    // Best-of-2 per side absorbs scheduler noise on small CI hosts; a batched
    // result below the singles baseline fails the build.
    constexpr int kSmokeBatch = 512;
    const auto best_of = [&](int batch) {
      RunResult best;
      for (int rep = 0; rep < 2; ++rep) {
        RunResult r = RunOnce(1, producers, 0, 0, per_producer, false, event_consumers, batch,
                              /*publish_only=*/true);
        if (r.msgs_per_sec > best.msgs_per_sec) {
          best = r;
        }
      }
      return best;
    };
    std::printf("smoke: 1-shard publish-only A/B, %d producers x %d msgs\n", producers,
                per_producer);
    const RunResult single_r = best_of(1);
    const RunResult batched_r = best_of(kSmokeBatch);
    const double gain = batched_r.msgs_per_sec / single_r.msgs_per_sec;
    std::printf("  batch=1:   %.0f msgs/sec\n", single_r.msgs_per_sec);
    std::printf("  batch=%d: %.0f msgs/sec  (%.2fx)\n", kSmokeBatch, batched_r.msgs_per_sec,
                gain);
    if (const auto json_path = bench::JsonPathFlag(argc, argv)) {
      bench::Json doc = bench::Json::Object();
      doc["bench"] = "bench_runtime_throughput_smoke";
      doc["hardware_concurrency"] = static_cast<std::int64_t>(cores);
      doc["single_msgs_per_sec"] = single_r.msgs_per_sec;
      doc["batched_msgs_per_sec"] = batched_r.msgs_per_sec;
      doc["publish_batch"] = static_cast<std::int64_t>(kSmokeBatch);
      doc["batch_gain"] = gain;
      if (!doc.WriteFile(*json_path)) {
        std::fprintf(stderr, "failed to write %s\n", json_path->c_str());
        return 1;
      }
    }
    if (batched_r.msgs_per_sec < single_r.msgs_per_sec) {
      std::fprintf(stderr,
                   "SMOKE FAIL: batched publish (%.0f msgs/sec) regressed below the "
                   "single-publish baseline (%.0f msgs/sec)\n",
                   batched_r.msgs_per_sec, single_r.msgs_per_sec);
      return 1;
    }
    std::printf("smoke PASS\n");
    return 0;
  }

  if (!durable_root.empty()) {
    // A fresh tree per run: a leftover one would be recovered, topic and all.
    const std::filesystem::path dir =
        std::filesystem::path(durable_root) / "bench_runtime_throughput-wal";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    const RunResult r = RunOnce(2, producers, consumers, /*watchers=*/0, per_producer, trace,
                                event_consumers, publish_batch, /*publish_only=*/true,
                                /*arrival_rate=*/0, /*theta=*/0, dir.string());
    std::filesystem::remove_all(dir, ec);
    const double acks_per_frame =
        r.repl_frames_applied > 0
            ? static_cast<double>(r.repl_acks_sent) / static_cast<double>(r.repl_frames_applied)
            : 0;
    std::printf("durable: 2 shards, RF 2 on real files under %s, %d producers x %d records, "
                "publish batch %d, %d consumers (%s)\n",
                durable_root.c_str(), producers, per_producer, publish_batch, consumers,
                consumer_mode.c_str());
    std::printf("  %.0f records/sec (%.2fs), follower acks per applied frame %.3f (%lld / %lld)\n",
                r.msgs_per_sec, r.elapsed_sec, acks_per_frame,
                static_cast<long long>(r.repl_acks_sent),
                static_cast<long long>(r.repl_frames_applied));
    if (const auto json_path = bench::JsonPathFlag(argc, argv)) {
      bench::Json doc = bench::Json::Object();
      doc["bench"] = "bench_runtime_throughput_durable";
      doc["hardware_concurrency"] = static_cast<std::int64_t>(cores);
      doc["producers"] = producers;
      doc["consumers"] = consumers;
      doc["messages_per_producer"] = per_producer;
      doc["publish_batch"] = static_cast<std::int64_t>(publish_batch);
      doc["records_per_sec"] = r.msgs_per_sec;
      doc["elapsed_sec"] = r.elapsed_sec;
      doc["repl_acks_sent"] = r.repl_acks_sent;
      doc["repl_frames_applied"] = r.repl_frames_applied;
      if (!doc.WriteFile(*json_path)) {
        std::fprintf(stderr, "failed to write %s\n", json_path->c_str());
        return 1;
      }
    }
    return 0;
  }

  std::printf(
      "R1: runtime throughput scaling — %d producers x %d msgs, %d consumers (%s), %d watchers%s\n",
      producers, per_producer, consumers, consumer_mode.c_str(), watchers,
      trace ? " [--trace]" : "");
  if (arrival_rate > 0) {
    std::printf("load mode: open-loop, %.0f arrivals/sec offered, zipf theta %.2f "
                "(one attempt per arrival; rejections are loss)\n",
                arrival_rate, theta);
  }
  std::printf("host hardware_concurrency: %u%s\n", cores,
              cores < 4 ? " (scaling curve will be flat below 4 cores)" : "");

  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  std::vector<RunResult> results;
  for (const std::size_t shards : shard_counts) {
    results.push_back(RunOnce(shards, producers, consumers, watchers, per_producer, trace,
                              event_consumers, publish_batch, /*publish_only=*/false,
                              arrival_rate, theta));
    const RunResult& r = results.back();
    std::printf("  %zu shard(s): %.0f msgs/sec (%.2fs, batch=%d)\n", shards, r.msgs_per_sec,
                r.elapsed_sec, r.publish_batch);
  }

  // Speedup is relative to the 1-shard run.
  const double base = results.front().msgs_per_sec;
  bench::Table table("Runtime throughput scaling (publish + ingest per message)",
                     {"batch", "shards", "msgs/sec", "p50_us", "p99_us", "delivered", "consumed",
                      "retries", "speedup", "efficiency"});
  for (const RunResult& r : results) {
    const double speedup = r.msgs_per_sec / base;
    table.AddRow({bench::I(static_cast<std::uint64_t>(r.publish_batch)), bench::I(r.shards),
                  bench::F(r.msgs_per_sec, 0), bench::F(r.p50_us, 1),
                  bench::F(r.p99_us, 1), bench::I(static_cast<std::uint64_t>(r.delivered)),
                  bench::I(static_cast<std::uint64_t>(r.consumed)),
                  bench::I(static_cast<std::uint64_t>(r.publish_retries + r.ingest_retries)),
                  bench::F(speedup, 2),
                  bench::F(speedup / static_cast<double>(r.shards), 2)});
  }
  table.Print();

  if (const auto json_path = bench::JsonPathFlag(argc, argv)) {
    bench::Json doc = bench::Json::Object();
    doc["bench"] = "bench_runtime_throughput";
    doc["hardware_concurrency"] = static_cast<std::int64_t>(cores);
    doc["traced"] = trace;
    doc["producers"] = producers;
    doc["consumers"] = consumers;
    doc["consumer_mode"] = consumer_mode;
    doc["watchers"] = watchers;
    doc["messages_per_producer"] = per_producer;
    doc["load_mode"] = std::string(arrival_rate > 0 ? "open-loop" : "closed-loop");
    if (arrival_rate > 0) {
      doc["arrival_rate_per_sec"] = arrival_rate;
      doc["zipf_theta"] = theta;
      doc["methodology"] =
          "poisson virtual-time schedule (bench/loadgen.h), one attempt per "
          "arrival, rejections counted as loss; no coordinated omission";
    }
    bench::Json& runs = doc["runs"] = bench::Json::Array();
    for (const RunResult& r : results) {
      bench::Json& run = runs.Append(bench::Json::Object());
      run["publish_batch"] = static_cast<std::int64_t>(r.publish_batch);
      run["shards"] = static_cast<std::int64_t>(r.shards);
      run["elapsed_sec"] = r.elapsed_sec;
      run["msgs_per_sec"] = r.msgs_per_sec;
      run["p50_us"] = r.p50_us;
      run["p99_us"] = r.p99_us;
      run["messages"] = r.messages;
      run["accepted"] = r.accepted;
      run["publish_losses"] = r.publish_losses;
      run["delivered"] = r.delivered;
      run["consumed"] = r.consumed;
      run["publish_retries"] = r.publish_retries;
      run["ingest_retries"] = r.ingest_retries;
      run["speedup_vs_1_shard"] = r.msgs_per_sec / base;
      run["efficiency"] = r.msgs_per_sec / base / static_cast<double>(r.shards);
    }
    doc["table"] = bench::TableJson(table);
    if (!doc.WriteFile(*json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path->c_str());
  }

  std::printf(
      "\nShape check: accepted == appended on every run (the backpressure contract is\n"
      "loud, never lossy). Scaling toward the ROADMAP north star needs >= 4 hardware\n"
      "threads; below that the shards time-slice one core.\n");
  return 0;
}
