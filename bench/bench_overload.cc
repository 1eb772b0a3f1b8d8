// R2: behavior past saturation — open-loop overload sweep and the
// slow-consumer policy matrix.
//
// Closed-loop drivers deflate offered load to whatever the system absorbs
// (bench/loadgen.h explains the coordinated-omission trap); this bench
// instead offers arrival-rate-driven load from a virtual-time schedule and
// charges every sojourn from the SCHEDULED arrival, so the latency columns
// include the backlog delay a saturated system builds up. Each arrival gets
// exactly ONE TryPublish: a rejection is loss at the ingress (counted, with
// the retry_after hint histogrammed), never a silent retry — the open-loop
// analogue of the runtime's loud-backpressure posture.
//
// Three sections, all with core-pinned shard workers where the host allows
// (RuntimeOptions::pin_shards; the JSON records how many pins stuck):
//
//   1. Calibration: a short burst at an absurd offered rate measures the
//      1-shard ingress capacity; the sweep's rate ladder straddles it
//      (capacity/2 .. 4x — the goodput knee lands mid-ladder wherever the
//      host puts it).
//   2. Policy matrix: offered-vs-goodput / loss / p99-sojourn / retry-hint
//      curves per SlowConsumerPolicy, with a deliberately throttled consumer
//      so the handoff lanes actually overflow: kBlock stalls (loses nothing,
//      lag grows), kDropOldest sheds counted drops at the lane, kDisconnect
//      cuts the subscription and goodput-to-consumer collapses.
//   3. Shard scaling: the same open-loop load past saturation at 1/2/4/8
//      shards; the efficiency column is goodput(s) / (s * goodput(1)).
//      Zipf-skewed keys feed a sharding::AutoSharder mid-bench (sampled
//      ReportLoad + periodic RebalanceNow), so the hot key range splits
//      while the run is in flight — the hot-partition story, recorded as
//      autosharder_splits.
//
//   ./bench_overload [--duration-ms=N] [--points=N] [--theta=F] [--keys=N]
//                    [--producers=P] [--matrix-shards=N] [--sip=N]
//                    [--consumer-delay-us=N] [--policy=block|drop_oldest|
//                    disconnect|all] [--efficiency-floor=F] [--smoke]
//                    [--json=PATH]
//
// --smoke is the CI gate: a small sweep that exits nonzero if the 8-shard
// efficiency falls below the floor (auto: host-aware) or if ANY acked record
// fails to reach the consumer under kBlock.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/json.h"
#include "bench/loadgen.h"
#include "bench/table.h"
#include "common/metrics.h"
#include "common/types.h"
#include "pubsub/types.h"
#include "runtime/concurrent_broker.h"
#include "runtime/shard_pool.h"
#include "runtime/subscription.h"
#include "sharding/autosharder.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace {

constexpr pubsub::PartitionId kPartitions = 8;

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PointConfig {
  std::size_t shards = 2;
  double offered_rate = 0;  // Total across producers.
  runtime::SlowConsumerPolicy policy = runtime::SlowConsumerPolicy::kBlock;
  int producers = 2;
  int duration_ms = 1500;
  double theta = 0.9;
  std::uint64_t keys = 4096;
  std::size_t handoff = 1024;
  std::size_t sip = 64;             // Consumer batch per sub per round.
  int consumer_delay_us = 0;        // Per-round throttle (the slow consumer).
  bool drive_sharder = false;       // Feed an AutoSharder mid-bench.
};

struct PointResult {
  PointConfig config;
  double elapsed_sec = 0;
  std::size_t pinned_shards = 0;
  std::int64_t offered = 0;   // Arrivals the schedule produced in-window.
  std::int64_t accepted = 0;  // TryPublish ok.
  std::int64_t rejected = 0;  // TryPublish kUnavailable (ingress loss).
  std::int64_t delivered_in_window = 0;
  std::int64_t delivered_total = 0;  // After the post-window drain.
  std::int64_t handoff_drops = 0;
  std::int64_t stalls = 0;
  std::int64_t disconnects = 0;
  double goodput_per_sec = 0;  // delivered_in_window / window.
  double accept_per_sec = 0;
  double loss_fraction = 0;  // 1 - delivered_total / offered.
  double sojourn_p50_us = 0;
  double sojourn_p99_us = 0;
  double hint_mean_us = 0;
  double hint_max_us = 0;
  std::uint64_t autosharder_splits = 0;
  std::size_t autosharder_shards = 0;
  bool acked_all_delivered = false;  // kBlock contract after full drain.
};

// One open-loop point: offered_rate for duration_ms against `shards` shards,
// consumers under `policy`.
PointResult RunPoint(const PointConfig& cfg) {
  runtime::RuntimeOptions options;
  options.shards = cfg.shards;
  options.queue_capacity = 4096;
  options.pin_shards = true;
  runtime::ShardPool pool(options);
  runtime::ConcurrentBroker broker(&pool);
  pool.Start();
  if (!broker.CreateTopic("load", {.partitions = kPartitions}).ok()) {
    std::abort();
  }

  // The sharder observes the same key stream the runtime serves (sampled
  // 1-in-16, weight 16): Zipf heat concentrates on the low ranks, and the
  // periodic rebalance splits that range mid-bench.
  sim::Simulator sharder_sim;
  sim::Network sharder_net(&sharder_sim);
  sharding::AutoSharder sharder(&sharder_sim, &sharder_net,
                                {.split_threshold = 2000, .load_decay = 0.7});
  std::mutex sharder_mu;
  if (cfg.drive_sharder) {
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      const std::string worker = "w" + std::to_string(s);
      sharder_net.AddNode(worker);  // A worker the network never saw is "down".
      sharder.AddWorker(worker);
    }
  }

  std::vector<std::unique_ptr<runtime::Subscription>> subs;
  for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
    runtime::SubscriptionOptions sopt;
    sopt.handoff_capacity = cfg.handoff;
    sopt.shard_batch = 256;
    sopt.wake_coalesce_us = 5000;
    sopt.slow_consumer = cfg.policy;
    subs.push_back(broker.Subscribe("load", p, 0, sopt));
    if (subs.back() == nullptr) {
      std::abort();
    }
  }

  // The (deliberately slow) consumer: small sips per sub per round, an
  // artificial delay per round. Post-window it switches to full-speed drain
  // so the loss accounting converges.
  std::atomic<bool> window_over{false};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> delivered{0};
  std::thread consumer([&] {
    std::vector<pubsub::StoredMessage> batch;
    while (!stop.load(std::memory_order_relaxed)) {
      std::int64_t got = 0;
      for (auto& sub : subs) {
        batch.clear();
        got += static_cast<std::int64_t>(
            sub->PollBatch(&batch, window_over.load(std::memory_order_relaxed)
                                       ? 4096
                                       : cfg.sip));
      }
      delivered.fetch_add(got, std::memory_order_relaxed);
      if (got == 0) {
        (void)subs.front()->Wait(/*timeout_us=*/2000);
      } else if (!window_over.load(std::memory_order_relaxed) && cfg.consumer_delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(cfg.consumer_delay_us));
      }
    }
  });

  common::MetricsRegistry side;  // Bench-side histograms (not the pool's).
  common::Histogram& sojourn = side.histogram("sojourn_us");
  common::Histogram& hints = side.histogram("retry_hint_us");
  std::atomic<std::int64_t> offered{0}, accepted{0}, rejected{0};

  const std::int64_t duration_us = static_cast<std::int64_t>(cfg.duration_ms) * 1000;
  const std::int64_t t0 = NowUs();
  std::vector<std::thread> producers;
  for (int t = 0; t < cfg.producers; ++t) {
    producers.emplace_back([&, t] {
      bench::OpenLoopGen gen({.rate_per_sec = cfg.offered_rate / cfg.producers,
                              .zipf_theta = cfg.theta,
                              .key_space = cfg.keys,
                              .seed = static_cast<std::uint64_t>(t) + 1});
      std::int64_t n = 0;
      for (;;) {
        const std::int64_t due = gen.NextDueUs();
        if (due >= duration_us) {
          break;
        }
        const std::int64_t target = t0 + due;
        std::int64_t now = NowUs();
        if (target - now > 150) {
          // Ahead of schedule: sleep up to the due time. Behind schedule:
          // fire immediately — the schedule does NOT re-anchor, so a stalled
          // system faces the burst of everything that came due meanwhile.
          std::this_thread::sleep_for(std::chrono::microseconds(target - now - 100));
          now = NowUs();
        }
        const std::uint64_t rank = gen.NextRank();
        const std::string key = bench::RankKey(rank);
        offered.fetch_add(1, std::memory_order_relaxed);
        common::TimeMicros hint = 0;
        if (broker.TryPublish("load", {key, "m", 0, {}}, std::nullopt, &hint).ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
          sojourn.Record(static_cast<double>(std::max<std::int64_t>(0, NowUs() - target)));
          if (cfg.drive_sharder && (++n & 15) == 0) {
            std::lock_guard<std::mutex> lock(sharder_mu);
            sharder.ReportLoad(key, 16.0);
          }
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
          hints.Record(static_cast<double>(hint));
        }
      }
    });
  }
  // Mid-bench rebalances: the hot range splits while load is in flight.
  std::thread rebalancer;
  if (cfg.drive_sharder) {
    rebalancer = std::thread([&] {
      while (!window_over.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::lock_guard<std::mutex> lock(sharder_mu);
        sharder.RebalanceNow();
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  const std::int64_t window_delivered = delivered.load(std::memory_order_relaxed);
  const double elapsed = static_cast<double>(NowUs() - t0) / 1e6;
  window_over.store(true, std::memory_order_relaxed);
  if (rebalancer.joinable()) {
    rebalancer.join();
  }

  // Drain: every accepted record is in a partition log; give the (now
  // full-speed) consumer until the cursors reach the ends — except broken
  // (kDisconnect) subscriptions, whose remaining log entries are the
  // policy's documented loss.
  pool.Quiesce();
  std::int64_t appended = 0;
  for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
    appended += static_cast<std::int64_t>(broker.EndOffset("load", p));
  }
  const std::int64_t deadline = NowUs() + 20 * 1000 * 1000;
  for (;;) {
    bool done = true;
    for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
      if (!subs[p]->broken() &&
          subs[p]->cursor() < broker.EndOffset("load", p)) {
        done = false;
      }
    }
    std::int64_t buffered = 0;
    if (done) {
      // Cursors caught up; let the consumer finish the buffered tail.
      std::int64_t total = 0;
      for (pubsub::PartitionId p = 0; p < kPartitions; ++p) {
        if (!subs[p]->broken()) {
          total += static_cast<std::int64_t>(broker.EndOffset("load", p)) -
                   static_cast<std::int64_t>(subs[p]->drops());
        }
      }
      buffered = total - delivered.load(std::memory_order_relaxed);
      if (buffered <= 0) {
        break;
      }
    }
    if (NowUs() > deadline) {
      std::fprintf(stderr, "drain timeout (buffered=%lld)\n",
                   static_cast<long long>(buffered));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_relaxed);
  consumer.join();

  PointResult r;
  r.config = cfg;
  r.elapsed_sec = elapsed;
  r.pinned_shards = pool.pinned_shards();
  r.offered = offered.load();
  r.accepted = accepted.load();
  r.rejected = rejected.load();
  r.delivered_in_window = window_delivered;
  r.delivered_total = delivered.load();
  for (auto& sub : subs) {
    r.handoff_drops += static_cast<std::int64_t>(sub->drops());
  }
  r.stalls =
      static_cast<std::int64_t>(pool.metrics().counter("runtime.slow_consumer.stalls").value());
  r.disconnects = static_cast<std::int64_t>(
      pool.metrics().counter("runtime.slow_consumer.disconnects").value());
  r.goodput_per_sec = static_cast<double>(r.delivered_in_window) / elapsed;
  r.accept_per_sec = static_cast<double>(r.accepted) / elapsed;
  r.loss_fraction =
      r.offered == 0
          ? 0
          : 1.0 - static_cast<double>(r.delivered_total) / static_cast<double>(r.offered);
  r.sojourn_p50_us = sojourn.Percentile(50);
  r.sojourn_p99_us = sojourn.Percentile(99);
  r.hint_mean_us = hints.Mean();
  r.hint_max_us = hints.Max();
  if (cfg.drive_sharder) {
    r.autosharder_splits = sharder.splits();
    r.autosharder_shards = sharder.Shards().size();
  }
  // The kBlock contract: everything acked reached the consumer (appended is
  // the ground truth; accepted must equal appended, and delivery must cover
  // it once drains finish).
  r.acked_all_delivered = r.accepted == appended && r.delivered_total == r.accepted &&
                          r.handoff_drops == 0;

  subs.clear();
  pool.Stop();
  return r;
}

const char* PolicyName(runtime::SlowConsumerPolicy p) {
  return runtime::SlowConsumerPolicyName(p);
}

std::int64_t IntFlag(int argc, char** argv, const std::string& name, std::int64_t fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::strtoll(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return fallback;
}

double DoubleFlag(int argc, char** argv, const std::string& name, double fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return std::strtod(argv[i] + prefix.size(), nullptr);
    }
  }
  return fallback;
}

bench::Json PointJson(const PointResult& r) {
  bench::Json run = bench::Json::Object();
  run["policy"] = std::string(PolicyName(r.config.policy));
  run["shards"] = static_cast<std::int64_t>(r.config.shards);
  run["pinned_shards"] = static_cast<std::int64_t>(r.pinned_shards);
  run["offered_rate"] = r.config.offered_rate;
  run["offered"] = r.offered;
  run["accepted"] = r.accepted;
  run["rejected"] = r.rejected;
  run["delivered_in_window"] = r.delivered_in_window;
  run["delivered_total"] = r.delivered_total;
  run["handoff_drops"] = r.handoff_drops;
  run["stalls"] = r.stalls;
  run["disconnects"] = r.disconnects;
  run["goodput_msgs_per_sec"] = r.goodput_per_sec;
  run["accept_msgs_per_sec"] = r.accept_per_sec;
  run["loss_fraction"] = r.loss_fraction;
  run["sojourn_p50_us"] = r.sojourn_p50_us;
  run["sojourn_p99_us"] = r.sojourn_p99_us;
  run["retry_hint_mean_us"] = r.hint_mean_us;
  run["retry_hint_max_us"] = r.hint_max_us;
  run["autosharder_splits"] = static_cast<std::int64_t>(r.autosharder_splits);
  run["autosharder_shards"] = static_cast<std::int64_t>(r.autosharder_shards);
  run["acked_all_delivered"] = r.acked_all_delivered;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string policy_arg = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy_arg = arg.substr(std::strlen("--policy="));
    }
  }
  const int duration_ms = static_cast<int>(IntFlag(argc, argv, "duration-ms", smoke ? 400 : 1500));
  const int points = static_cast<int>(IntFlag(argc, argv, "points", smoke ? 3 : 5));
  const int producers = static_cast<int>(IntFlag(argc, argv, "producers", 2));
  const std::size_t matrix_shards =
      static_cast<std::size_t>(IntFlag(argc, argv, "matrix-shards", 2));
  const std::size_t sip = static_cast<std::size_t>(IntFlag(argc, argv, "sip", 64));
  const int consumer_delay_us =
      static_cast<int>(IntFlag(argc, argv, "consumer-delay-us", 1500));
  const double theta = DoubleFlag(argc, argv, "theta", 0.9);
  const std::uint64_t keys = static_cast<std::uint64_t>(IntFlag(argc, argv, "keys", 4096));
  const unsigned cores = std::thread::hardware_concurrency();
  // 8 shards on a >=8-core host should scale; on a smaller host they
  // time-slice and the curve is flat (efficiency ~ 1/8 at best). The floor
  // only guards against collapse, not against the host's core count.
  const double efficiency_floor =
      DoubleFlag(argc, argv, "efficiency-floor", cores >= 8 ? 0.30 : 0.04);

  std::vector<runtime::SlowConsumerPolicy> policies;
  if (policy_arg == "all") {
    policies = {runtime::SlowConsumerPolicy::kBlock, runtime::SlowConsumerPolicy::kDropOldest,
                runtime::SlowConsumerPolicy::kDisconnect};
  } else if (policy_arg == "block") {
    policies = {runtime::SlowConsumerPolicy::kBlock};
  } else if (policy_arg == "drop_oldest") {
    policies = {runtime::SlowConsumerPolicy::kDropOldest};
  } else if (policy_arg == "disconnect") {
    policies = {runtime::SlowConsumerPolicy::kDisconnect};
  } else {
    std::fprintf(stderr, "--policy must be block|drop_oldest|disconnect|all\n");
    return 1;
  }

  // -- 1. Calibrate ------------------------------------------------------------
  // An absurd offered rate with an unthrottled consumer: accepted/sec is the
  // 1-shard ingress capacity the ladder straddles.
  PointConfig calib;
  calib.shards = 1;
  calib.offered_rate = 5e6;
  calib.producers = producers;
  calib.duration_ms = smoke ? 300 : 600;
  calib.theta = theta;
  calib.keys = keys;
  calib.sip = 1024;
  std::printf("R2: open-loop overload (theta=%.2f, %u cores)\n", theta, cores);
  const PointResult capacity_point = RunPoint(calib);
  const double capacity = capacity_point.accept_per_sec;
  std::printf("calibrated 1-shard ingress capacity: %.0f msgs/sec\n", capacity);

  const std::vector<double> ladder = bench::OverloadRateLadder(capacity, points);

  // -- 2. Policy matrix --------------------------------------------------------
  std::vector<PointResult> matrix;
  bench::Table table("Slow-consumer policy matrix (open-loop)",
                     {"policy", "offered/s", "goodput/s", "accept/s", "loss", "p99_us",
                      "stalls", "drops", "disc", "hint_max"});
  for (const auto policy : policies) {
    for (const double rate : ladder) {
      PointConfig cfg;
      cfg.shards = matrix_shards;
      cfg.offered_rate = rate;
      cfg.policy = policy;
      cfg.producers = producers;
      cfg.duration_ms = duration_ms;
      cfg.theta = theta;
      cfg.keys = keys;
      cfg.handoff = 1024;
      cfg.sip = sip;
      cfg.consumer_delay_us = consumer_delay_us;
      matrix.push_back(RunPoint(cfg));
      const PointResult& r = matrix.back();
      table.AddRow({PolicyName(policy), bench::F(rate, 0), bench::F(r.goodput_per_sec, 0),
                    bench::F(r.accept_per_sec, 0), bench::F(r.loss_fraction, 3),
                    bench::F(r.sojourn_p99_us, 0),
                    bench::I(static_cast<std::uint64_t>(r.stalls)),
                    bench::I(static_cast<std::uint64_t>(r.handoff_drops)),
                    bench::I(static_cast<std::uint64_t>(r.disconnects)),
                    bench::F(r.hint_max_us, 0)});
    }
  }
  table.Print();

  // -- 3. Shard scaling + the hot-partition story ------------------------------
  std::vector<PointResult> scaling;
  const double sweep_rate = capacity * 2;  // Past 1-shard saturation.
  bench::Table stable("Shard scaling under overload (offered = 2x capacity)",
                      {"shards", "pinned", "accept/s", "goodput/s", "speedup", "efficiency",
                       "splits"});
  double base_accept = 0;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    PointConfig cfg;
    cfg.shards = shards;
    cfg.offered_rate = sweep_rate;
    cfg.policy = runtime::SlowConsumerPolicy::kBlock;
    cfg.producers = producers;
    cfg.duration_ms = duration_ms;
    cfg.theta = theta;
    cfg.keys = keys;
    cfg.sip = 1024;
    cfg.drive_sharder = true;
    scaling.push_back(RunPoint(cfg));
    PointResult& r = scaling.back();
    if (shards == 1) {
      base_accept = r.accept_per_sec;
    }
    const double speedup = r.accept_per_sec / base_accept;
    stable.AddRow({bench::I(shards), bench::I(r.pinned_shards),
                   bench::F(r.accept_per_sec, 0), bench::F(r.goodput_per_sec, 0),
                   bench::F(speedup, 2), bench::F(speedup / static_cast<double>(shards), 3),
                   bench::I(r.autosharder_splits)});
  }
  stable.Print();
  const double eff8 = scaling.back().accept_per_sec / base_accept / 8.0;

  if (const auto json_path = bench::JsonPathFlag(argc, argv)) {
    bench::Json doc = bench::Json::Object();
    doc["bench"] = "bench_overload";
    doc["hardware_concurrency"] = static_cast<std::int64_t>(cores);
    bench::Json& m = doc["methodology"] = bench::Json::Object();
    m["mode"] = "open-loop";
    m["schedule"] = "poisson virtual-time (bench/loadgen.h)";
    m["coordinated_omission"] =
        "latency charged from scheduled arrival; schedule never re-anchors";
    m["attempts_per_arrival"] = 1;
    m["zipf_theta"] = theta;
    m["key_space"] = static_cast<std::int64_t>(keys);
    m["calibrated_capacity_msgs_per_sec"] = capacity;
    m["duration_ms_per_point"] = duration_ms;
    bench::Json& mx = doc["policy_matrix"] = bench::Json::Array();
    for (const PointResult& r : matrix) {
      mx.Append(PointJson(r));
    }
    bench::Json& sc = doc["shard_scaling"] = bench::Json::Array();
    for (const PointResult& r : scaling) {
      bench::Json run = PointJson(r);
      run["speedup_vs_1_shard"] = r.accept_per_sec / base_accept;
      run["efficiency"] =
          r.accept_per_sec / base_accept / static_cast<double>(r.config.shards);
      sc.Append(std::move(run));
    }
    doc["efficiency_8_shards"] = eff8;
    doc["efficiency_floor"] = efficiency_floor;
    if (!doc.WriteFile(*json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path->c_str());
  }

  // -- CI gates ----------------------------------------------------------------
  int rc = 0;
  for (const PointResult& r : matrix) {
    if (r.config.policy == runtime::SlowConsumerPolicy::kBlock && !r.acked_all_delivered) {
      std::fprintf(stderr,
                   "GATE FAIL: kBlock lost acked records at offered=%.0f "
                   "(accepted=%lld delivered=%lld drops=%lld)\n",
                   r.config.offered_rate, static_cast<long long>(r.accepted),
                   static_cast<long long>(r.delivered_total),
                   static_cast<long long>(r.handoff_drops));
      rc = 1;
    }
  }
  for (const PointResult& r : scaling) {
    if (!r.acked_all_delivered) {
      std::fprintf(stderr, "GATE FAIL: scaling run (%zu shards) lost acked records\n",
                   r.config.shards);
      rc = 1;
    }
  }
  if (eff8 < efficiency_floor) {
    std::fprintf(stderr, "GATE FAIL: 8-shard efficiency %.3f below floor %.3f\n", eff8,
                 efficiency_floor);
    rc = 1;
  }
  std::printf(rc == 0 ? "\ngates PASS (8-shard efficiency %.3f >= %.3f)\n"
                      : "\ngates FAIL\n",
              eff8, efficiency_floor);
  return rc;
}
