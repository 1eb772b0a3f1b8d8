// Network front-end benchmark: what the wire costs.
//
// Part 1 — loopback RTT: p50/p99 of a publish-ack round trip (PUBLISH with
// kOffset ack over a real TCP socket through pubsubd) against the in-process
// baseline (PublishSync on the same runtime), plus the raw HEARTBEAT echo
// RTT as the protocol floor. The socket/in-process delta is the price of the
// frame codec, the kernel loopback hops, and the event loop.
//
// Part 2 — connection churn smoke: N short-lived connections (default 1000)
// each handshake, publish one acked record, half open a subscription, then
// half die abruptly (no GOODBYE — the dead-peer sweep must reclaim them) and
// half close gracefully. Reports sessions opened/closed, heartbeat misses,
// accept rejections, and verifies ZERO acked-record loss: every acked
// publish is in the log afterwards.
//
// The JSON records the host's hardware_concurrency and the build type: the
// loop and the client poll before they park only with a hardware thread to
// spare, so the RTT rows depend on both.
//
//   ./bench_net [--rtt-iters=N] [--churn=N] [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "bench/json.h"
#include "bench/table.h"
#include "client/client.h"
#include "common/metrics.h"
#include "common/status.h"
#include "obs/collector.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"
#include "runtime/shard_pool.h"
#include "server/pubsubd.h"

namespace {

std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t FlagInt(int argc, char** argv, const char* name, std::int64_t fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

struct Percentiles {
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

Percentiles Summarize(std::vector<std::int64_t>& ns) {
  Percentiles p;
  if (ns.empty()) {
    return p;
  }
  std::sort(ns.begin(), ns.end());
  p.p50_us = static_cast<double>(ns[ns.size() / 2]) / 1000.0;
  p.p99_us = static_cast<double>(ns[ns.size() * 99 / 100]) / 1000.0;
  p.max_us = static_cast<double>(ns.back()) / 1000.0;
  return p;
}

struct Stack {
  explicit Stack(server::ServerOptions so = {}) : obs(&obs_metrics) {
    runtime::RuntimeOptions po;
    po.obs = &obs;
    so.obs = &obs;
    pool = std::make_unique<runtime::ShardPool>(po);
    broker = std::make_unique<runtime::ConcurrentBroker>(pool.get());
    watch = std::make_unique<runtime::ConcurrentWatchService>(pool.get());
    pool->Start();
    server = std::make_unique<server::Server>(broker.get(), watch.get(), &pool->metrics(), so);
    const common::Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", st.message().c_str());
      std::exit(1);
    }
  }

  ~Stack() {
    server->Stop();
    pool->Stop();
  }

  common::MetricsRegistry obs_metrics;
  obs::Collector obs;
  std::unique_ptr<runtime::ShardPool> pool;
  std::unique_ptr<runtime::ConcurrentBroker> broker;
  std::unique_ptr<runtime::ConcurrentWatchService> watch;
  std::unique_ptr<server::Server> server;
};

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t rtt_iters = FlagInt(argc, argv, "rtt-iters", 5000);
  const std::int64_t churn = FlagInt(argc, argv, "churn", 1000);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host hardware_concurrency: %u; build type: %s\n", cores, PUBSUB_BUILD_TYPE);

  // -- Part 1: loopback RTT ----------------------------------------------------
  Stack stack;
  if (!stack.broker->CreateTopic("rtt", {.partitions = 1}).ok()) {
    return 1;
  }

  auto connected = client::Client::Connect("127.0.0.1", stack.server->port(),
                                           {.client_name = "bench-rtt"});
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", connected.status().message().c_str());
    return 1;
  }
  client::Client& cl = **connected;

  // Warm both paths (topic lookup caches, allocator, branch predictors).
  for (int i = 0; i < 200; ++i) {
    (void)cl.Publish("rtt", "w", "w", 0, net::PublishAck::kOffset);
    (void)stack.broker->PublishSync("rtt", {.key = "w", .value = "w"}, 0);
    (void)cl.Ping();
  }

  std::vector<std::int64_t> socket_ns, inproc_ns, echo_ns;
  socket_ns.reserve(rtt_iters);
  inproc_ns.reserve(rtt_iters);
  echo_ns.reserve(rtt_iters);
  for (std::int64_t i = 0; i < rtt_iters; ++i) {
    std::int64_t t0 = NowNanos();
    if (!cl.Publish("rtt", "k", "v", 0, net::PublishAck::kOffset).ok()) {
      std::fprintf(stderr, "socket publish failed at iter %lld\n", static_cast<long long>(i));
      return 1;
    }
    socket_ns.push_back(NowNanos() - t0);

    t0 = NowNanos();
    if (!stack.broker->PublishSync("rtt", {.key = "k", .value = "v"}, 0).ok()) {
      std::fprintf(stderr, "in-process publish failed\n");
      return 1;
    }
    inproc_ns.push_back(NowNanos() - t0);

    t0 = NowNanos();
    if (!cl.Ping().ok()) {
      std::fprintf(stderr, "ping failed\n");
      return 1;
    }
    echo_ns.push_back(NowNanos() - t0);
  }
  const Percentiles socket_rtt = Summarize(socket_ns);
  const Percentiles inproc_rtt = Summarize(inproc_ns);
  const Percentiles echo_rtt = Summarize(echo_ns);

  bench::Table rtt_table("Loopback round-trip latency (publish + ack), " +
                             std::to_string(rtt_iters) + " iters",
                         {"path", "p50_us", "p99_us", "max_us"});
  rtt_table.AddRow({"socket publish (kOffset ack)", bench::F(socket_rtt.p50_us, 1),
                    bench::F(socket_rtt.p99_us, 1), bench::F(socket_rtt.max_us, 1)});
  rtt_table.AddRow({"in-process PublishSync", bench::F(inproc_rtt.p50_us, 1),
                    bench::F(inproc_rtt.p99_us, 1), bench::F(inproc_rtt.max_us, 1)});
  rtt_table.AddRow({"socket HEARTBEAT echo", bench::F(echo_rtt.p50_us, 1),
                    bench::F(echo_rtt.p99_us, 1), bench::F(echo_rtt.max_us, 1)});
  rtt_table.Print();

  // -- Part 2: connection churn smoke ------------------------------------------
  server::ServerOptions churn_so;
  churn_so.heartbeat_interval_us = 50'000;
  churn_so.heartbeat_misses = 2;
  std::uint64_t acked = 0, reconnects = 0, failures = 0;
  std::uint64_t opened = 0, closed = 0, heartbeat_misses = 0, accept_rejected = 0;
  std::uint64_t stored = 0;
  double churn_sec = 0;
  {
    Stack churn_stack(churn_so);
    if (!churn_stack.broker->CreateTopic("churn", {.partitions = 2}).ok()) {
      return 1;
    }
    const std::int64_t t0 = NowNanos();
    for (std::int64_t i = 0; i < churn; ++i) {
      auto c = client::Client::Connect(
          "127.0.0.1", churn_stack.server->port(),
          {.client_name = "churn", .auto_heartbeat = false});
      if (!c.ok()) {
        ++failures;
        continue;
      }
      ++reconnects;
      pubsub::PublishResult pr;
      const common::Status st =
          (*c)->Publish("churn", "k" + std::to_string(i), "v",
                        static_cast<pubsub::PartitionId>(i % 2), net::PublishAck::kOffset, &pr);
      if (st.ok()) {
        ++acked;
      }
      std::unique_ptr<client::Subscription> sub;
      if (i % 2 == 0) {
        auto s = (*c)->Subscribe("churn", static_cast<pubsub::PartitionId>(i % 2), 0);
        if (s.ok()) {
          sub = std::move(*s);
        }
      }
      if (i % 2 == 0) {
        // Abrupt death mid-subscribe: the dead-peer sweep's problem.
        (*c)->KillConnectionForTest();
      }
      // Else: ~Client sends GOODBYE (graceful).
    }
    // Let the sweep reap the abrupt half.
    const std::int64_t deadline = NowNanos() + 10'000'000'000LL;
    while (churn_stack.server->sessions_closed() < churn_stack.server->sessions_opened() &&
           NowNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    churn_sec = static_cast<double>(NowNanos() - t0) / 1e9;
    opened = churn_stack.server->sessions_opened();
    closed = churn_stack.server->sessions_closed();
    heartbeat_misses = churn_stack.pool->metrics().counter("net.heartbeat_misses").value();
    accept_rejected = churn_stack.pool->metrics().counter("net.accept_rejected").value();
    for (pubsub::PartitionId p = 0; p < 2; ++p) {
      auto r = churn_stack.broker->Fetch("churn", p, 0, 1u << 20);
      if (r.ok()) {
        stored += r->size();
      }
    }
  }
  const bool zero_loss = stored == acked;

  bench::Table churn_table("Connection churn smoke (" + std::to_string(churn) + " connections)",
                           {"metric", "value"});
  churn_table.AddRow({"connections attempted", bench::I(static_cast<std::uint64_t>(churn))});
  churn_table.AddRow({"connects ok", bench::I(reconnects)});
  churn_table.AddRow({"connect failures", bench::I(failures)});
  churn_table.AddRow({"sessions opened", bench::I(opened)});
  churn_table.AddRow({"sessions closed", bench::I(closed)});
  churn_table.AddRow({"heartbeat misses", bench::I(heartbeat_misses)});
  churn_table.AddRow({"accepts rejected", bench::I(accept_rejected)});
  churn_table.AddRow({"publishes acked", bench::I(acked)});
  churn_table.AddRow({"records stored", bench::I(stored)});
  churn_table.AddRow({"acked-record loss", bench::I(acked - std::min(acked, stored))});
  churn_table.AddRow({"elapsed_sec", bench::F(churn_sec, 2)});
  churn_table.Print();

  // `--json=PATH` writes PATH; bare `--json` writes the canonical
  // BENCH_net.json in the current directory.
  auto json_path = bench::JsonPathFlag(argc, argv);
  if (!json_path) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") json_path = "BENCH_net.json";
    }
  }
  if (json_path) {
    bench::Json doc = bench::Json::Object();
    doc["bench"] = "bench_net";
    doc["hardware_concurrency"] = static_cast<std::int64_t>(cores);
    doc["build_type"] = PUBSUB_BUILD_TYPE;
    doc["rtt_iters"] = rtt_iters;
    bench::Json& rtt = doc["rtt"] = bench::Json::Object();
    auto fill = [](bench::Json& j, const Percentiles& p) {
      j["p50_us"] = p.p50_us;
      j["p99_us"] = p.p99_us;
      j["max_us"] = p.max_us;
    };
    fill(rtt["socket_publish"] = bench::Json::Object(), socket_rtt);
    fill(rtt["inprocess_publish"] = bench::Json::Object(), inproc_rtt);
    fill(rtt["socket_heartbeat_echo"] = bench::Json::Object(), echo_rtt);
    rtt["socket_over_inprocess_p50"] =
        inproc_rtt.p50_us > 0 ? socket_rtt.p50_us / inproc_rtt.p50_us : 0.0;
    bench::Json& cj = doc["churn"] = bench::Json::Object();
    cj["connections"] = static_cast<std::int64_t>(churn);
    cj["connects_ok"] = reconnects;
    cj["connect_failures"] = failures;
    cj["sessions_opened"] = opened;
    cj["sessions_closed"] = closed;
    cj["heartbeat_misses"] = heartbeat_misses;
    cj["accepts_rejected"] = accept_rejected;
    cj["publishes_acked"] = acked;
    cj["records_stored"] = stored;
    cj["zero_acked_record_loss"] = zero_loss;
    cj["elapsed_sec"] = churn_sec;
    if (!doc.WriteFile(*json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path->c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path->c_str());
  }

  if (!zero_loss) {
    std::fprintf(stderr, "ACKED-RECORD LOSS: acked %llu, stored %llu\n",
                 static_cast<unsigned long long>(acked), static_cast<unsigned long long>(stored));
    return 1;
  }
  std::printf(
      "\nShape check: every acked publish is in the log (zero acked-record loss under\n"
      "churn), and the socket/in-process p50 gap is the wire tax — frame codec + two\n"
      "loopback hops + event-loop dispatch.\n");
  return 0;
}
