// Loopback suite for pubsubd: every verb over a real TCP connection, the
// handshake contract, protocol-violation teardowns, heartbeat dead-peer
// detection, and end-to-end backpressure (ERROR frames carrying the shard's
// retry_after hint). Raw sockets exercise the protocol edges the client
// library refuses to produce; client::Client covers the functional paths.
#include "server/pubsubd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "net/frame_decoder.h"
#include "net/messages.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/collector.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"
#include "runtime/shard_pool.h"

namespace server {
namespace {

using common::Status;
using common::StatusCode;

void SleepUs(std::int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// One pool + broker + watch + server, torn down in the required order.
struct Harness {
  explicit Harness(runtime::RuntimeOptions pool_options = {}, ServerOptions server_options = {}) {
    pool_options.obs = &obs;
    server_options.obs = &obs;
    pool = std::make_unique<runtime::ShardPool>(pool_options);
    broker = std::make_unique<runtime::ConcurrentBroker>(pool.get());
    watch = std::make_unique<runtime::ConcurrentWatchService>(pool.get());
    pool->Start();
    server = std::make_unique<Server>(broker.get(), watch.get(), &pool->metrics(),
                                      server_options);
    const Status st = server->Start();
    EXPECT_TRUE(st.ok()) << st.message();
  }

  ~Harness() {
    server->Stop();
    pool->Stop();
  }

  common::Result<std::unique_ptr<client::Client>> Connect(client::ClientOptions options = {}) {
    return client::Client::Connect("127.0.0.1", server->port(), std::move(options));
  }

  // True once `pred` holds, polling up to `deadline_us`.
  template <typename Pred>
  bool Eventually(Pred pred, std::int64_t deadline_us = 5'000'000) {
    for (std::int64_t waited = 0; waited < deadline_us; waited += 2000) {
      if (pred()) return true;
      SleepUs(2000);
    }
    return pred();
  }

  bool SawSessionBreak(const std::string& cause) {
    for (const obs::ObsEvent& e : obs.Events()) {
      if (e.kind == obs::EventKind::kSessionBreak && e.cause == cause) return true;
    }
    return false;
  }

  common::MetricsRegistry obs_metrics;
  obs::Collector obs{&obs_metrics};
  std::unique_ptr<runtime::ShardPool> pool;
  std::unique_ptr<runtime::ConcurrentBroker> broker;
  std::unique_ptr<runtime::ConcurrentWatchService> watch;
  std::unique_ptr<Server> server;
};

// A raw frame-speaking socket for protocol-edge tests: hand-built frames in,
// decoded frames out, no client-library guardrails.
struct RawConn {
  explicit RawConn(int port) {
    common::Result<net::Fd> r = net::TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(r.ok());
    fd = std::move(r).value();
  }

  void SendRaw(const std::string& bytes) {
    EXPECT_TRUE(net::WriteAll(fd.get(), bytes.data(), bytes.size()).ok());
  }

  void Send(net::Verb verb, std::uint64_t rid, const std::string& payload) {
    std::string out;
    net::EncodeFrame(out, verb, rid, payload);
    SendRaw(out);
  }

  void Hello(const std::string& name = "raw") {
    net::HelloRequest req;
    req.client_name = name;
    std::string p;
    net::Encode(req, &p);
    Send(net::Verb::kHello, 1, p);
    net::Frame f;
    ASSERT_TRUE(Recv(&f));
    ASSERT_EQ(f.verb, net::Verb::kHello);
  }

  // Reads until one frame decodes (payload copied into `payload`). False on
  // EOF/timeout.
  bool Recv(net::Frame* out, std::int64_t timeout_us = 5'000'000) {
    for (;;) {
      const net::FrameDecoder::Result r = decoder.Next(out);
      if (r == net::FrameDecoder::Result::kFrame) {
        payload.assign(out->payload);
        out->payload = payload;
        return true;
      }
      if (r == net::FrameDecoder::Result::kError) return false;
      if (!net::WaitReadable(fd.get(), timeout_us)) return false;
      char buf[4096];
      std::size_t n = 0;
      const net::IoStatus io = net::ReadSome(fd.get(), buf, sizeof(buf), &n);
      if (io != net::IoStatus::kOk) return false;
      decoder.Feed({buf, n});
    }
  }

  // True when the server closes the connection (EOF) within the deadline.
  bool AwaitClose(std::int64_t timeout_us = 5'000'000) {
    net::Frame f;
    while (Recv(&f, timeout_us)) {
    }
    char buf[256];
    std::size_t n = 0;
    return net::ReadSome(fd.get(), buf, sizeof(buf), &n) == net::IoStatus::kEof;
  }

  net::Fd fd;
  net::FrameDecoder decoder;
  std::string payload;
};

TEST(ServerTest, HelloHandshakeAdvertisesContract) {
  ServerOptions so;
  so.name = "pubsubd-test";
  so.heartbeat_interval_us = 250'000;
  so.heartbeat_misses = 4;
  so.max_payload = 1u << 16;
  Harness h({}, so);

  auto c = h.Connect({.client_name = "hello-test"});
  ASSERT_TRUE(c.ok()) << c.status().message();
  const net::HelloResponse& hello = (*c)->server_hello();
  EXPECT_EQ(hello.wire_version, net::kProtocolVersion);
  EXPECT_EQ(hello.server_name, "pubsubd-test");
  EXPECT_EQ(hello.heartbeat_interval_us, 250'000);
  EXPECT_EQ(hello.heartbeat_misses, 4u);
  EXPECT_EQ(hello.max_payload, 1u << 16);

  common::Result<common::TimeMicros> rtt = (*c)->Ping();
  ASSERT_TRUE(rtt.ok());
  EXPECT_GE(*rtt, 0);
}

TEST(ServerTest, RequestBeforeHelloIsRefusedAndFatal) {
  Harness h;
  RawConn raw(h.server->port());
  net::PublishRequest req;
  req.topic = "t";
  std::string p;
  net::Encode(req, &p);
  raw.Send(net::Verb::kPublish, 5, p);

  net::Frame f;
  ASSERT_TRUE(raw.Recv(&f));
  EXPECT_EQ(f.verb, net::Verb::kError);
  EXPECT_EQ(f.request_id, 5u);
  net::ErrorBody err;
  ASSERT_TRUE(net::Decode(f.payload, &err));
  EXPECT_EQ(err.code, static_cast<std::uint32_t>(StatusCode::kFailedPrecondition));
  EXPECT_TRUE(raw.AwaitClose());
}

TEST(ServerTest, PublishFetchAllAckLevels) {
  Harness h;
  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  client::Client& cl = **c;

  ASSERT_TRUE(cl.CreateTopic("orders", {.partitions = 2}).ok());
  // Duplicate creation is the broker's error, propagated over the wire.
  const Status dup = cl.CreateTopic("orders", {.partitions = 2});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  // Publishing to a topic that does not exist is loud.
  const Status missing = cl.Publish("nope", "k", "v");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  // kOffset: the ack carries the assigned partition/offset.
  pubsub::PublishResult pr;
  ASSERT_TRUE(cl.Publish("orders", "k0", "v0", 0, net::PublishAck::kOffset, &pr).ok());
  EXPECT_EQ(pr.partition, 0u);
  EXPECT_EQ(pr.offset, 0u);
  ASSERT_TRUE(cl.Publish("orders", "k1", "v1", 0, net::PublishAck::kOffset, &pr).ok());
  EXPECT_EQ(pr.offset, 1u);

  // kAccept: acceptance-level ack, no offset.
  ASSERT_TRUE(cl.Publish("orders", "k2", "v2", 0, net::PublishAck::kAccept).ok());

  // kNone: fire-and-forget; no response frame. A later synchronous call
  // fences it (frames are processed in order by the loop).
  ASSERT_TRUE(cl.Publish("orders", "k3", "v3", 0, net::PublishAck::kNone).ok());
  ASSERT_TRUE(cl.Ping().ok());

  ASSERT_TRUE(h.Eventually([&] {
    auto got = cl.Fetch("orders", 0, 0, 100);
    return got.ok() && got->size() == 4;
  }));
  auto got = cl.Fetch("orders", 0, 0, 100);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 4u);
  EXPECT_EQ((*got)[0].message.value, "v0");
  EXPECT_EQ((*got)[3].message.value, "v3");
  EXPECT_EQ((*got)[3].offset, 3u);

  // Fetch from a mid-log offset.
  auto tail = cl.Fetch("orders", 0, 2, 100);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 2u);
  EXPECT_EQ((*tail)[0].message.key, "k2");
}

TEST(ServerTest, CommitModesRoundTrip) {
  Harness h;
  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  client::Client& cl = **c;

  // Plain commit acks acceptance; the read-back then observes it.
  ASSERT_TRUE(cl.Commit("g1", 0, 41, net::CommitMode::kCommit).ok());
  auto rb = cl.Commit("g1", 0, 42, net::CommitMode::kCommitReadBack);
  ASSERT_TRUE(rb.ok());
  // Commit+read run as one owner-shard task: the read-back can never see a
  // pre-commit value.
  EXPECT_EQ(*rb, 42u);

  auto q = cl.Commit("g1", 0, 0, net::CommitMode::kQuery);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, 42u);

  // Unknown group queries read the broker's default (0), same as in-process.
  auto other = cl.Commit("never-seen", 3, 0, net::CommitMode::kQuery);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(*other, 0u);
}

TEST(ServerTest, SubscribeStreamsInOrderAndCancels) {
  Harness h;
  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  client::Client& cl = **c;
  ASSERT_TRUE(cl.CreateTopic("stream", {.partitions = 1}).ok());

  auto sub = cl.Subscribe("stream", 0, 0);
  ASSERT_TRUE(sub.ok()) << sub.status().message();

  // Publish from a second connection while the first long-polls: deliveries
  // ride the event-driven doorbell, not a fetch the subscriber issued.
  auto p = h.Connect();
  ASSERT_TRUE(p.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*p)->Publish("stream", "k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }

  std::vector<pubsub::StoredMessage> got;
  while (got.size() < 20) {
    const std::size_t n = (*sub)->Poll(&got, 20 - got.size(), 5'000'000);
    ASSERT_GT(n, 0u) << "stream stalled at " << got.size();
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[i].offset, static_cast<pubsub::Offset>(i));
    EXPECT_EQ(got[i].message.value, "v" + std::to_string(i));
  }

  // Cancel tears the stream down server-side; subsequent publishes stay in
  // the log but are never pushed.
  (*sub)->Cancel();
  ASSERT_TRUE((*p)->Publish("stream", "late", "late").ok());
  std::vector<pubsub::StoredMessage> after;
  EXPECT_EQ((*sub)->Poll(&after, 10, 50'000), 0u);

  // The shard-side waiter is reclaimed, not leaked.
  ASSERT_TRUE(h.Eventually([&] {
    std::size_t pending = 0;
    h.pool->RunFenced([&] {
      for (std::size_t s = 0; s < h.pool->options().shards; ++s) {
        pending += h.pool->core(s).broker->PendingWaiters();
      }
    });
    return pending == 0;
  }));
}

TEST(ServerTest, WatchStreamsEventsProgressAndResync) {
  Harness h;
  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  client::Client& cl = **c;

  auto w = cl.Watch("a", "z", 0);
  ASSERT_TRUE(w.ok()) << w.status().message();

  common::ChangeEvent ev;
  ev.key = "k1";
  ev.mutation = common::Mutation::Put("v1");
  ev.version = 1;
  h.watch->Append(ev);
  ev.key = "k2";
  ev.mutation = common::Mutation::Delete();
  ev.version = 2;
  h.watch->Append(ev);

  std::vector<net::WatchItem> items;
  while ([&] {
    std::size_t events = 0;
    for (const net::WatchItem& it : items) {
      if (it.kind == net::WatchItem::Kind::kEvent) ++events;
    }
    return events < 2;
  }()) {
    ASSERT_GT((*w)->Poll(&items, 5'000'000), 0u) << "watch stalled";
  }
  std::vector<net::WatchItem> events;
  for (const net::WatchItem& it : items) {
    if (it.kind == net::WatchItem::Kind::kEvent) events.push_back(it);
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].event.key, "k1");
  EXPECT_EQ(events[0].event.mutation.kind, common::MutationKind::kPut);
  EXPECT_EQ(events[0].event.mutation.value, "v1");
  EXPECT_EQ(events[1].event.key, "k2");
  EXPECT_EQ(events[1].event.mutation.kind, common::MutationKind::kDelete);
  EXPECT_FALSE((*w)->resynced());
  (*w)->Cancel();
}

TEST(ServerTest, WatchRefusedWithoutWatchService) {
  // A pubsub-only deployment: WATCH is a typed refusal, not a crash.
  common::MetricsRegistry obs_metrics;
  obs::Collector obs(&obs_metrics);
  runtime::RuntimeOptions po;
  po.obs = &obs;
  runtime::ShardPool pool(po);
  runtime::ConcurrentBroker broker(&pool);
  pool.Start();
  Server server(&broker, /*watch=*/nullptr, &pool.metrics(), {});
  ASSERT_TRUE(server.Start().ok());
  {
    auto c = client::Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(c.ok());
    auto w = (*c)->Watch("a", "z", 0);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.status().code(), StatusCode::kFailedPrecondition);
    // The connection survives the refusal.
    EXPECT_TRUE((*c)->Ping().ok());
  }
  server.Stop();
  pool.Stop();
}

TEST(ServerTest, SlowWatcherIsCutToResync) {
  // A watcher that never drains: the server's bounded watch queue overflows,
  // the stream is cut to a terminal resync item (W3 for push streams), and
  // the cut is loud (counter + obs event).
  ServerOptions so;
  so.max_watch_queue = 16;
  so.send_buffer_limit = 1024;  // Tiny, so frames back up server-side.
  Harness h({}, so);

  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  auto w = (*c)->Watch("", "", 0);
  ASSERT_TRUE(w.ok());

  // Flood without ever polling the watch.
  common::ChangeEvent ev;
  for (int i = 0; i < 5000; ++i) {
    ev.key = "k" + std::to_string(i % 26);
    ev.mutation = common::Mutation::Put(std::string(128, 'x'));
    ev.version = static_cast<common::Version>(i + 1);
    h.watch->Append(ev);
  }

  // Drain client-side until the terminal resync arrives.
  ASSERT_TRUE(h.Eventually([&] {
    std::vector<net::WatchItem> items;
    (*w)->Poll(&items, 100'000);
    return (*w)->resynced();
  }, 10'000'000));
  EXPECT_TRUE(h.SawSessionBreak("slow_watcher"));
  EXPECT_GE(h.pool->metrics().counter("net.watch_overflows").value(), 1u);

  // After the resync nothing further arrives (W4 on the wire).
  std::vector<net::WatchItem> items;
  EXPECT_EQ((*w)->Poll(&items, 50'000), 0u);
}

TEST(ServerTest, HeartbeatKeepsQuietSessionAliveAndDeadPeerIsReaped) {
  ServerOptions so;
  so.heartbeat_interval_us = 30'000;
  so.heartbeat_misses = 3;
  Harness h({}, so);

  // Client A: auto-heartbeat on, totally idle — must survive many windows.
  auto alive = h.Connect();
  ASSERT_TRUE(alive.ok());
  // Client B: heartbeats off — must be detected within the dead-peer window.
  auto dead = h.Connect({.auto_heartbeat = false});
  ASSERT_TRUE(dead.ok());

  ASSERT_TRUE(h.Eventually([&] { return h.server->sessions_closed() >= 1; }, 3'000'000));
  EXPECT_TRUE(h.SawSessionBreak("heartbeat_miss"));
  EXPECT_GE(h.pool->metrics().counter("net.heartbeat_misses").value(), 1u);

  // The idle-but-beating client is untouched.
  EXPECT_TRUE((*alive)->Ping().ok());
  EXPECT_FALSE((*alive)->broken());
}

TEST(ServerTest, FrameCorruptionTearsSessionDownLoudly) {
  Harness h;
  {
    RawConn raw(h.server->port());
    raw.Hello();
    raw.SendRaw("this is definitely not a frame");
    net::Frame f;
    // Best-effort connection-level ERROR (request id 0), then close.
    if (raw.Recv(&f)) {
      EXPECT_EQ(f.verb, net::Verb::kError);
      EXPECT_EQ(f.request_id, 0u);
    }
    EXPECT_TRUE(raw.AwaitClose());
  }
  ASSERT_TRUE(h.Eventually([&] { return h.SawSessionBreak("frame_error:bad_magic"); }));
  EXPECT_GE(h.pool->metrics().counter("net.frame_errors").value(), 1u);

  {
    // Mid-frame death: header promises a payload that never comes.
    RawConn raw(h.server->port());
    raw.Hello();
    std::string frame;
    net::EncodeFrame(frame, net::Verb::kPublish, 9, std::string(500, 'p'));
    raw.SendRaw(frame.substr(0, frame.size() - 100));
    raw.fd.Close();
  }
  ASSERT_TRUE(h.Eventually([&] { return h.SawSessionBreak("truncated_frame"); }));

  // A server-enforced payload bound tighter than the protocol ceiling.
  {
    ServerOptions so;
    so.max_payload = 1024;
    Harness small({}, so);
    RawConn raw(small.server->port());
    raw.Hello();
    raw.Send(net::Verb::kPublish, 3, std::string(4096, 'x'));
    EXPECT_TRUE(raw.AwaitClose());
    ASSERT_TRUE(small.Eventually([&] { return small.SawSessionBreak("frame_error:oversized"); }));
  }
}

TEST(ServerTest, MalformedPayloadAndUnexpectedVerbAreTypedFailures) {
  Harness h;
  {
    // Valid frame, garbage payload for the verb's schema.
    RawConn raw(h.server->port());
    raw.Hello();
    raw.Send(net::Verb::kPublish, 7, "\x01\x02\x03");
    net::Frame f;
    ASSERT_TRUE(raw.Recv(&f));
    EXPECT_EQ(f.verb, net::Verb::kError);
    EXPECT_EQ(f.request_id, 7u);
    net::ErrorBody err;
    ASSERT_TRUE(net::Decode(f.payload, &err));
    EXPECT_EQ(err.code, static_cast<std::uint32_t>(StatusCode::kInvalidArgument));
    EXPECT_TRUE(raw.AwaitClose());
  }
  {
    // A push verb has no business arriving client→server.
    RawConn raw(h.server->port());
    raw.Hello();
    net::MessageBatch batch;
    std::string p;
    net::Encode(batch, &p);
    raw.Send(net::Verb::kDeliver, 8, p);
    net::Frame f;
    ASSERT_TRUE(raw.Recv(&f));
    EXPECT_EQ(f.verb, net::Verb::kError);
    EXPECT_TRUE(raw.AwaitClose());
  }
}

TEST(ServerTest, BackpressurePropagatesRetryAfterOverTheWire) {
  // A 1-shard pool with a tiny queue: stall the worker, fill the queue, and
  // a remote publish, fetch and commit must each come back kUnavailable with
  // the shard's hint — then succeed once the shard drains (the client's
  // bounded retry loop, which all three share).
  runtime::RuntimeOptions po;
  po.shards = 1;
  po.queue_capacity = 4;
  po.retry_after = 5'000;
  Harness h(po);

  auto c = h.Connect({.max_backpressure_retries = 0});  // Surface the error.
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->CreateTopic("bp", {.partitions = 1}).ok());

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  h.pool->Post(0, [&] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) SleepUs(500);
  });
  // Fill only once the stall task is running: filling earlier races with the
  // worker's batched drain, which can scoop the whole queue (stall included)
  // into its local batch and leave room for the publish below.
  while (!started.load(std::memory_order_acquire)) SleepUs(100);
  while (h.pool->TryPost(0, [] {})) {
  }

  const common::Counter& errors = h.pool->metrics().counter("net.backpressure_errors");
  EXPECT_EQ((*c)->Publish("bp", "k", "v").code(), StatusCode::kUnavailable);
  EXPECT_EQ(errors.value(), 1);
  EXPECT_EQ((*c)->Fetch("bp", 0, 0, 16).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(errors.value(), 2);
  EXPECT_EQ((*c)->Commit("g", 0, 1).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(errors.value(), 3);

  release.store(true, std::memory_order_release);

  // With the retry budget restored, each verb rides the hint out.
  auto retrying = h.Connect();
  ASSERT_TRUE(retrying.ok());
  EXPECT_TRUE((*retrying)->Publish("bp", "k2", "v2").ok());
  auto fetched = (*retrying)->Fetch("bp", 0, 0, 16);
  ASSERT_TRUE(fetched.ok()) << fetched.status().message();
  ASSERT_EQ(fetched->size(), 1u);  // The refused publish was never accepted.
  EXPECT_EQ((*fetched)[0].message.key, "k2");
  EXPECT_TRUE((*retrying)->Commit("g", 0, 1).ok());
}

// Shard-side wakes are coalesced: only the WakeLoop call that raises the
// wake flag writes the self-pipe, and the loop lowers it before taking the
// pending lists. A kOffset publish to a partition with 3 streams raises four
// wakes (the ack's completion, one ready hook per stream), often while the
// loop is mid-turn. The first rounds let the loop sit in poll(), whose
// timeout is 100 ms with the default heartbeat, before publishing; the rest
// run back to back, so wakes land at every point of a turn. A lost wake
// would hold the ack or a DELIVER until that timeout fired.
TEST(ServerTest, CoalescedWakeupsNeverWaitOutThePollTimeout) {
  Harness h;
  auto pub = h.Connect();
  auto sub_conn = h.Connect();
  ASSERT_TRUE(pub.ok());
  ASSERT_TRUE(sub_conn.ok());
  ASSERT_TRUE((*pub)->CreateTopic("fan", {.partitions = 1}).ok());
  std::vector<std::unique_ptr<client::Subscription>> subs;
  for (int i = 0; i < 3; ++i) {
    auto sub = (*sub_conn)->Subscribe("fan", 0, 0);
    ASSERT_TRUE(sub.ok()) << sub.status().message();
    subs.push_back(std::move(*sub));
  }

  std::chrono::steady_clock::duration slowest{};
  for (int round = 0; round < 1000; ++round) {
    if (round < 10) {
      SleepUs(120'000);
    }
    const auto start = std::chrono::steady_clock::now();
    pubsub::PublishResult pr;
    ASSERT_TRUE((*pub)->Publish("fan", "k", "v", 0, net::PublishAck::kOffset, &pr).ok());
    EXPECT_EQ(pr.offset, static_cast<pubsub::Offset>(round));
    for (auto& sub : subs) {
      std::vector<pubsub::StoredMessage> got;
      ASSERT_EQ(sub->Poll(&got, 1, 5'000'000), 1u) << "stream stalled in round " << round;
      EXPECT_EQ(got[0].offset, static_cast<pubsub::Offset>(round));
    }
    slowest = std::max(slowest, std::chrono::steady_clock::now() - start);
  }
  EXPECT_LT(slowest, std::chrono::milliseconds(50))
      << "a round trip waited for the loop's poll timeout: a wake-up was lost";
}

TEST(ServerTest, GoodbyeIsGracefulNotASessionBreak) {
  Harness h;
  {
    auto c = h.Connect();
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE((*c)->Ping().ok());
  }  // ~Client sends GOODBYE.
  ASSERT_TRUE(h.Eventually([&] { return h.server->sessions_closed() == 1; }));
  for (const obs::ObsEvent& e : h.obs.Events()) {
    EXPECT_NE(e.kind, obs::EventKind::kSessionBreak)
        << "graceful close logged as a break: " << e.cause;
  }
}

TEST(ServerTest, MaxConnectionsRefusesTheOverflowConnection) {
  ServerOptions so;
  so.max_connections = 2;
  Harness h({}, so);

  auto a = h.Connect();
  auto b = h.Connect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The third connection is refused at accept: ERROR then close, before any
  // handshake.
  RawConn raw(h.server->port());
  EXPECT_TRUE(raw.AwaitClose());
  EXPECT_GE(h.pool->metrics().counter("net.accept_rejected").value(), 1u);
  // Existing sessions are unaffected.
  EXPECT_TRUE((*a)->Ping().ok());
  EXPECT_TRUE((*b)->Ping().ok());
}

}  // namespace
}  // namespace server
