// Loopback suite for pubsubd: every verb over a real TCP connection, the
// handshake contract, protocol-violation teardowns, heartbeat dead-peer
// detection, end-to-end backpressure (ERROR frames carrying the shard's
// retry_after hint), the frame ceiling, and how the loop and the client wait
// (poll, then park). Raw sockets exercise the protocol edges the client
// library refuses to produce; client::Client covers the functional paths.
#include "server/pubsubd.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/crc32c.h"
#include "common/idle_policy.h"
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

using SteadyClock = std::chrono::steady_clock;

void SleepUs(std::int64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// Busy-waits: a sleep would stretch a sub-millisecond pause by a wake-up.
void SpinUs(std::int64_t us) {
  const auto until = SteadyClock::now() + std::chrono::microseconds(us);
  while (SteadyClock::now() < until) {
  }
}

std::int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// write()-family syscalls made by this process (/proc/self/io "syscw"), or
// -1 where the file is unreadable. Socket sends are not in it, so while a
// test runs it counts the server's eventfd writes.
std::int64_t WriteSyscalls() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::int64_t value = 0;
  while (io >> key >> value) {
    if (key == "syscw:") {
      return value;
    }
  }
  return -1;
}

// A poll ends in work only if the peer runs while the waiter polls. When
// other processes hold every core (a parallel test run), polls time out and
// the waiter parks instead: the rule working, not failing. Tests that need
// polls retry for this long.
constexpr auto kBusyHostBudget = std::chrono::seconds(30);
constexpr std::int64_t kPollLimitNs = common::IdlePolicy::kPollLimit.count();

// 64 KiB values, the size at which a default 256-record batch outgrows one
// frame and a 1 KiB send_buffer_limit pauses a session after every frame.
std::string BigValue(int i) {
  std::string v(64 << 10, static_cast<char>('a' + i % 26));
  v.replace(0, std::to_string(i).size(), std::to_string(i));
  return v;
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

  int SessionBreaks(const std::string& cause) {
    int n = 0;
    for (const obs::ObsEvent& e : obs.Events()) {
      n += e.kind == obs::EventKind::kSessionBreak && e.cause == cause ? 1 : 0;
    }
    return n;
  }

  bool SawSessionBreak(const std::string& cause) { return SessionBreaks(cause) > 0; }

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
  explicit RawConn(net::Fd connected) : fd(std::move(connected)) {}
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

// A CRC-sealed frame whose header states `version`.
std::string FrameStatingVersion(int version, net::Verb verb, std::uint64_t rid,
                                const std::string& payload) {
  std::string out;
  net::EncodeFrame(out, verb, rid, payload);
  out[2] = static_cast<char>(version);
  std::string header_crc;
  net::PutU32(header_crc, common::MaskCrc(common::Crc32c(std::string_view(out).substr(0, 20))));
  out.replace(20, 4, header_crc);
  return out;
}

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

// There is one protocol version: a HELLO stating any other draws an ERROR
// echoing its request id, and the session ends loudly.
TEST(ServerTest, HelloStatingAnotherVersionIsRefusedAndFatal) {
  Harness h;
  for (const std::uint32_t version : {net::kProtocolVersion - 1u, net::kProtocolVersion + 1u}) {
    RawConn raw(h.server->port());
    net::HelloRequest req;
    req.wire_version = version;
    req.client_name = "other-version";
    std::string p;
    net::Encode(req, &p);
    raw.Send(net::Verb::kHello, 17, p);
    net::Frame f;
    ASSERT_TRUE(raw.Recv(&f)) << "version " << version;
    EXPECT_EQ(f.verb, net::Verb::kError) << "version " << version;
    EXPECT_EQ(f.request_id, 17u);
    net::ErrorBody err;
    ASSERT_TRUE(net::Decode(f.payload, &err));
    EXPECT_EQ(err.code, static_cast<std::uint32_t>(StatusCode::kFailedPrecondition));
    EXPECT_TRUE(raw.AwaitClose()) << "version " << version;
  }
  // Teardown logs the break after it closes the socket: wait for the log.
  EXPECT_TRUE(h.Eventually([&] { return h.SessionBreaks("frame_error:version_mismatch") == 2; }));
}

// A frame header stating another version is refused by the decoder, before
// or after the handshake: the session ends as frame_error:bad_version.
TEST(ServerTest, FrameHeaderStatingAnotherVersionEndsTheSession) {
  Harness h;
  struct Case {
    bool handshake_first;
    int version;
  };
  const Case cases[] = {{false, net::kProtocolVersion - 1},
                        {true, net::kProtocolVersion - 1},
                        {true, net::kProtocolVersion + 1}};
  for (const Case& c : cases) {
    RawConn raw(h.server->port());
    std::string frame;
    if (c.handshake_first) {
      raw.Hello();
      std::string beat;
      net::Encode(net::HeartbeatBody{42}, &beat);
      frame = FrameStatingVersion(c.version, net::Verb::kHeartbeat, 2, beat);
    } else {
      std::string hello;
      net::Encode(net::HelloRequest{}, &hello);
      frame = FrameStatingVersion(c.version, net::Verb::kHello, 1, hello);
    }
    raw.SendRaw(frame);
    net::Frame f;
    if (raw.Recv(&f)) {  // Best-effort connection-level ERROR, then close.
      EXPECT_EQ(f.verb, net::Verb::kError) << "version " << c.version;
      EXPECT_EQ(f.request_id, 0u);
    }
    EXPECT_TRUE(raw.AwaitClose()) << "version " << c.version;
  }
  EXPECT_TRUE(h.Eventually([&] { return h.SessionBreaks("frame_error:bad_version") == 3; }));
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

// SUBSCRIBE and WATCH name their stream by the request id: either verb
// reusing the id of a live stream of either kind is refused, and the session
// and its streams live on.
TEST(ServerTest, StreamIdInUseIsRefusedForSubscribeAndWatch) {
  Harness h;
  ASSERT_TRUE(h.broker->CreateTopic("t", {}).ok());
  RawConn raw(h.server->port());
  raw.Hello();
  // The next frame that is not a push (the watch may push progress).
  const auto reply = [&raw](net::Frame* f) {
    while (raw.Recv(f)) {
      if (f->verb != net::Verb::kDeliver && f->verb != net::Verb::kWatchPush) {
        return true;
      }
    }
    return false;
  };
  net::SubscribeRequest sub_req;
  sub_req.topic = "t";
  std::string sub;
  net::Encode(sub_req, &sub);
  std::string watch;
  net::Encode(net::WatchRequest{}, &watch);
  net::Frame f;
  raw.Send(net::Verb::kSubscribe, 5, sub);
  ASSERT_TRUE(reply(&f));
  ASSERT_EQ(f.verb, net::Verb::kSubscribe);
  raw.Send(net::Verb::kWatch, 6, watch);
  ASSERT_TRUE(reply(&f));
  ASSERT_EQ(f.verb, net::Verb::kWatch);
  for (const std::uint64_t rid : {5u, 6u}) {
    for (const auto& [verb, payload] : {std::pair{net::Verb::kSubscribe, sub},
                                        std::pair{net::Verb::kWatch, watch}}) {
      raw.Send(verb, rid, payload);
      ASSERT_TRUE(reply(&f));
      EXPECT_EQ(f.verb, net::Verb::kError) << net::VerbName(verb) << " on " << rid;
      EXPECT_EQ(f.request_id, rid);
      net::ErrorBody err;
      ASSERT_TRUE(net::Decode(f.payload, &err));
      EXPECT_EQ(err.code, static_cast<std::uint32_t>(StatusCode::kAlreadyExists));
    }
  }
  std::string beat;
  net::Encode(net::HeartbeatBody{7}, &beat);
  raw.Send(net::Verb::kHeartbeat, 9, beat);
  ASSERT_TRUE(reply(&f));
  EXPECT_EQ(f.verb, net::Verb::kHeartbeat);
  EXPECT_EQ(h.server->sessions_closed(), 0u);
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
    std::string p;
    net::EncodeBatchPrefix({}, &p);
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

// A publisher and a subscriber connection with three streams on one
// partition: a kOffset publish then raises four wakes in the loop (the ack's
// completion, one ready hook per stream), often while the loop is mid-turn.
struct FanRig {
  explicit FanRig(Harness& harness) : h(harness) {
    auto p = h.Connect();
    auto c = h.Connect();
    EXPECT_TRUE(p.ok() && c.ok());
    pub = std::move(*p);
    sub_conn = std::move(*c);
    EXPECT_TRUE(pub->CreateTopic("fan", {.partitions = 1}).ok());
    for (int i = 0; i < 3; ++i) {
      auto sub = sub_conn->Subscribe("fan", 0, 0);
      EXPECT_TRUE(sub.ok()) << sub.status().message();
      subs.push_back(std::move(*sub));
    }
  }

  // One publish-ack plus its three deliveries; returns how long it took.
  SteadyClock::duration Round() {
    const auto start = SteadyClock::now();
    pubsub::PublishResult pr;
    EXPECT_TRUE(pub->Publish("fan", "k", "v", 0, net::PublishAck::kOffset, &pr).ok());
    EXPECT_EQ(pr.offset, next);
    for (auto& sub : subs) {
      std::vector<pubsub::StoredMessage> got;
      EXPECT_EQ(sub->Poll(&got, 1, 5'000'000), 1u) << "stream stalled at offset " << next;
      if (!got.empty()) {
        EXPECT_EQ(got[0].offset, next);
      }
    }
    ++next;
    return SteadyClock::now() - start;
  }

  Harness& h;
  std::unique_ptr<client::Client> pub;
  std::unique_ptr<client::Client> sub_conn;
  std::vector<std::unique_ptr<client::Subscription>> subs;
  pubsub::Offset next = 0;
};

// Shard-side wakes are coalesced: only the WakeLoop call that raises the
// wake flag can write the eventfd, and the loop lowers the flag before
// taking the pending lists. The first rounds let the loop park, whose
// timeout is 100 ms with the default heartbeat, before publishing; the rest
// run back to back, so wakes land at every point of a turn. A lost wake
// would hold the ack or a DELIVER until that timeout fired.
TEST(ServerTest, CoalescedWakeupsNeverWaitOutThePollTimeout) {
  Harness h;
  FanRig rig(h);
  SteadyClock::duration slowest{};
  for (int round = 0; round < 1000; ++round) {
    if (round < 10) {
      SleepUs(120'000);
    }
    slowest = std::max(slowest, rig.Round());
    ASSERT_FALSE(testing::Test::HasFailure()) << "round " << round;
  }
  EXPECT_LT(slowest, std::chrono::milliseconds(50))
      << "a round trip waited for the loop's poll timeout: a wake-up was lost";
}

// The loop polls while wake-ups come densely and parks once they stop. Each
// cycle runs dense rounds, then one round after a pause that steps from 0 to
// 1 ms, across IdlePolicy::kPollLimit: that round's socket event, completion
// and ready hooks reach a loop that still polls, one at its poll→park edge,
// or one parked at once. None may wait for the park timeout (the 100 ms
// sweep deadline). While the loop polls, shard-side wakes write no eventfd:
// a write needs a loop that announced its park, so a batch holds at most one
// write more than it holds parks (a write in flight from before the batch).
TEST(ServerTest, WakesAcrossThePollToParkEdgeNeverWaitOutThePark) {
  Harness h;
  FanRig rig(h);
  const common::Counter& polled = h.pool->metrics().counter("net.loop_idle_polled");
  const common::Counter& parked = h.pool->metrics().counter("net.loop_idle_parked");
  // Poll slots for the loop and this thread's reader, with one core to spare.
  const bool may_poll = common::IdlePolicy::HardwareThreads() >= 3;
  const std::int64_t polled_before = polled.value();
  const std::int64_t parked_before = parked.value();

  SteadyClock::duration slowest{};
  bool quiet_polling_batch = false;  // A dense batch that polled, with few writes.
  std::int64_t last_polled = 0, last_parked = 0, last_writes = 0;
  const auto deadline = SteadyClock::now() + kBusyHostBudget;
  for (int cycle = 0;; ++cycle) {
    const std::int64_t polled0 = polled.value();
    const std::int64_t parked0 = parked.value();
    const std::int64_t writes0 = WriteSyscalls();
    for (int i = 0; i < 20; ++i) {
      slowest = std::max(slowest, rig.Round());
    }
    // Writes are read before parks, so each write counted follows its
    // park's count. One write may still be in flight from before the batch
    // (the shard saw the loop parking, then was descheduled before its
    // write()). Cycle 0 is not judged: it also holds what set-up left.
    last_writes = writes0 < 0 ? -1 : WriteSyscalls() - writes0;
    last_polled = polled.value() - polled0;
    last_parked = parked.value() - parked0;
    if (cycle > 0 && last_polled > last_parked) {
      EXPECT_LE(last_writes, last_parked + 1) << "the eventfd was written to a loop that polled";
      quiet_polling_batch = true;
    }
    SpinUs((cycle * 7) % 1000);
    slowest = std::max(slowest, rig.Round());
    ASSERT_FALSE(testing::Test::HasFailure()) << "cycle " << cycle;
    const bool enough = cycle >= 300 && (quiet_polling_batch || !may_poll);
    if (enough || SteadyClock::now() >= deadline) {
      break;
    }
  }
  EXPECT_LT(slowest, std::chrono::milliseconds(50))
      << "a round trip waited for the loop's park timeout: a wake-up was lost";
  EXPECT_GT(parked.value(), parked_before);
  if (may_poll) {
    EXPECT_GT(polled.value(), polled_before);
    EXPECT_TRUE(quiet_polling_batch) << "no dense batch mostly polled; last: polled "
                                     << last_polled << ", parked " << last_parked
                                     << ", eventfd writes " << last_writes;
  }
}

// The client's reader, the loop and the shard poll while traffic is dense,
// then park: once it stops, an idle Poll costs the calling thread at most
// one poll of CPU and still returns 0 at its timeout, and the whole process
// (client, loop, shard worker) stays near idle across it.
TEST(ServerTest, IdleLoopAndClientParkAfterThePollLimit) {
  Harness h;
  FanRig rig(h);
  for (int i = 0; i < 200; ++i) {
    rig.Round();
  }
  ASSERT_FALSE(testing::Test::HasFailure());
  std::vector<pubsub::StoredMessage> got;
  const auto start = SteadyClock::now();
  const std::int64_t thread_cpu = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  const std::int64_t process_cpu = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  EXPECT_EQ(rig.subs[0]->Poll(&got, 1, 50'000), 0u);
  const std::int64_t thread_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - thread_cpu;
  const std::int64_t process_ns = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - process_cpu;
  EXPECT_GE(SteadyClock::now() - start, std::chrono::milliseconds(50));
  // A thread that never parked would have burned the whole 50 ms.
  EXPECT_LT(thread_ns, 5 * kPollLimitNs);
  EXPECT_LT(process_ns, 25 * kPollLimitNs);
  EXPECT_FALSE(rig.sub_conn->broken());
}

// A Poll ends at its timeout however busy the connection is. A stand-in
// server answers the handshake and one SUBSCRIBE, then keeps the socket full
// of pushes for a stream this client does not hold (as after a local
// Cancel): every read returns data, so the reader never idles, and only a
// deadline checked on every pass ends the wait. Pushes to a busy stream on
// the same connection hold a reader the same way.
TEST(ServerTest, PollTimesOutWhilePushesForOtherStreamsArrive) {
  int port = 0;
  common::Result<net::Fd> listener = net::TcpListen("127.0.0.1", 0, 1, &port);
  ASSERT_TRUE(listener.ok());
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> bursts{0};
  std::thread stand_in([&] {
    ASSERT_TRUE(net::WaitReadable(listener->get(), 5'000'000));
    RawConn conn(net::Fd(::accept(listener->get(), nullptr, nullptr)));
    net::Frame f;
    ASSERT_TRUE(conn.Recv(&f));
    ASSERT_EQ(f.verb, net::Verb::kHello);
    net::HelloResponse hello;
    hello.heartbeat_interval_us = 3600 * common::kMicrosPerSecond;
    hello.heartbeat_misses = 3;
    hello.max_payload = net::kMaxPayload;
    std::string payload;
    net::Encode(hello, &payload);
    conn.Send(net::Verb::kHello, f.request_id, payload);
    ASSERT_TRUE(conn.Recv(&f));
    ASSERT_EQ(f.verb, net::Verb::kSubscribe);
    conn.Send(net::Verb::kSubscribe, f.request_id, "");
    std::string burst;
    for (int i = 0; i < 1000; ++i) {
      net::EncodeFrame(burst, net::Verb::kDeliver, f.request_id + 1, "");
    }
    // Ends when the client closes the socket, or after 3 s (a wait that
    // ignores its deadline then returns late instead of never).
    const auto give_up = SteadyClock::now() + std::chrono::seconds(3);
    while (!stop.load() && SteadyClock::now() < give_up &&
           net::WriteAll(conn.fd.get(), burst.data(), burst.size()).ok()) {
      bursts.fetch_add(1);
    }
  });
  // However the test ends: the client and its subscription, declared below,
  // are destroyed first, and closing their socket ends a blocked write.
  struct JoinOnExit {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~JoinOnExit() {
      stop.store(true);
      thread.join();
    }
  } join_on_exit{stop, stand_in};

  client::ClientOptions options;
  options.auto_heartbeat = false;
  auto c = client::Client::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(c.ok()) << c.status().message();
  auto sub = (*c)->Subscribe("quiet", 0, 0);
  ASSERT_TRUE(sub.ok()) << sub.status().message();
  while (bursts.load() < 10) {
    SleepUs(100);
  }
  std::vector<pubsub::StoredMessage> got;
  const auto start = SteadyClock::now();
  EXPECT_EQ((*sub)->Poll(&got, 1, 20'000), 0u);
  const auto took = SteadyClock::now() - start;
  EXPECT_FALSE((*c)->broken());
  stop.store(true);  // The stand-in closes, so the subscription's CANCEL ends.
  EXPECT_GE(took, std::chrono::milliseconds(20));
  EXPECT_LT(took, std::chrono::milliseconds(500))
      << "a 20 ms Poll outlived its timeout while pushes kept arriving";
}

// A session at send_buffer_limit stops pumping, and the records its
// subscription already swapped to the consumer side ring no hook. The flush
// that takes it back under the watermark must queue it for another pump;
// before it did, each record here waited for the loop's 100 ms timeout.
TEST(ServerTest, PausedSessionResumesWhenItsFlushLeavesTheWatermark) {
  ServerOptions so;
  so.send_buffer_limit = 1024;
  Harness h({}, so);
  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->CreateTopic("big", {.partitions = 1}).ok());
  constexpr int kRecords = 100;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*c)->Publish("big", "k", BigValue(i), 0, net::PublishAck::kOffset).ok());
  }
  const auto start = SteadyClock::now();
  auto sub = (*c)->Subscribe("big", 0, 0, /*max_batch=*/1);
  ASSERT_TRUE(sub.ok()) << sub.status().message();
  std::vector<pubsub::StoredMessage> got;
  while (got.size() < kRecords) {
    ASSERT_GT((*sub)->Poll(&got, kRecords - got.size(), 5'000'000), 0u)
        << "stream stalled at " << got.size();
  }
  EXPECT_LT(SteadyClock::now() - start, std::chrono::seconds(1));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(got[i].offset, static_cast<pubsub::Offset>(i));
    EXPECT_EQ(got[i].message.value, BigValue(i));
  }
  EXPECT_EQ(h.pool->metrics().counter("runtime.slow_consumer.drops").value(), 0);
}

// 256 records of 64 KiB exceed the 16 MiB frame ceiling. FETCH means "up to
// max", so it answers with the prefix one frame carries; the client's
// decoder never sees an oversized frame and the connection stays usable.
TEST(ServerTest, FetchAnswersWithThePrefixOneFrameCarries) {
  Harness h;
  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->CreateTopic("big", {.partitions = 1}).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*c)->Publish("big", "k", BigValue(i), 0, net::PublishAck::kOffset).ok());
  }
  auto first = (*c)->Fetch("big", 0, 0, 256);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ASSERT_GT(first->size(), 0u);
  EXPECT_LT(first->size(), 256u);
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].offset, i);
  }
  EXPECT_FALSE((*c)->broken());
  auto rest = (*c)->Fetch("big", 0, first->size(), 256);
  ASSERT_TRUE(rest.ok()) << rest.status().message();
  ASSERT_FALSE(rest->empty());
  EXPECT_EQ(rest->front().offset, first->size());
  EXPECT_TRUE((*c)->Ping().ok());
}

// With the default max_batch of 256, one drained batch of 64 KiB records
// outgrows a frame; the server splits it across DELIVERs.
TEST(ServerTest, DefaultBatchSubscriptionSplitsAcrossFrames) {
  Harness h;
  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE((*c)->CreateTopic("big", {.partitions = 1}).ok());
  constexpr int kRecords = 300;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*c)->Publish("big", "k", BigValue(i), 0, net::PublishAck::kOffset).ok());
  }
  auto sub = (*c)->Subscribe("big", 0, 0);
  ASSERT_TRUE(sub.ok()) << sub.status().message();
  std::vector<pubsub::StoredMessage> got;
  while (got.size() < kRecords) {
    ASSERT_GT((*sub)->Poll(&got, kRecords - got.size(), 5'000'000), 0u)
        << "stream stalled at " << got.size() << ", broken " << (*c)->broken();
  }
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(got[i].offset, static_cast<pubsub::Offset>(i));
    EXPECT_EQ(got[i].message.value, BigValue(i));
  }
  EXPECT_FALSE((*c)->broken());
}

// An in-process publisher can append a record no frame can carry. The wire
// never skips it: the stream that reaches it ends with a stream-scoped
// ERROR, a FETCH of it fails, and the connection and its other calls live.
TEST(ServerTest, RecordLargerThanAFrameEndsItsStreamLoudly) {
  Harness h;
  ASSERT_TRUE(h.broker->CreateTopic("huge", {.partitions = 1}).ok());
  ASSERT_TRUE(h.broker->PublishSync("huge", {.key = "a", .value = "small"}, 0).ok());
  ASSERT_TRUE(
      h.broker->PublishSync("huge", {.key = "b", .value = std::string(net::kMaxPayload, 'x')}, 0)
          .ok());
  ASSERT_TRUE(h.broker->PublishSync("huge", {.key = "c", .value = "after"}, 0).ok());

  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  auto sub = (*c)->Subscribe("huge", 0, 0);
  ASSERT_TRUE(sub.ok()) << sub.status().message();
  std::vector<pubsub::StoredMessage> got;
  while ((*sub)->Poll(&got, 10, 2'000'000) > 0) {
  }
  ASSERT_EQ(got.size(), 1u);  // Offset 0; nothing past the record that cannot fit.
  EXPECT_EQ(got[0].offset, 0u);
  ASSERT_TRUE((*sub)->errored());
  EXPECT_EQ((*sub)->error().code, static_cast<std::uint32_t>(StatusCode::kResourceExhausted));

  auto fetched = (*c)->Fetch("huge", 0, 1, 10);
  EXPECT_EQ(fetched.status().code(), StatusCode::kResourceExhausted);
  auto after = (*c)->Fetch("huge", 0, 2, 10);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), 1u);
  EXPECT_EQ((*after)[0].message.value, "after");
  EXPECT_FALSE((*c)->broken());
  EXPECT_TRUE((*c)->Ping().ok());
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

// The client side of the one-version rule: a stand-in server answers HELLO
// with another version, and Connect fails without sending anything more.
TEST(ServerTest, ConnectFailsAgainstAServerStatingAnotherVersion) {
  for (const std::uint32_t version : {net::kProtocolVersion - 1u, net::kProtocolVersion + 1u}) {
    int port = 0;
    common::Result<net::Fd> listener = net::TcpListen("127.0.0.1", 0, 1, &port);
    ASSERT_TRUE(listener.ok());
    std::thread stand_in([&] {
      ASSERT_TRUE(net::WaitReadable(listener->get(), 5'000'000));
      RawConn conn(net::Fd(::accept(listener->get(), nullptr, nullptr)));
      net::Frame f;
      ASSERT_TRUE(conn.Recv(&f));
      ASSERT_EQ(f.verb, net::Verb::kHello);
      net::HelloResponse hello;
      hello.wire_version = version;
      hello.heartbeat_interval_us = 3600 * common::kMicrosPerSecond;
      hello.heartbeat_misses = 3;
      hello.max_payload = net::kMaxPayload;
      std::string payload;
      net::Encode(hello, &payload);
      conn.Send(net::Verb::kHello, f.request_id, payload);
      net::Frame extra;
      EXPECT_FALSE(conn.Recv(&extra)) << "a refused client sent " << net::VerbName(extra.verb);
    });
    {
      client::ClientOptions options;
      options.auto_heartbeat = false;
      auto c = client::Client::Connect("127.0.0.1", port, options);
      EXPECT_FALSE(c.ok()) << "version " << version;
      if (!c.ok()) {
        EXPECT_NE(c.status().message().find("version mismatch"), std::string::npos)
            << c.status().message();
      }
    }  // A client that connected anyway closes here, ending the stand-in.
    stand_in.join();
  }
}

// The client holds every request to the payload bound the server advertised
// in HELLO. An oversized one is refused locally with kInvalidArgument, and
// the connection and its open stream live on; sent, it would have ended the
// session (frame_error:oversized) and reset the connection.
TEST(ServerTest, ClientRefusesARequestOverTheServersPayloadBound) {
  Harness h;  // The default bound: 1 MiB.
  auto c = h.Connect();
  ASSERT_TRUE(c.ok());
  ASSERT_EQ((*c)->server_hello().max_payload, 1u << 20);
  ASSERT_TRUE((*c)->CreateTopic("bound", {}).ok());
  auto sub = (*c)->Subscribe("bound", 0, 0);
  ASSERT_TRUE(sub.ok()) << sub.status().message();

  const std::string too_big(2u << 20, 'x');
  pubsub::PublishResult pr;
  const Status refused = (*c)->Publish("bound", "k", too_big, 0, net::PublishAck::kOffset, &pr);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << refused.message();
  auto refused_sub = (*c)->Subscribe(too_big, 0, 0);  // Stream opens too.
  EXPECT_EQ(refused_sub.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE((*c)->broken());
  EXPECT_TRUE((*c)->Ping().ok());

  ASSERT_TRUE((*c)->Publish("bound", "k", "small", 0, net::PublishAck::kOffset, &pr).ok());
  EXPECT_EQ(pr.offset, 0u);
  std::vector<pubsub::StoredMessage> got;
  ASSERT_EQ((*sub)->Poll(&got, 10, 5'000'000), 1u);
  EXPECT_EQ(got[0].message.value, "small");
  EXPECT_EQ(h.pool->metrics().counter("net.frame_errors").value(), 0);
  EXPECT_EQ(h.server->sessions_closed(), 0u);
}

}  // namespace
}  // namespace server
