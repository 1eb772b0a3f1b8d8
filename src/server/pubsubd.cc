#include "server/pubsubd.h"

#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace server {

namespace {

std::int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string PeerName(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {0};
  const unsigned char* b = reinterpret_cast<const unsigned char*>(&addr.sin_addr.s_addr);
  std::snprintf(ip, sizeof(ip), "%u.%u.%u.%u", b[0], b[1], b[2], b[3]);
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

// Shard-side callbacks (async publish/fetch/commit completions, subscription
// ready hooks, watch fan-out) outlive individual sessions and can race
// Stop(): they reach the server only through this gate, which Stop() closes
// under the gate mutex after the loop has joined. A callback that wins the
// race nudges the loop; one that loses sees a null server and no-ops.
struct Server::NudgeGate {
  std::mutex mu;
  Server* server = nullptr;
};

struct Server::Completion {
  std::uint64_t session_id = 0;
  net::Verb verb = net::Verb::kError;
  std::uint64_t request_id = 0;
  std::string payload;
};

// Cross-thread half of a watch stream: ConcurrentWatchService callbacks run
// on shard worker threads and append here; the loop thread drains into
// WATCH_PUSH frames. `resynced` is terminal (the wire restatement of W4);
// `dead` means the session side is gone and deliveries are dropped.
struct Server::WatchQueue {
  std::mutex mu;
  std::vector<net::WatchItem> items;
  bool resynced = false;
  bool overflowed = false;
  bool dead = false;
};

class Server::WatchFan : public watch::WatchCallback {
 public:
  WatchFan(std::shared_ptr<NudgeGate> gate, std::shared_ptr<WatchQueue> queue,
           std::size_t max_queue)
      : gate_(std::move(gate)), queue_(std::move(queue)), max_queue_(max_queue) {}

  void OnEvent(const common::ChangeEvent& event) override {
    net::WatchItem item;
    item.kind = net::WatchItem::Kind::kEvent;
    item.event = event;
    Push(std::move(item), /*resync=*/false);
  }

  void OnProgress(const common::ProgressEvent& event) override {
    net::WatchItem item;
    item.kind = net::WatchItem::Kind::kProgress;
    item.progress = event;
    Push(std::move(item), /*resync=*/false);
  }

  void OnResync() override {
    net::WatchItem item;
    item.kind = net::WatchItem::Kind::kResync;
    Push(std::move(item), /*resync=*/true);
  }

 private:
  void Push(net::WatchItem item, bool resync) {
    {
      std::lock_guard<std::mutex> lock(queue_->mu);
      if (queue_->dead || queue_->resynced) {
        return;  // W4: nothing after the terminal resync (or after teardown).
      }
      if (!resync && queue_->items.size() >= max_queue_) {
        // Slow watcher: the socket cannot keep up with the push stream. A
        // push stream has no pull-side backpressure to lean on, so this is
        // the W3 cut: drop the queued backlog, deliver one terminal resync,
        // and let the watcher re-snapshot. Loud, never silent.
        queue_->items.clear();
        queue_->overflowed = true;
        resync = true;
        item = net::WatchItem{};
        item.kind = net::WatchItem::Kind::kResync;
      }
      if (resync) {
        queue_->resynced = true;
      }
      queue_->items.push_back(std::move(item));
    }
    std::lock_guard<std::mutex> lock(gate_->mu);
    if (gate_->server != nullptr) {
      gate_->server->WakeLoop();
    }
  }

  std::shared_ptr<NudgeGate> gate_;
  std::shared_ptr<WatchQueue> queue_;
  std::size_t max_queue_;
};

struct Server::SubStream {
  std::unique_ptr<runtime::Subscription> sub;
  std::uint32_t max_batch = 256;
};

struct Server::WatchStream {
  std::shared_ptr<WatchQueue> queue;
  std::unique_ptr<WatchFan> fan;
  std::unique_ptr<watch::WatchHandle> handle;  // After fan: destroyed first.
};

struct Server::Session {
  explicit Session(std::size_t max_payload) : decoder(max_payload) {}

  std::uint64_t id = 0;
  net::Fd fd;
  net::FrameDecoder decoder;
  std::string peer;

  // Outbound bytes [out_head, out.size()) are pending; compacted on drain.
  std::string out;
  std::size_t out_head = 0;

  bool hello_done = false;
  // Negotiated wire version: min(client, server), pinned by HELLO. Every
  // outbound frame and version-sensitive payload codec on this session uses
  // it, so a v1 peer never sees a v2-only block.
  std::uint8_t wire_version = net::kProtocolVersion;
  bool saw_goodbye = false;
  bool closing = false;  // Flush pending bytes, then close.
  bool dead = false;     // Torn down; reaped at end of the loop iteration.
  std::string close_cause = "server_close";
  bool close_log = false;
  std::int64_t last_recv_us = 0;

  std::map<std::uint64_t, SubStream> subs;                       // By request id.
  std::map<std::uint64_t, std::unique_ptr<WatchStream>> watches;  // By request id.
};

Server::Server(runtime::ConcurrentBroker* broker, runtime::ConcurrentWatchService* watch,
               common::MetricsRegistry* metrics, ServerOptions options)
    : broker_(broker), watch_(watch), metrics_(metrics), options_(std::move(options)) {
  options_.max_payload = std::min(options_.max_payload, net::kMaxPayload);
  gate_ = std::make_shared<NudgeGate>();
  gate_->server = this;
  sessions_opened_ = &metrics_->counter("net.sessions_opened");
  sessions_closed_ = &metrics_->counter("net.sessions_closed");
  frames_in_ = &metrics_->counter("net.frames_in");
  frames_out_ = &metrics_->counter("net.frames_out");
  bytes_in_ = &metrics_->counter("net.bytes_in");
  bytes_out_ = &metrics_->counter("net.bytes_out");
  frame_errors_ = &metrics_->counter("net.frame_errors");
  heartbeat_misses_ = &metrics_->counter("net.heartbeat_misses");
  backpressure_errors_ = &metrics_->counter("net.backpressure_errors");
  accept_rejected_ = &metrics_->counter("net.accept_rejected");
  watch_overflows_ = &metrics_->counter("net.watch_overflows");
  active_sessions_ = &metrics_->gauge("net.active_sessions");
}

Server::~Server() { Stop(); }

common::Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return common::Status::FailedPrecondition("server already running");
  }
  auto listener = net::TcpListen(options_.host, options_.port, 128, &port_);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(*listener);
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    listener_.Close();
    return common::Status::Internal("pipe: errno " + std::to_string(errno));
  }
  wake_rx_ = net::Fd(pipefd[0]);
  wake_tx_ = net::Fd(pipefd[1]);
  (void)net::SetNonBlocking(wake_rx_.get());
  (void)net::SetNonBlocking(wake_tx_.get());
  wake_pending_.store(false, std::memory_order_relaxed);  // The new pipe is empty.
  {
    // Re-arm the gate (Start after Stop reuses the server).
    std::lock_guard<std::mutex> lock(gate_->mu);
    gate_->server = this;
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return common::Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_.joinable()) {
    loop_.join();
  }
  {
    // Close the gate: in-flight shard-side callbacks either already nudged
    // (harmless — the queues drain into the void below) or see null.
    std::lock_guard<std::mutex> lock(gate_->mu);
    gate_->server = nullptr;
  }
  // Tear down surviving sessions on this thread (a non-worker thread, as the
  // watch-handle contract requires). Subscriptions post their shard-side
  // cancellations, so the pool must still be running here.
  std::vector<std::uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    ids.push_back(id);
  }
  for (std::uint64_t id : ids) {
    Teardown(id, "server_stop", /*log_break=*/false);
  }
  sessions_.clear();
  active_sessions_->Set(0);
  listener_.Close();
  wake_rx_.Close();
  wake_tx_.Close();
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    completions_.clear();
  }
}

void Server::PushCompletion(std::uint64_t session_id, net::Verb verb, std::uint64_t request_id,
                            std::string payload) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    completions_.push_back(Completion{session_id, verb, request_id, std::move(payload)});
  }
  WakeLoop();
}

void Server::WakeLoop() {
  if (!wake_tx_.valid()) {
    return;
  }
  // Only the false→true edge writes. While the flag is up, a byte is in the
  // pipe or the loop has yet to clear the flag, and the loop clears it
  // before it swaps the pending lists: everything queued before this call
  // is picked up by that swap or a later one.
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  const char b = 1;
  // A full pipe already guarantees a pending wakeup; errors are ignorable.
  (void)::write(wake_tx_.get(), &b, 1);
}

Server::Session* Server::FindSession(std::uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void Server::Loop() {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> order;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    order.clear();
    pfds.push_back(pollfd{listener_.get(), POLLIN, 0});
    pfds.push_back(pollfd{wake_rx_.get(), POLLIN, 0});
    for (const auto& [id, s] : sessions_) {
      short events = POLLIN;
      if (s->out.size() > s->out_head) {
        events |= POLLOUT;
      }
      pfds.push_back(pollfd{s->fd.get(), events, 0});
      order.push_back(id);
    }

    // Sweep granularity: fine enough that a dead peer is detected within a
    // fraction of its window, coarse enough to stay idle between events.
    const std::int64_t interval_ms =
        std::max<std::int64_t>(1, options_.heartbeat_interval_us / (2 * common::kMicrosPerMilli));
    const int timeout_ms = static_cast<int>(std::min<std::int64_t>(interval_ms, 100));
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      break;  // Catastrophic (EBADF and friends): stop serving, Stop() reaps.
    }
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }

    if (pfds[1].revents != 0) {
      char drain[256];
      while (::read(wake_rx_.get(), drain, sizeof(drain)) > 0) {
      }
    }
    // Re-arm the wake edge before taking the lists: a wake raised from here
    // on writes the pipe again, so its work cannot wait out the poll timeout.
    // (An exchange, so a wake raised before it — Stop()'s included —
    // happens-before the swap and the stop_ check.)
    wake_pending_.exchange(false, std::memory_order_acq_rel);
    std::vector<Completion> completions;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      completions.swap(completions_);
    }

    if (pfds[0].revents != 0) {
      AcceptNew();
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      Session* s = FindSession(order[i]);
      if (s == nullptr || s->dead) {
        continue;
      }
      const short re = pfds[i + 2].revents;
      if ((re & (POLLIN | POLLERR | POLLHUP | POLLNVAL)) != 0) {
        ReadSession(*s);  // EOF/errors surface through the read path.
      }
    }
    for (Completion& c : completions) {
      Session* s = FindSession(c.session_id);
      if (s == nullptr || s->dead) {
        continue;  // Session died while its shard-side work was in flight.
      }
      QueueFrame(*s, c.verb, c.request_id, c.payload);
    }
    // Pump every live session: subscriptions ring through the wake pipe but
    // the pump itself is idempotent and cheap when nothing is buffered, and
    // running it unconditionally also handles drain-below-watermark resumes
    // without separate bookkeeping.
    for (const auto& [id, s] : sessions_) {
      if (s->dead) {
        continue;
      }
      PumpSubscriptions(*s);
      PumpWatches(*s);
    }
    for (const auto& [id, s] : sessions_) {
      if (!s->dead && s->out.size() > s->out_head) {
        FlushSession(*s);
      }
    }
    SweepDeadPeers(SteadyMicros());

    for (auto it = sessions_.begin(); it != sessions_.end();) {
      it = it->second->dead ? sessions_.erase(it) : std::next(it);
    }
    active_sessions_->Set(static_cast<std::int64_t>(sessions_.size()));
  }
}

void Server::AcceptNew() {
  for (;;) {
    sockaddr_in addr{};
    socklen_t alen = sizeof(addr);
    const int fd = ::accept(listener_.get(), reinterpret_cast<sockaddr*>(&addr), &alen);
    if (fd < 0) {
      return;  // EAGAIN (drained) or transient accept failure; poll re-arms.
    }
    net::Fd conn(fd);
    if (sessions_.size() >= options_.max_connections) {
      accept_rejected_->Increment();
      // Best-effort refusal so the client sees a typed error, not a RST.
      std::string payload;
      net::Encode(net::ErrorBody{static_cast<std::uint32_t>(common::StatusCode::kResourceExhausted),
                                 0, "connection limit reached"},
                  &payload);
      std::string frame;
      net::EncodeFrame(frame, net::Verb::kError, 0, payload);
      std::size_t n = 0;
      (void)net::WriteSome(conn.get(), frame.data(), frame.size(), &n);
      continue;
    }
    (void)net::SetNonBlocking(conn.get());
    net::SetNoDelay(conn.get());
    auto s = std::make_unique<Session>(options_.max_payload);
    s->id = next_session_id_++;
    s->fd = std::move(conn);
    s->peer = PeerName(addr);
    s->last_recv_us = SteadyMicros();
    sessions_opened_->Increment();
    sessions_.emplace(s->id, std::move(s));
  }
}

void Server::ReadSession(Session& s) {
  char buf[65536];
  for (;;) {
    std::size_t n = 0;
    const net::IoStatus st = net::ReadSome(s.fd.get(), buf, sizeof(buf), &n);
    if (st == net::IoStatus::kOk) {
      bytes_in_->Increment(static_cast<std::int64_t>(n));
      s.last_recv_us = SteadyMicros();
      s.decoder.Feed({buf, n});
      net::Frame frame;
      for (;;) {
        const net::FrameDecoder::Result r = s.decoder.Next(&frame);
        if (r == net::FrameDecoder::Result::kFrame) {
          frames_in_->Increment();
          DispatchFrame(s, frame);
          if (s.dead) {
            return;
          }
        } else if (r == net::FrameDecoder::Result::kNeedMore) {
          break;
        } else {
          // Framing integrity lost: there is no boundary to resynchronize
          // on. One best-effort typed error, then the connection dies loudly.
          frame_errors_->Increment();
          std::string payload;
          net::Encode(
              net::ErrorBody{static_cast<std::uint32_t>(common::StatusCode::kInvalidArgument), 0,
                             std::string("frame error: ") + net::FrameErrorName(s.decoder.error())},
              &payload);
          std::string out;
          net::EncodeFrame(out, net::Verb::kError, 0, payload);
          std::size_t wrote = 0;
          (void)net::WriteSome(s.fd.get(), out.data(), out.size(), &wrote);
          Teardown(s.id, std::string("frame_error:") + net::FrameErrorName(s.decoder.error()),
                   /*log_break=*/true);
          return;
        }
      }
      continue;  // Keep reading until EAGAIN so level-triggered poll stays quiet.
    }
    if (st == net::IoStatus::kWouldBlock) {
      return;
    }
    if (st == net::IoStatus::kEof) {
      if (s.saw_goodbye) {
        Teardown(s.id, "goodbye", /*log_break=*/false);
      } else if (s.decoder.BytesBuffered() > 0) {
        // The peer died mid-frame: a truncated frame is corruption at EOF.
        frame_errors_->Increment();
        Teardown(s.id, "truncated_frame", /*log_break=*/true);
      } else {
        Teardown(s.id, "peer_closed", /*log_break=*/true);
      }
      return;
    }
    Teardown(s.id, s.saw_goodbye ? "goodbye" : "io_error", /*log_break=*/!s.saw_goodbye);
    return;
  }
}

void Server::FlushSession(Session& s) {
  while (s.out_head < s.out.size()) {
    std::size_t n = 0;
    const net::IoStatus st =
        net::WriteSome(s.fd.get(), s.out.data() + s.out_head, s.out.size() - s.out_head, &n);
    if (st == net::IoStatus::kOk) {
      s.out_head += n;
      bytes_out_->Increment(static_cast<std::int64_t>(n));
      continue;
    }
    if (st == net::IoStatus::kWouldBlock) {
      break;  // POLLOUT re-arms on the next loop pass.
    }
    Teardown(s.id, s.saw_goodbye ? "goodbye" : "io_error", /*log_break=*/!s.saw_goodbye);
    return;
  }
  if (s.out_head == s.out.size()) {
    s.out.clear();
    s.out_head = 0;
    if (s.closing) {
      Teardown(s.id, s.close_cause, s.close_log);
    }
  } else if (s.out_head > (1u << 20) && s.out_head > s.out.size() / 2) {
    s.out.erase(0, s.out_head);
    s.out_head = 0;
  }
}

void Server::QueueFrame(Session& s, net::Verb verb, std::uint64_t request_id,
                       const std::string& payload) {
  if (s.dead) {
    return;
  }
  net::EncodeFrame(s.out, verb, request_id, payload, s.wire_version);
  frames_out_->Increment();
}

void Server::SendError(Session& s, std::uint64_t request_id, const common::Status& status,
                       common::TimeMicros retry_after_us) {
  if (retry_after_us > 0) {
    backpressure_errors_->Increment();
  }
  std::string payload;
  net::Encode(net::ErrorBody{static_cast<std::uint32_t>(status.code()), retry_after_us,
                             status.message()},
              &payload);
  QueueFrame(s, net::Verb::kError, request_id, payload);
}

void Server::FailSession(Session& s, std::uint64_t request_id, const common::Status& status,
                         const std::string& cause) {
  SendError(s, request_id, status, 0);
  s.closing = true;
  s.close_cause = cause;
  s.close_log = true;
}

void Server::DispatchFrame(Session& s, const net::Frame& frame) {
  if (!s.hello_done) {
    if (frame.verb != net::Verb::kHello) {
      frame_errors_->Increment();
      FailSession(s, frame.request_id,
                  common::Status::FailedPrecondition("first frame must be HELLO"),
                  "frame_error:no_hello");
      return;
    }
    net::HelloRequest req;
    if (!net::Decode(frame.payload, &req)) {
      frame_errors_->Increment();
      FailSession(s, frame.request_id, common::Status::InvalidArgument("malformed HELLO"),
                  "frame_error:malformed_payload");
      return;
    }
    if (req.wire_version < net::kMinProtocolVersion) {
      FailSession(s, frame.request_id,
                  common::Status::FailedPrecondition(
                      "protocol version mismatch: client " + std::to_string(req.wire_version) +
                      ", server " + std::to_string(net::kProtocolVersion)),
                  "frame_error:version_mismatch");
      return;
    }
    s.hello_done = true;
    // Speak min(client, server): a v1 client gets v1 frames and payloads; the
    // frame header's version byte agrees with the payload's restatement for
    // every client this codebase ships, and the payload is authoritative.
    s.wire_version = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(req.wire_version, net::kProtocolVersion));
    net::HelloResponse resp;
    resp.wire_version = s.wire_version;
    resp.heartbeat_interval_us = options_.heartbeat_interval_us;
    resp.heartbeat_misses = options_.heartbeat_misses;
    resp.max_payload = static_cast<std::uint32_t>(options_.max_payload);
    resp.server_name = options_.name;
    std::string payload;
    net::Encode(resp, &payload);
    QueueFrame(s, net::Verb::kHello, frame.request_id, payload);
    return;
  }

  switch (frame.verb) {
    case net::Verb::kHeartbeat: {
      // Echo verbatim (same request id, same timestamp): the client measures
      // liveness RTT; the server side already refreshed last_recv_us.
      QueueFrame(s, net::Verb::kHeartbeat, frame.request_id, std::string(frame.payload));
      return;
    }
    case net::Verb::kGoodbye: {
      QueueFrame(s, net::Verb::kGoodbye, frame.request_id, "");
      s.saw_goodbye = true;
      s.closing = true;
      s.close_cause = "goodbye";
      s.close_log = false;
      return;
    }
    case net::Verb::kCreateTopic: {
      net::CreateTopicRequest req;
      if (!net::Decode(frame.payload, &req)) {
        break;
      }
      // Fenced across shards — the one deliberately blocking verb (admin
      // plane; rare by construction).
      const common::Status st = broker_->CreateTopic(req.topic, req.config);
      if (st.ok()) {
        QueueFrame(s, net::Verb::kCreateTopic, frame.request_id, "");
      } else {
        SendError(s, frame.request_id, st, 0);
      }
      return;
    }
    case net::Verb::kPublish: {
      net::PublishRequest req;
      if (!net::Decode(frame.payload, &req)) {
        break;
      }
      if (!req.headers.empty() && s.wire_version < 2) {
        SendError(s, frame.request_id,
                  common::Status::InvalidArgument("record headers require protocol v2"), 0);
        return;
      }
      pubsub::Message msg;
      msg.key = std::move(req.key);
      msg.value = std::move(req.value);
      msg.publish_time = req.publish_time;
      msg.headers = std::move(req.headers);
      std::optional<pubsub::PartitionId> partition;
      if (req.has_partition) {
        partition = req.partition;
      }
      common::TimeMicros retry_after = 0;
      if (req.ack == net::PublishAck::kOffset) {
        const std::shared_ptr<NudgeGate> gate = gate_;
        const std::uint64_t sid = s.id;
        const std::uint64_t rid = frame.request_id;
        // A completion can surface kUnavailable too (it runs later, against
        // whatever the shard has become); an ERROR carrying that code with a
        // zero hint would tell a hint-obeying client "don't retry" while the
        // shard is saturated. Capture the base hint now — ring depth at
        // completion time is unknowable here, and the base keeps the bound.
        const common::TimeMicros hint =
            std::max<common::TimeMicros>(1, broker_->pool()->options().retry_after);
        const common::Status st = broker_->TryPublishAsync(
            req.topic, std::move(msg), partition, &retry_after,
            [gate, sid, rid, hint](common::Result<pubsub::PublishResult> r) {
              std::lock_guard<std::mutex> lock(gate->mu);
              if (gate->server == nullptr) {
                return;
              }
              if (r.ok()) {
                std::string payload;
                net::Encode(net::PublishResponse{true, r->partition, r->offset}, &payload);
                gate->server->PushCompletion(sid, net::Verb::kPublish, rid, std::move(payload));
              } else {
                const bool unavailable =
                    r.status().code() == common::StatusCode::kUnavailable;
                std::string payload;
                net::Encode(net::ErrorBody{static_cast<std::uint32_t>(r.status().code()),
                                           unavailable ? hint : 0, r.status().message()},
                            &payload);
                gate->server->PushCompletion(sid, net::Verb::kError, rid, std::move(payload));
              }
            });
        if (!st.ok()) {
          SendError(s, frame.request_id, st, retry_after);
        }
        return;
      }
      const common::Status st = broker_->TryPublish(req.topic, std::move(msg), partition,
                                                    &retry_after);
      if (!st.ok()) {
        SendError(s, frame.request_id, st, retry_after);
      } else if (req.ack == net::PublishAck::kAccept) {
        std::string payload;
        net::Encode(net::PublishResponse{}, &payload);
        QueueFrame(s, net::Verb::kPublish, frame.request_id, payload);
      }
      return;
    }
    case net::Verb::kFetch: {
      net::FetchRequest req;
      if (!net::Decode(frame.payload, &req)) {
        break;
      }
      common::TimeMicros retry_after = 0;
      const std::shared_ptr<NudgeGate> gate = gate_;
      const std::uint64_t sid = s.id;
      const std::uint64_t rid = frame.request_id;
      const std::uint32_t wv = s.wire_version;
      const common::TimeMicros hint =
          std::max<common::TimeMicros>(1, broker_->pool()->options().retry_after);
      const common::Status st = broker_->TryFetchAsync(
          req.topic, req.partition, req.offset, req.max, &retry_after,
          [gate, sid, rid, wv, hint](common::Result<std::vector<pubsub::StoredMessage>> r) {
            std::lock_guard<std::mutex> lock(gate->mu);
            if (gate->server == nullptr) {
              return;
            }
            if (r.ok()) {
              net::MessageBatch batch;
              batch.messages = std::move(*r);
              std::string payload;
              net::Encode(batch, &payload, wv);
              gate->server->PushCompletion(sid, net::Verb::kFetch, rid, std::move(payload));
            } else {
              const bool unavailable =
                  r.status().code() == common::StatusCode::kUnavailable;
              std::string payload;
              net::Encode(net::ErrorBody{static_cast<std::uint32_t>(r.status().code()),
                                         unavailable ? hint : 0, r.status().message()},
                          &payload);
              gate->server->PushCompletion(sid, net::Verb::kError, rid, std::move(payload));
            }
          });
      if (!st.ok()) {
        SendError(s, frame.request_id, st, retry_after);
      }
      return;
    }
    case net::Verb::kSubscribe: {
      net::SubscribeRequest req;
      if (!net::Decode(frame.payload, &req)) {
        break;
      }
      if (s.subs.count(frame.request_id) > 0 || s.watches.count(frame.request_id) > 0) {
        SendError(s, frame.request_id,
                  common::Status::AlreadyExists("stream id already in use"), 0);
        return;
      }
      if (req.has_filter && s.wire_version < 2) {
        SendError(s, frame.request_id,
                  common::Status::InvalidArgument("filtered subscribe requires protocol v2"), 0);
        return;
      }
      runtime::SubscriptionOptions opts;
      opts.handoff_capacity = options_.subscription_handoff;
      opts.slow_consumer = options_.slow_consumer;
      // An event-loop consumer never parks in Wait(), so its re-check sweep
      // never runs: every ring must reach the hook (no coalescing).
      opts.wake_coalesce_us = 0;
      if (req.has_filter) {
        opts.filter = std::move(req.filter);
      }
      auto sub = broker_->Subscribe(req.topic, req.partition, req.start, opts);
      if (sub == nullptr) {
        SendError(s, frame.request_id,
                  common::Status::NotFound("no such topic/partition: " + req.topic + "/" +
                                           std::to_string(req.partition)),
                  0);
        return;
      }
      const std::shared_ptr<NudgeGate> gate = gate_;
      sub->SetReadyHook([gate] {
        std::lock_guard<std::mutex> lock(gate->mu);
        if (gate->server != nullptr) {
          gate->server->WakeLoop();
        }
      });
      SubStream stream;
      stream.sub = std::move(sub);
      stream.max_batch = std::max<std::uint32_t>(1, req.max_batch);
      s.subs.emplace(frame.request_id, std::move(stream));
      QueueFrame(s, net::Verb::kSubscribe, frame.request_id, "");
      return;
    }
    case net::Verb::kWatch: {
      net::WatchRequest req;
      if (!net::Decode(frame.payload, &req)) {
        break;
      }
      if (watch_ == nullptr) {
        SendError(s, frame.request_id,
                  common::Status::FailedPrecondition("server has no watch plane"), 0);
        return;
      }
      if (s.subs.count(frame.request_id) > 0 || s.watches.count(frame.request_id) > 0) {
        SendError(s, frame.request_id,
                  common::Status::AlreadyExists("stream id already in use"), 0);
        return;
      }
      if (req.has_filter && s.wire_version < 2) {
        SendError(s, frame.request_id,
                  common::Status::InvalidArgument("filtered watch requires protocol v2"), 0);
        return;
      }
      auto stream = std::make_unique<WatchStream>();
      stream->queue = std::make_shared<WatchQueue>();
      stream->fan = std::make_unique<WatchFan>(gate_, stream->queue,
                                               options_.max_watch_queue);
      if (req.has_filter) {
        // low/high and the filter's range are encoded to agree; intersecting
        // honors both if a foreign client ever disagrees.
        watch::Filter filter = std::move(req.filter);
        filter.range = common::KeyRange{req.low, req.high}.Intersect(filter.range);
        stream->handle = watch_->WatchFiltered(std::move(filter), req.version, stream->fan.get());
      } else {
        stream->handle = watch_->Watch(req.low, req.high, req.version, stream->fan.get());
      }
      if (stream->handle == nullptr) {
        // Header predicates: change events carry no headers (docs/FANOUT.md).
        SendError(s, frame.request_id,
                  common::Status::InvalidArgument("watch filters cannot use header predicates"),
                  0);
        return;
      }
      s.watches.emplace(frame.request_id, std::move(stream));
      QueueFrame(s, net::Verb::kWatch, frame.request_id, "");
      return;
    }
    case net::Verb::kCommit: {
      net::CommitRequest req;
      if (!net::Decode(frame.payload, &req)) {
        break;
      }
      common::TimeMicros retry_after = 0;
      std::optional<pubsub::Offset> commit_offset;
      if (req.mode != net::CommitMode::kQuery) {
        commit_offset = req.offset;
      }
      common::Status st;
      if (req.mode == net::CommitMode::kCommit) {
        // Plain commit acks acceptance: once the task is on the owner
        // shard's queue the commit is as durable as any accepted publish.
        st = broker_->TryCommitAsync(req.group, req.partition, commit_offset, &retry_after,
                                     nullptr);
        if (st.ok()) {
          std::string payload;
          net::Encode(net::CommitResponse{}, &payload);
          QueueFrame(s, net::Verb::kCommit, frame.request_id, payload);
          return;
        }
      } else {
        const std::shared_ptr<NudgeGate> gate = gate_;
        const std::uint64_t sid = s.id;
        const std::uint64_t rid = frame.request_id;
        st = broker_->TryCommitAsync(req.group, req.partition, commit_offset, &retry_after,
                                     [gate, sid, rid](pubsub::Offset committed) {
                                       std::lock_guard<std::mutex> lock(gate->mu);
                                       if (gate->server == nullptr) {
                                         return;
                                       }
                                       std::string payload;
                                       net::Encode(net::CommitResponse{true, committed}, &payload);
                                       gate->server->PushCompletion(sid, net::Verb::kCommit, rid,
                                                                    std::move(payload));
                                     });
        if (st.ok()) {
          return;
        }
      }
      SendError(s, frame.request_id, st, retry_after);
      return;
    }
    case net::Verb::kCancel: {
      // Idempotent: cancelling an unknown stream still acks (the stream may
      // have already died server-side, e.g. a watch cut to resync).
      auto sub_it = s.subs.find(frame.request_id);
      if (sub_it != s.subs.end()) {
        s.subs.erase(sub_it);  // ~Subscription posts the shard-side cancel.
      }
      auto watch_it = s.watches.find(frame.request_id);
      if (watch_it != s.watches.end()) {
        {
          std::lock_guard<std::mutex> lock(watch_it->second->queue->mu);
          watch_it->second->queue->dead = true;
        }
        watch_it->second->handle->Cancel();
        s.watches.erase(watch_it);
      }
      QueueFrame(s, net::Verb::kCancel, frame.request_id, "");
      return;
    }
    default:
      frame_errors_->Increment();
      FailSession(s, frame.request_id,
                  common::Status::InvalidArgument(std::string("unexpected verb ") +
                                                  net::VerbName(frame.verb)),
                  "frame_error:unexpected_verb");
      return;
  }
  // Shared malformed-payload exit for every `break` above: a peer that sends
  // a structurally valid frame whose payload does not decode is as broken as
  // one that fails CRC — terminal, loud.
  frame_errors_->Increment();
  FailSession(s, frame.request_id,
              common::Status::InvalidArgument(std::string("malformed ") +
                                              net::VerbName(frame.verb) + " payload"),
              "frame_error:malformed_payload");
}

void Server::PumpSubscriptions(Session& s) {
  if (s.closing || s.subs.empty()) {
    return;
  }
  std::uint64_t broken_rid = 0;
  bool broken = false;
  for (auto& [rid, stream] : s.subs) {
    // Session-level flow control: a backed-up socket stops draining and the
    // subscription's bounded handoff lane fills. What happens next is the
    // slow-consumer policy: under kBlock the shard-side pump stalls and
    // backpressure reaches the publisher with nothing dropped; under
    // kDropOldest the lane evicts (counted) and the stream stays live;
    // under kDisconnect the lane breaks and the session is torn down below.
    while (s.out.size() - s.out_head < options_.send_buffer_limit) {
      net::MessageBatch batch;
      if (stream.sub->PollBatch(&batch.messages, stream.max_batch) == 0) {
        break;
      }
      std::string payload;
      net::Encode(batch, &payload, s.wire_version);
      QueueFrame(s, net::Verb::kDeliver, rid, payload);
    }
    if (!broken && stream.sub->broken()) {
      broken = true;
      broken_rid = rid;
    }
  }
  if (broken) {
    // The runtime cut the lane (kDisconnect): no more data will ever flow on
    // this stream. Disconnect the whole session, loudly — the final ERROR
    // frame tells the peer why, and the teardown logs the kSessionBreak.
    FailSession(s, broken_rid,
                common::Status::ResourceExhausted(
                    "slow consumer: subscription handoff overflowed"),
                "slow_consumer");
  }
}

void Server::PumpWatches(Session& s) {
  if (s.closing || s.watches.empty()) {
    return;
  }
  std::vector<std::uint64_t> finished;
  for (auto& [rid, stream] : s.watches) {
    net::WatchPush push;
    bool terminal = false;
    bool overflowed = false;
    {
      std::lock_guard<std::mutex> lock(stream->queue->mu);
      if (stream->queue->items.empty()) {
        continue;
      }
      push.items.swap(stream->queue->items);
      terminal = stream->queue->resynced;
      overflowed = stream->queue->overflowed;
    }
    std::string payload;
    net::Encode(push, &payload);
    QueueFrame(s, net::Verb::kWatchPush, rid, payload);
    if (terminal) {
      finished.push_back(rid);
      if (overflowed) {
        watch_overflows_->Increment();
        if (options_.obs != nullptr) {
          options_.obs->LogEvent(obs::EventKind::kSessionBreak, "slow_watcher",
                                 "session " + std::to_string(s.id) + " watch " +
                                     std::to_string(rid) + " peer " + s.peer);
        }
      }
    }
  }
  for (std::uint64_t rid : finished) {
    auto it = s.watches.find(rid);
    {
      std::lock_guard<std::mutex> lock(it->second->queue->mu);
      it->second->queue->dead = true;
    }
    it->second->handle->Cancel();
    s.watches.erase(it);  // W4: the stream is over; CANCEL from the client
                          // later still acks idempotently.
  }
}

void Server::SweepDeadPeers(std::int64_t now_us) {
  const std::int64_t window =
      options_.heartbeat_interval_us * static_cast<std::int64_t>(options_.heartbeat_misses);
  if (window <= 0) {
    return;
  }
  std::vector<std::uint64_t> dead;
  for (const auto& [id, s] : sessions_) {
    if (!s->dead && now_us - s->last_recv_us > window) {
      dead.push_back(id);
    }
  }
  for (std::uint64_t id : dead) {
    heartbeat_misses_->Increment();
    Teardown(id, "heartbeat_miss", /*log_break=*/true);
  }
}

void Server::Teardown(std::uint64_t session_id, const std::string& cause, bool log_break) {
  Session* s = FindSession(session_id);
  if (s == nullptr || s->dead) {
    return;
  }
  s->dead = true;
  // Silence the watch fans before cancelling, so a delivery racing the
  // cancel cannot enqueue into a stream nobody will drain.
  for (auto& [rid, stream] : s->watches) {
    {
      std::lock_guard<std::mutex> lock(stream->queue->mu);
      stream->queue->dead = true;
    }
    stream->handle->Cancel();
  }
  s->watches.clear();
  // ~Subscription posts each shard-side waiter cancellation; the handoff
  // lanes (and any parked shard pumps) are reclaimed with them.
  s->subs.clear();
  s->fd.Close();
  sessions_closed_->Increment();
  if (log_break) {
    if (options_.obs != nullptr) {
      options_.obs->LogEvent(obs::EventKind::kSessionBreak, cause,
                             "session " + std::to_string(session_id) + " peer " + s->peer);
    }
  }
  // The map entry is reaped by the loop iteration (or Stop); the Session
  // object stays valid for any reference still held on this stack.
}

}  // namespace server
