#include "server/pubsubd.h"

#include <errno.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <span>
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

std::string ErrorPayload(const common::Status& status, common::TimeMicros retry_after_us) {
  std::string payload;
  net::Encode(
      net::ErrorBody{static_cast<std::uint32_t>(status.code()), retry_after_us, status.message()},
      &payload);
  return payload;
}

// A record whose encoding alone exceeds the frame ceiling. The wire cannot
// carry it (an in-process publisher can append one), so the FETCH or stream
// that reaches it ends with this error instead of skipping it.
common::Status TooLargeToFrame(const pubsub::StoredMessage& m) {
  return common::Status::ResourceExhausted(
      "record at offset " + std::to_string(m.offset) + " exceeds the " +
      std::to_string(net::kMaxPayload >> 20) + " MiB frame ceiling");
}

// epoll tags: session ids start at 1, so neither names a session.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr int kMaxEvents = 256;

// epoll_wait with EINTR read as "no events"; -1 only for a real failure.
int EpollWait(int epfd, epoll_event* events, int capacity, int timeout_ms) {
  const int n = ::epoll_wait(epfd, events, capacity, timeout_ms);
  return n < 0 && errno == EINTR ? 0 : n;
}

}  // namespace

// Shard-side callbacks (async publish/fetch/commit completions, subscription
// ready hooks, watch fan-out) outlive individual sessions and can race
// Stop(): they reach the server only through this gate, which Stop() closes
// under the gate mutex after the loop has joined. A callback that wins the
// race nudges the loop; one that loses sees a null server and no-ops.
struct Server::NudgeGate {
  // A ready hook or a watch push: the session has stream data to pump.
  void Ready(std::uint64_t session_id) {
    std::lock_guard<std::mutex> lock(mu);
    if (server != nullptr) {
      server->PushReady(session_id);
    }
  }

  // A finished async response for the loop to frame.
  void Complete(std::uint64_t session_id, net::Verb verb, std::uint64_t request_id,
                std::string payload) {
    std::lock_guard<std::mutex> lock(mu);
    if (server != nullptr) {
      server->PushCompletion(session_id, verb, request_id, std::move(payload));
    }
  }

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
  WatchFan(std::shared_ptr<NudgeGate> gate, std::uint64_t session_id,
           std::shared_ptr<WatchQueue> queue, std::size_t max_queue)
      : gate_(std::move(gate)),
        session_id_(session_id),
        queue_(std::move(queue)),
        max_queue_(max_queue) {}

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
    gate_->Ready(session_id_);
  }

  std::shared_ptr<NudgeGate> gate_;
  std::uint64_t session_id_;
  std::shared_ptr<WatchQueue> queue_;
  std::size_t max_queue_;
};

struct Server::SubStream {
  std::unique_ptr<runtime::Subscription> sub;
  std::uint32_t max_batch = 256;
};

struct Server::WatchStream {
  // Ends the stream: silences the fan before cancelling, so a delivery
  // racing the cancel cannot enqueue into a stream nobody will drain.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(queue->mu);
      queue->dead = true;
    }
    handle->Cancel();
  }

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
  bool saw_goodbye = false;
  bool closing = false;  // Flush pending bytes, then close.
  bool dead = false;     // Torn down; reaped at end of the loop iteration.
  bool queued = false;   // On the loop's ready list.
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
  loop_idle_polled_ = &metrics_->counter("net.loop_idle_polled");
  loop_idle_parked_ = &metrics_->counter("net.loop_idle_parked");
  active_sessions_ = &metrics_->gauge("net.active_sessions");
  // Polls only while the process's pollers leave a hardware thread free.
  idle_ = common::IdlePolicy(/*may_poll=*/true, loop_idle_polled_, loop_idle_parked_);
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
  epoll_ = net::Fd(::epoll_create1(EPOLL_CLOEXEC));
  wake_fd_ = net::Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  // Level-triggered: the listener is drained to EAGAIN and the eventfd read
  // to zero, so either is reported again only with new work.
  epoll_event listen_ev{};
  listen_ev.events = EPOLLIN;
  listen_ev.data.u64 = kListenerTag;
  epoll_event wake_ev{};
  wake_ev.events = EPOLLIN;
  wake_ev.data.u64 = kWakeTag;
  if (!epoll_.valid() || !wake_fd_.valid() ||
      ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &listen_ev) != 0 ||
      ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &wake_ev) != 0) {
    const int err = errno;
    listener_.Close();
    epoll_.Close();
    wake_fd_.Close();
    return common::Status::Internal("epoll set-up: errno " + std::to_string(err));
  }
  wake_pending_.store(false);  // The new eventfd is empty.
  parking_.store(false);
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
  ready_.clear();
  dead_.clear();
  active_sessions_->Set(0);
  listener_.Close();
  epoll_.Close();
  wake_fd_.Close();
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    completions_.clear();
    nudged_.clear();
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

void Server::PushReady(std::uint64_t session_id) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    nudged_.push_back(session_id);
  }
  WakeLoop();
}

void Server::WakeLoop() {
  // Only the false→true edge can owe the loop a wake-up: while the flag is
  // up, the loop has yet to lower it, and it takes the pending lists after
  // lowering it. Only a parking loop needs the eventfd; a polling or busy
  // one sees the flag before it blocks (WaitForWork).
  if (wake_pending_.exchange(true)) {
    return;
  }
  if (parking_.load()) {
    const std::uint64_t one = 1;
    // The eventfd counter cannot overflow on one write per park; errors are
    // ignorable (a readable eventfd already ends the park).
    (void)::write(wake_fd_.get(), &one, sizeof(one));
  }
}

Server::Session* Server::FindSession(std::uint64_t id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void Server::MarkReady(Session& s) {
  if (!s.dead && !s.queued) {
    s.queued = true;
    ready_.push_back(s.id);
  }
}

int Server::WaitForWork(epoll_event* events, int capacity) {
  if (!ready_.empty()) {
    return EpollWait(epoll_.get(), events, capacity, 0);
  }
  int n = 0;
  // The poll probe: the wake flag (completions, ready hooks, Stop), then
  // the epoll set without blocking.
  const auto probe = [&] {
    if (wake_pending_.load()) {
      return true;
    }
    n = EpollWait(epoll_.get(), events, capacity, 0);
    return n != 0;
  };
  if (probe()) {
    return n;
  }
  idle_.Idle(probe, [&] {
    // No lost wake. The loop stores parking_ = true, then loads
    // wake_pending_; WakeLoop stores wake_pending_ = true, then loads
    // parking_. All four are seq_cst, so in their single total order one
    // store precedes the other side's load: either this load sees the flag
    // up and the loop does not block, or WakeLoop sees parking_ up and
    // writes the eventfd, which ends (or pre-empts) the epoll_wait below.
    parking_.store(true);
    if (!wake_pending_.load()) {
      const std::int64_t until_sweep = next_sweep_us_ - SteadyMicros();
      const int timeout_ms = static_cast<int>(
          std::max<std::int64_t>(0, (until_sweep + common::kMicrosPerMilli - 1) /
                                        common::kMicrosPerMilli));
      n = EpollWait(epoll_.get(), events, capacity, timeout_ms);
    }
    parking_.store(false);
  });
  return n;
}

void Server::Loop() {
  epoll_event events[kMaxEvents];
  // Sweep granularity: fine enough that a dead peer is detected within a
  // fraction of its window, coarse enough to stay parked between events.
  const std::int64_t sweep_interval_us = std::clamp<std::int64_t>(
      options_.heartbeat_interval_us / 2, common::kMicrosPerMilli, 100 * common::kMicrosPerMilli);
  next_sweep_us_ = SteadyMicros() + sweep_interval_us;
  // Swapped with the pending lists each turn and cleared after, so their
  // capacity circulates instead of being reallocated.
  std::vector<Completion> completions;
  std::vector<std::uint64_t> nudged;
  while (!stop_.load()) {
    const int n = WaitForWork(events, kMaxEvents);
    if (n < 0) {
      break;  // Catastrophic (EBADF and friends): stop serving, Stop() reaps.
    }
    if (stop_.load()) {
      break;
    }
    // Lower the wake flag before taking the lists: a wake raised from here
    // on is a new false→true edge, so its work cannot wait out a park. (An
    // exchange, so a wake raised before it — Stop()'s included —
    // happens-before the swap and the stop_ check.)
    wake_pending_.exchange(false);
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      completions.swap(completions_);
      nudged.swap(nudged_);
    }

    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        AcceptNew();
        continue;
      }
      if (tag == kWakeTag) {
        std::uint64_t count = 0;
        (void)::read(wake_fd_.get(), &count, sizeof(count));
        continue;
      }
      Session* s = FindSession(tag);
      if (s == nullptr || s->dead) {
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) != 0) {
        ReadSession(*s);  // EOF/errors surface through the read path.
      }
      MarkReady(*s);  // Replies to flush, or (EPOLLOUT) room to flush into.
    }
    for (Completion& c : completions) {
      Session* s = FindSession(c.session_id);
      if (s == nullptr || s->dead) {
        continue;  // Session died while its shard-side work was in flight.
      }
      QueueFrame(*s, c.verb, c.request_id, c.payload);
      MarkReady(*s);
    }
    for (std::uint64_t id : nudged) {
      if (Session* s = FindSession(id)) {
        MarkReady(*s);
      }
    }
    completions.clear();
    nudged.clear();
    ServeReady();

    const std::int64_t now = SteadyMicros();
    if (now >= next_sweep_us_) {
      SweepDeadPeers(now);
      next_sweep_us_ = now + sweep_interval_us;
    }
    for (std::uint64_t id : dead_) {
      sessions_.erase(id);
    }
    dead_.clear();
    active_sessions_->Set(static_cast<std::int64_t>(sessions_.size()));
  }
}

void Server::ServeReady() {
  // Serve the list taken at the turn's start; sessions marked meanwhile (a
  // flush that left the watermark) wait for the next turn, which polls the
  // epoll set once and does not park while any are queued.
  serving_.swap(ready_);
  for (std::uint64_t id : serving_) {
    Session* s = FindSession(id);
    if (s == nullptr || s->dead) {
      continue;
    }
    s->queued = false;
    PumpSubscriptions(*s);
    PumpWatches(*s);
    if (s->out.size() > s->out_head) {
      FlushSession(*s);
    }
  }
  serving_.clear();
}

void Server::AcceptNew() {
  for (;;) {
    sockaddr_in addr{};
    socklen_t alen = sizeof(addr);
    const int fd = ::accept(listener_.get(), reinterpret_cast<sockaddr*>(&addr), &alen);
    if (fd < 0) {
      return;  // EAGAIN (drained) or transient accept failure; epoll re-reports.
    }
    net::Fd conn(fd);
    epoll_event ev{};
    // Edge-triggered: reads run to EAGAIN and flushes to EAGAIN or an empty
    // buffer, so the set reports a socket again only on new bytes or room.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = next_session_id_;
    if (sessions_.size() >= options_.max_connections) {
      accept_rejected_->Increment();
      // Best-effort refusal so the client sees a typed error, not a RST.
      std::string frame;
      net::EncodeFrame(
          frame, net::Verb::kError, 0,
          ErrorPayload(common::Status::ResourceExhausted("connection limit reached"), 0));
      std::size_t n = 0;
      (void)net::WriteSome(conn.get(), frame.data(), frame.size(), &n);
      continue;
    }
    (void)net::SetNonBlocking(conn.get());
    net::SetNoDelay(conn.get());
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn.get(), &ev) != 0) {
      accept_rejected_->Increment();  // The wait set is full (max_user_watches).
      continue;
    }
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
          const std::string kind = net::FrameErrorName(s.decoder.error());
          std::string out;
          net::EncodeFrame(
              out, net::Verb::kError, 0,
              ErrorPayload(common::Status::InvalidArgument("frame error: " + kind), 0));
          std::size_t wrote = 0;
          (void)net::WriteSome(s.fd.get(), out.data(), out.size(), &wrote);
          Teardown(s.id, "frame_error:" + kind, /*log_break=*/true);
          return;
        }
      }
      continue;  // Read to EAGAIN: the edge-triggered set reports only new bytes.
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
  // A session at the watermark has stopped draining its subscriptions, and
  // the records it left in their local lanes ring no hook: the flush that
  // takes it back under must queue it for another pump.
  const bool paused = s.out.size() - s.out_head >= options_.send_buffer_limit;
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
      break;  // The socket's next EPOLLOUT edge marks the session ready.
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
  if (paused && s.out.size() - s.out_head < options_.send_buffer_limit) {
    MarkReady(s);
  }
}

void Server::QueueFrame(Session& s, net::Verb verb, std::uint64_t request_id,
                       const std::string& payload) {
  if (s.dead) {
    return;
  }
  net::EncodeFrame(s.out, verb, request_id, payload);
  frames_out_->Increment();
}

void Server::SendError(Session& s, std::uint64_t request_id, const common::Status& status,
                       common::TimeMicros retry_after_us) {
  if (retry_after_us > 0) {
    backpressure_errors_->Increment();
  }
  QueueFrame(s, net::Verb::kError, request_id, ErrorPayload(status, retry_after_us));
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
    if (req.wire_version != net::kProtocolVersion) {
      FailSession(s, frame.request_id,
                  common::Status::FailedPrecondition(
                      "protocol version mismatch: client " + std::to_string(req.wire_version) +
                      ", server " + std::to_string(net::kProtocolVersion)),
                  "frame_error:version_mismatch");
      return;
    }
    s.hello_done = true;
    net::HelloResponse resp;
    resp.heartbeat_interval_us = options_.heartbeat_interval_us;
    resp.heartbeat_misses = options_.heartbeat_misses;
    resp.max_payload = static_cast<std::uint32_t>(options_.max_payload);
    resp.server_name = options_.name;
    std::string payload;
    net::Encode(resp, &payload);
    QueueFrame(s, net::Verb::kHello, frame.request_id, payload);
    return;
  }

  // SUBSCRIBE and WATCH name their stream by the request id, which no live
  // stream of the session may already hold.
  const auto stream_id_free = [&] {
    if (s.subs.count(frame.request_id) == 0 && s.watches.count(frame.request_id) == 0) {
      return true;
    }
    SendError(s, frame.request_id, common::Status::AlreadyExists("stream id already in use"), 0);
    return false;
  };

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
      pubsub::Message msg;
      msg.key = std::move(req.key);
      msg.value = std::move(req.value);
      msg.publish_time = req.publish_time;
      msg.headers = std::move(req.headers);
      std::optional<pubsub::PartitionId> partition;
      if (req.has_partition) {
        partition = req.partition;
      }
      // kOffset acks from the owner shard once the append ran; kAccept acks
      // here, once the shard's ring took the record; kNone never acks.
      std::function<void(common::Result<pubsub::PublishResult>)> done;
      if (req.ack == net::PublishAck::kOffset) {
        done = [gate = gate_, sid = s.id,
                rid = frame.request_id](common::Result<pubsub::PublishResult> r) {
          // No retry hint: Broker::Publish refuses only an unknown topic or
          // partition, and the facade checked both before posting.
          if (!r.ok()) {
            gate->Complete(sid, net::Verb::kError, rid, ErrorPayload(r.status(), 0));
            return;
          }
          std::string payload;
          net::Encode(net::PublishResponse{true, r->partition, r->offset}, &payload);
          gate->Complete(sid, net::Verb::kPublish, rid, std::move(payload));
        };
      }
      common::TimeMicros retry_after = 0;
      const common::Status st = broker_->TryPublishAsync(req.topic, std::move(msg), partition,
                                                         &retry_after, std::move(done));
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
      const common::Status st = broker_->TryFetchAsync(
          req.topic, req.partition, req.offset, req.max, &retry_after,
          [gate = gate_, sid = s.id,
           rid = frame.request_id](common::Result<std::vector<pubsub::StoredMessage>> r) {
            if (!r.ok()) {
              gate->Complete(sid, net::Verb::kError, rid, ErrorPayload(r.status(), 0));
              return;
            }
            // "Up to max" records: the longest prefix one frame carries.
            std::string payload;
            if (net::EncodeBatchPrefix(*r, &payload) == 0 && !r->empty()) {
              gate->Complete(sid, net::Verb::kError, rid,
                             ErrorPayload(TooLargeToFrame(r->front()), 0));
              return;
            }
            gate->Complete(sid, net::Verb::kFetch, rid, std::move(payload));
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
      if (!stream_id_free()) {
        return;
      }
      runtime::SubscriptionOptions opts;
      opts.handoff_capacity = options_.subscription_handoff;
      opts.slow_consumer = options_.slow_consumer;
      // An event-loop consumer never parks in Wait(), so its re-check sweep
      // never runs: every ring must reach the hook (no coalescing).
      opts.wake_coalesce_us = 0;
      opts.filter = std::move(req.filter);  // Filter{} reads unfiltered.
      auto sub = broker_->Subscribe(req.topic, req.partition, req.start, opts);
      if (sub == nullptr) {
        SendError(s, frame.request_id,
                  common::Status::NotFound("no such topic/partition: " + req.topic + "/" +
                                           std::to_string(req.partition)),
                  0);
        return;
      }
      sub->SetReadyHook([gate = gate_, sid = s.id] { gate->Ready(sid); });
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
      if (!stream_id_free()) {
        return;
      }
      auto stream = std::make_unique<WatchStream>();
      stream->queue = std::make_shared<WatchQueue>();
      stream->fan = std::make_unique<WatchFan>(gate_, s.id, stream->queue,
                                               options_.max_watch_queue);
      stream->handle = watch_->WatchFiltered(std::move(req.filter), req.version, stream->fan.get());
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
      std::optional<pubsub::Offset> commit_offset;
      if (req.mode != net::CommitMode::kQuery) {
        commit_offset = req.offset;
      }
      // A plain commit acks acceptance here: once the task is on the owner
      // shard's queue the commit is as durable as any accepted publish. The
      // other modes answer from the shard with the committed offset.
      std::function<void(pubsub::Offset)> done;
      if (req.mode != net::CommitMode::kCommit) {
        done = [gate = gate_, sid = s.id, rid = frame.request_id](pubsub::Offset committed) {
          std::string payload;
          net::Encode(net::CommitResponse{true, committed}, &payload);
          gate->Complete(sid, net::Verb::kCommit, rid, std::move(payload));
        };
      }
      common::TimeMicros retry_after = 0;
      const common::Status st = broker_->TryCommitAsync(req.group, req.partition, commit_offset,
                                                        &retry_after, std::move(done));
      if (!st.ok()) {
        SendError(s, frame.request_id, st, retry_after);
      } else if (req.mode == net::CommitMode::kCommit) {
        std::string payload;
        net::Encode(net::CommitResponse{}, &payload);
        QueueFrame(s, net::Verb::kCommit, frame.request_id, payload);
      }
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
        watch_it->second->Close();
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
  std::vector<pubsub::StoredMessage> batch;
  for (auto it = s.subs.begin(); it != s.subs.end();) {
    const std::uint64_t rid = it->first;
    SubStream& stream = it->second;
    const pubsub::StoredMessage* too_large = nullptr;
    // Session-level flow control: a backed-up socket stops draining and the
    // subscription's bounded handoff lane fills. What happens next is the
    // slow-consumer policy: under kBlock the shard-side pump stalls and
    // backpressure reaches the publisher with nothing dropped; under
    // kDropOldest the lane evicts (counted) and the stream stays live;
    // under kDisconnect the lane breaks and the session is torn down below.
    while (too_large == nullptr && s.out.size() - s.out_head < options_.send_buffer_limit) {
      batch.clear();
      if (stream.sub->PollBatch(&batch, stream.max_batch) == 0) {
        break;
      }
      // A batch larger than one frame goes out as several DELIVERs.
      for (std::span<const pubsub::StoredMessage> rest(batch); !rest.empty();) {
        std::string payload;
        const std::size_t n = net::EncodeBatchPrefix(rest, &payload);
        if (n == 0) {
          too_large = &rest.front();
          break;
        }
        QueueFrame(s, net::Verb::kDeliver, rid, payload);
        rest = rest.subspan(n);
      }
    }
    if (too_large != nullptr) {
      // No frame can carry the next record: end this stream loudly at its
      // offset rather than skip it. The session and its other streams live.
      SendError(s, rid, TooLargeToFrame(*too_large), 0);
      it = s.subs.erase(it);  // ~Subscription posts the shard-side cancel.
      continue;
    }
    if (!broken && stream.sub->broken()) {
      broken = true;
      broken_rid = rid;
    }
    ++it;
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
    it->second->Close();
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
  for (auto& [rid, stream] : s->watches) {
    stream->Close();
  }
  s->watches.clear();
  // ~Subscription posts each shard-side interest removal; the handoff
  // lanes (and any parked shard pumps) are reclaimed with them.
  s->subs.clear();
  s->fd.Close();  // Also leaves the epoll set.
  dead_.push_back(session_id);
  sessions_closed_->Increment();
  if (log_break) {
    if (options_.obs != nullptr) {
      options_.obs->LogEvent(obs::EventKind::kSessionBreak, cause,
                             "session " + std::to_string(session_id) + " peer " + s->peer);
    }
  }
  // The map entry is reaped at the end of the loop turn (or by Stop); the
  // Session object stays valid for any reference still held on this stack.
}

}  // namespace server
