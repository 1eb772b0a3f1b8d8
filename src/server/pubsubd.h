// pubsubd: the TCP front-end that puts real connections in front of the
// concurrent runtime. One event-loop thread owns every connection and waits
// on one edge-triggered epoll set; per-connection Sessions speak the net/
// frame protocol (HELLO handshake, PUBLISH/FETCH/SUBSCRIBE/WATCH/COMMIT
// verbs, heartbeat keepalive) against a ConcurrentBroker and (optionally) a
// ConcurrentWatchService supplied by the embedding process. Linux only
// (epoll, eventfd).
//
// Design rules, in the backpressure posture of the rest of the runtime:
//
//   * The loop never blocks on a shard. Publishes use TryPublishAsync,
//     fetches TryFetchAsync, commits TryCommitAsync — saturation comes back
//     as an ERROR frame carrying the shard's retry_after hint, propagating
//     backpressure to the remote producer instead of stalling every other
//     connection.
//   * A turn touches only ready sessions: a socket event, a completion, a
//     subscription ready hook or watch push naming the session, or a flush
//     that took a paused session back under send_buffer_limit puts it on the
//     loop's ready list, and the turn reads, pumps and flushes exactly those.
//   * The loop waits the way a shard worker does (common::IdlePolicy): while
//     wake-ups arrive densely it polls its wake flag and epoll_wait(…, 0) for
//     up to IdlePolicy::kPollLimit, then parks in epoll_wait until the next
//     dead-peer sweep is due. Shard-side callbacks raise the wake flag and
//     write the loop's eventfd only when the loop has announced that it
//     parks, so a polling loop costs its producers no syscall. Its polls
//     count against the process's (IdlePolicy::HardwareThreads() - 1) poll
//     slots, which it shares with the shard workers and any client reader.
//   * Long-poll SUBSCRIBE rides the event-driven runtime::Subscription: the
//     owner shard pushes appends into the subscription's handoff lane and
//     the subscription's ready hook puts its session on the ready list.
//     Subscriptions are push-only: the ready hook, not a timeout, brings
//     their data to the loop.
//   * Outbound flow control is layered: a session whose socket send buffer
//     backs up past send_buffer_limit stops draining its subscriptions, the
//     subscriptions' bounded handoff lanes fill and stall the shard-side
//     pump, and nothing is dropped. Watch streams — push-only, no client
//     pull — instead get the W3 treatment: a queue past max_watch_queue is
//     cut over to a terminal resync (loud, counted, obs-logged).
//   * No frame exceeds net::kMaxPayload: FETCH answers with the longest
//     prefix that fits, DELIVER splits a batch across frames, and a record
//     too large for any frame ends its stream (or its FETCH) with an ERROR.
//   * Dead peers are detected, loudly: any frame refreshes a session's
//     liveness clock; a session silent for heartbeat_interval_us *
//     heartbeat_misses is torn down with an obs kSessionBreak event
//     ("heartbeat_miss"), its subscriptions' shard-side interests removed,
//     its watch sessions cancelled. Framing-integrity failures
//     (FrameDecoder errors) and mid-frame EOFs are equally terminal and
//     equally loud ("frame_error:<kind>", "truncated_frame").
//
// Lifecycle: construct over a *started* pool's facades, Start(), serve,
// Stop() — in that order, and Stop() the server before stopping the pool
// (session teardown posts interest removals to shard queues).
#ifndef SRC_SERVER_PUBSUBD_H_
#define SRC_SERVER_PUBSUBD_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/idle_policy.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "net/frame_decoder.h"
#include "net/messages.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/collector.h"
#include "runtime/concurrent_broker.h"
#include "runtime/concurrent_watch.h"

struct epoll_event;

namespace server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0: ephemeral; read the bound port back via port().
  std::string name = "pubsubd";
  // Advertised in HELLO; a session silent for interval * misses is dead.
  common::TimeMicros heartbeat_interval_us = common::kMicrosPerSecond;
  std::uint32_t heartbeat_misses = 3;
  // Frame payload bound enforced by this server's decoders (<= net ceiling).
  std::size_t max_payload = 1u << 20;
  std::size_t max_connections = 4096;
  // Outbound buffer watermark: above it subscription draining pauses for
  // the session (shard-side handoff lanes then stall — end-to-end flow
  // control); draining resumes once the socket catches back up.
  std::size_t send_buffer_limit = 4u << 20;
  // Queued-but-unsent watch items before the stream is cut to a terminal
  // resync (the W3 posture for a push-only stream).
  std::size_t max_watch_queue = 8192;
  // Handoff bound per remote subscription (runtime::SubscriptionOptions).
  std::size_t subscription_handoff = 8192;
  // What a remote subscription does when its handoff lane overflows because
  // the session's socket (and therefore its drain loop) cannot keep up.
  // kBlock is the layered-flow-control default described above; kDropOldest
  // trades a counted gap for a live stream; kDisconnect tears the whole
  // session down with a kSessionBreak cause "slow_consumer" — the
  // MigratoryData posture of isolating slow clients from the fanout path.
  runtime::SlowConsumerPolicy slow_consumer = runtime::SlowConsumerPolicy::kBlock;
  // Lifecycle events (session breaks with causes) land here when non-null.
  obs::Collector* obs = nullptr;
};

class Server {
 public:
  // `watch` may be null (pubsub-only deployment: WATCH verbs are refused
  // with kFailedPrecondition). `metrics` must be the pool's registry (or any
  // thread-safe registry outliving the server).
  Server(runtime::ConcurrentBroker* broker, runtime::ConcurrentWatchService* watch,
         common::MetricsRegistry* metrics, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, spawns the loop thread. kUnavailable if the port is
  // taken.
  common::Status Start();

  // Joins the loop and tears down every session (subscriptions cancelled,
  // watches cancelled, sockets closed). Idempotent. Call before stopping
  // the underlying ShardPool.
  void Stop();

  int port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Loop-maintained gauges, exact after Stop.
  std::uint64_t sessions_opened() const { return sessions_opened_->value(); }
  std::uint64_t sessions_closed() const { return sessions_closed_->value(); }

  // Public only for the nested-callback definitions in pubsubd.cc; not a
  // user surface.
  struct NudgeGate;

 private:
  struct WatchQueue;
  class WatchFan;
  struct WatchStream;
  struct SubStream;
  struct Session;
  struct Completion;

  void Loop();
  // Polls, then parks (idle_), until the epoll set has events, the wake flag
  // is up or the sweep deadline passes; with sessions already on the ready
  // list it only polls the set once. Returns the events read into `events`,
  // or -1 when epoll_wait failed.
  int WaitForWork(epoll_event* events, int capacity);
  // Cross-thread entry points (shard-side callbacks, via the nudge gate).
  // PushCompletion enqueues a finished async response and PushReady a
  // session whose streams have data; both then wake the loop. WakeLoop
  // raises the wake flag and writes the eventfd if the loop is parking.
  void WakeLoop();
  void PushCompletion(std::uint64_t session_id, net::Verb verb, std::uint64_t request_id,
                      std::string payload);
  void PushReady(std::uint64_t session_id);
  // Loop side: queues a live session for this turn's (or, while serving, the
  // next turn's) pump and flush.
  void MarkReady(Session& s);
  void ServeReady();
  void AcceptNew();
  void ReadSession(Session& s);
  void FlushSession(Session& s);
  void DispatchFrame(Session& s, const net::Frame& frame);
  void PumpSubscriptions(Session& s);
  void PumpWatches(Session& s);
  void QueueFrame(Session& s, net::Verb verb, std::uint64_t request_id,
                 const std::string& payload);
  void SendError(Session& s, std::uint64_t request_id, const common::Status& status,
                 common::TimeMicros retry_after_us);
  // Appends an ERROR (echoing the offending request id) and marks the
  // session for close-after-flush.
  void FailSession(Session& s, std::uint64_t request_id, const common::Status& status,
                   const std::string& cause);
  void Teardown(std::uint64_t session_id, const std::string& cause, bool log_break);
  void SweepDeadPeers(std::int64_t now_us);
  Session* FindSession(std::uint64_t id);

  runtime::ConcurrentBroker* broker_;
  runtime::ConcurrentWatchService* watch_;
  common::MetricsRegistry* metrics_;
  ServerOptions options_;

  net::Fd listener_;
  net::Fd epoll_;    // The loop's wait set: listener, wake_fd_, every session.
  net::Fd wake_fd_;  // eventfd; written only to end a park.
  int port_ = 0;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  // Sessions are loop-confined; the maps below are the only cross-thread
  // surfaces (shard-side completions / ready hooks / watch callbacks).
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;

  std::mutex pending_mu_;
  std::vector<Completion> completions_;  // Shard threads → loop.
  std::vector<std::uint64_t> nudged_;    // Sessions whose streams have data.
  std::shared_ptr<NudgeGate> gate_;      // Closed by Stop().

  // The wake handshake. WakeLoop raises wake_pending_ and, on its
  // false→true edge, writes wake_fd_ if parking_ is up; the loop lowers
  // wake_pending_ before it takes the pending lists, and raises parking_
  // and re-checks wake_pending_ before it blocks. All four accesses are
  // seq_cst (see WaitForWork for why no wake is lost).
  std::atomic<bool> wake_pending_{false};
  std::atomic<bool> parking_{false};

  // Loop-confined.
  common::IdlePolicy idle_;
  std::vector<std::uint64_t> ready_;    // Sessions to serve in the next turn.
  std::vector<std::uint64_t> serving_;  // The turn's ready list, while served.
  std::vector<std::uint64_t> dead_;     // Torn down; erased at the turn's end.
  std::int64_t next_sweep_us_ = 0;      // Dead-peer sweep deadline.

  // Hot counters resolved once.
  common::Counter* sessions_opened_;
  common::Counter* sessions_closed_;
  common::Counter* frames_in_;
  common::Counter* frames_out_;
  common::Counter* bytes_in_;
  common::Counter* bytes_out_;
  common::Counter* frame_errors_;
  common::Counter* heartbeat_misses_;
  common::Counter* backpressure_errors_;
  common::Counter* accept_rejected_;
  common::Counter* watch_overflows_;
  common::Counter* loop_idle_polled_;
  common::Counter* loop_idle_parked_;
  common::Gauge* active_sessions_;
};

}  // namespace server

#endif  // SRC_SERVER_PUBSUBD_H_
