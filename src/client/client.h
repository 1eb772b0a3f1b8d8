// Blocking client library for pubsubd. One Client is one TCP connection and
// one protocol session: Connect() performs the HELLO handshake and (by
// default) starts a background heartbeat thread that keeps the session alive
// through the server's dead-peer window; the request verbs are synchronous
// call/response; Subscribe() and Watch() return pull-style stream objects
// over the server's push frames.
//
// Threading model: ONE user thread drives the client (requests and stream
// polls); the heartbeat thread only writes (sends are serialized by an
// internal mutex) and never reads. All frame reads happen on the user
// thread, which demultiplexes push frames (DELIVER / WATCH_PUSH) into their
// streams' queues while waiting for its own response.
//
// Backpressure: a server ERROR carrying retry_after_us is the runtime's
// saturation hint propagated over the wire. Publish/Commit retry through it
// automatically (bounded by ClientOptions::max_backpressure_retries, sleeping
// the hinted backoff each time) so callers see kUnavailable only when the
// server stays saturated past the retry budget — never a silent drop.
#ifndef SRC_CLIENT_CLIENT_H_
#define SRC_CLIENT_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/frame_decoder.h"
#include "net/messages.h"
#include "net/socket.h"
#include "net/wire.h"
#include "pubsub/broker.h"  // PublishResult, GroupId.
#include "pubsub/filter.h"
#include "pubsub/types.h"

namespace client {

struct ClientOptions {
  std::string client_name = "client";
  // Protocol version offered in HELLO; the session speaks
  // min(this, server). Set to 1 to exercise the v1 (filter-less,
  // header-less) wire shape against a v2 server.
  std::uint32_t wire_version = net::kProtocolVersion;
  // Decoder bound for server→client frames.
  std::size_t max_payload = net::kMaxPayload;
  // Background keepalive (beats at half the server's advertised interval).
  bool auto_heartbeat = true;
  // Deadline for a single request/response round trip (<= 0: wait forever).
  common::TimeMicros call_timeout_us = 10 * common::kMicrosPerSecond;
  // How many kUnavailable+retry_after rounds Publish/Commit ride out before
  // surfacing the error.
  std::size_t max_backpressure_retries = 1024;
};

class Subscription;
class Watch;

class Client {
 public:
  // Connects, handshakes (HELLO), and starts the heartbeat thread. The
  // returned client is ready for requests.
  static common::Result<std::unique_ptr<Client>> Connect(const std::string& host, int port,
                                                         ClientOptions options = {});

  // Best-effort GOODBYE, then closes. Outstanding streams become inert.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // The server's HELLO contract (heartbeat interval, payload bound, name).
  const net::HelloResponse& server_hello() const { return hello_; }
  // The version this session actually speaks: min(offered, server's HELLO).
  std::uint32_t wire_version() const { return wire_version_; }
  // True once the connection has failed; every call then returns
  // kFailedPrecondition without touching the socket.
  bool broken() const { return broken_; }

  common::Status CreateTopic(const std::string& topic, const pubsub::TopicConfig& config);

  // Publish with the requested ack level. kNone returns after the bytes are
  // written (no response awaited; backpressure errors surface on later
  // calls). kAccept/kOffset await the ack; `result` (may be null) receives
  // the assigned partition/offset for kOffset. Retries backpressure errors
  // per ClientOptions.
  common::Status Publish(const std::string& topic, common::Key key, common::Value value,
                         std::optional<pubsub::PartitionId> partition = std::nullopt,
                         net::PublishAck ack = net::PublishAck::kAccept,
                         pubsub::PublishResult* result = nullptr,
                         common::TimeMicros publish_time = 0,
                         pubsub::Headers headers = {});

  common::Result<std::vector<pubsub::StoredMessage>> Fetch(const std::string& topic,
                                                           pubsub::PartitionId partition,
                                                           pubsub::Offset offset,
                                                           std::uint32_t max);

  // kCommit acks acceptance (returns 0); kCommitReadBack/kQuery return the
  // committed offset read on the owner shard. Retries backpressure.
  common::Result<pubsub::Offset> Commit(const pubsub::GroupId& group,
                                        pubsub::PartitionId partition, pubsub::Offset offset,
                                        net::CommitMode mode = net::CommitMode::kCommit);

  // Opens a server-pushed delivery stream. The subscription must not outlive
  // the client. `filter` (v2 sessions only) asks the broker to deliver only
  // matching records — the O(matching) fanout path; on a v1 session a filter
  // is refused client-side (kInvalidArgument) rather than silently dropped.
  common::Result<std::unique_ptr<Subscription>> Subscribe(
      const std::string& topic, pubsub::PartitionId partition, pubsub::Offset start,
      std::uint32_t max_batch = 256, std::optional<pubsub::Filter> filter = std::nullopt);

  // Opens a watch stream ([low, high) from `version`). Must not outlive the
  // client. (Qualified return type: the method name shadows the class.)
  common::Result<std::unique_ptr<::client::Watch>> Watch(common::Key low, common::Key high,
                                                         common::Version version);

  // Filtered watch (v2 sessions only): the filter's range is the watch range
  // and its prefix narrows delivery broker-side. Header predicates are
  // refused by the server (change events carry no headers).
  common::Result<std::unique_ptr<::client::Watch>> WatchFiltered(pubsub::Filter filter,
                                                                 common::Version version);

  // Synchronous liveness round trip; returns the measured RTT.
  common::Result<common::TimeMicros> Ping();

  // Abrupt connection death: closes the socket with no GOODBYE and no
  // stream CANCELs, exactly like a killed process. The client is broken
  // afterwards. Churn/dead-peer tests only.
  void KillConnectionForTest();

 private:
  friend class Subscription;
  friend class ::client::Watch;

  struct StreamState {
    std::deque<std::string> payloads;  // Undrained push payloads.
    bool errored = false;
    net::ErrorBody error;
  };

  Client(net::Fd fd, ClientOptions options);

  common::Status Handshake();
  void StartHeartbeats();
  common::Result<std::unique_ptr<::client::Watch>> OpenWatch(const net::WatchRequest& req);

  // Sends one frame (serialized with the heartbeat thread).
  common::Status WriteFrame(net::Verb verb, std::uint64_t request_id, const std::string& payload);
  // Sends a request (unless `send` is false: the frame was already written,
  // e.g. the handshake) and blocks for its response (same verb or ERROR,
  // same request id), demuxing pushes meanwhile. On ERROR, returns the
  // decoded status; `retry_after_us` (may be null) receives the hint.
  common::Status Call(net::Verb verb, std::uint64_t request_id, const std::string& payload,
                      std::string* response, common::TimeMicros* retry_after_us = nullptr,
                      bool send = true);

  // Reads and routes frames until `until` says stop or the deadline passes.
  // kOk when `until` fired; kUnavailable on timeout; connection errors mark
  // the client broken.
  common::Status PumpUntil(const std::function<bool()>& until, common::TimeMicros timeout_us);

  // Routes one decoded frame: pushes → stream queues, responses → slots.
  void RouteFrame(const net::Frame& frame);

  common::Status BrokenStatus() const;
  void MarkBroken(const std::string& why);

  std::uint64_t NextId() { return next_id_++; }

  // Stream half-life: Subscription/Watch unregister on destruction; frames
  // for unknown stream ids are dropped (counted in dropped_pushes_).
  void CancelStream(std::uint64_t stream_id);

  net::Fd fd_;
  ClientOptions options_;
  net::FrameDecoder decoder_;
  net::HelloResponse hello_;
  std::uint32_t wire_version_ = net::kProtocolVersion;  // Negotiated in HELLO.

  std::uint64_t next_id_ = 1;
  std::atomic<bool> broken_{false};
  std::string broken_why_;

  // Response slots for in-flight calls (user thread only).
  struct Response {
    net::Verb verb;
    std::string payload;
  };
  std::map<std::uint64_t, Response> responses_;
  std::map<std::uint64_t, std::shared_ptr<StreamState>> streams_;
  std::uint64_t dropped_pushes_ = 0;

  std::mutex write_mu_;  // Serializes user-thread sends with heartbeats.

  std::thread beat_thread_;
  std::mutex beat_mu_;
  std::condition_variable beat_cv_;
  bool beat_stop_ = false;
};

// Pull interface over a DELIVER stream. Single-threaded with its client.
class Subscription {
 public:
  ~Subscription();

  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  // Appends up to `max` messages to `out` (log order). Blocks up to
  // `timeout_us` (<= 0: forever) for the first message. Returns the number
  // appended; 0 on timeout. A server-side stream error surfaces as 0 with
  // error() set.
  std::size_t Poll(std::vector<pubsub::StoredMessage>* out, std::size_t max,
                   common::TimeMicros timeout_us);

  // Cancels server-side (CANCEL round trip) and detaches.
  void Cancel();

  bool errored() const { return state_->errored; }
  const net::ErrorBody& error() const { return state_->error; }

 private:
  friend class Client;
  Subscription(Client* client, std::uint64_t id, std::shared_ptr<Client::StreamState> state)
      : client_(client), id_(id), state_(std::move(state)) {}

  Client* client_;
  std::uint64_t id_;
  std::shared_ptr<Client::StreamState> state_;
  std::vector<pubsub::StoredMessage> pending_;  // Decoded but undrained.
  std::size_t pending_pos_ = 0;
  bool cancelled_ = false;
};

// Pull interface over a WATCH_PUSH stream. `resynced()` latching true means
// the stream is over (W4): re-snapshot and re-watch.
class Watch {
 public:
  ~Watch();

  Watch(const Watch&) = delete;
  Watch& operator=(const Watch&) = delete;

  // Appends available items to `out`, blocking up to `timeout_us` for the
  // first. Returns the number appended. After a resync item, nothing more
  // ever arrives.
  std::size_t Poll(std::vector<net::WatchItem>* out, common::TimeMicros timeout_us);

  void Cancel();

  bool resynced() const { return resynced_; }

 private:
  friend class Client;
  Watch(Client* client, std::uint64_t id, std::shared_ptr<Client::StreamState> state)
      : client_(client), id_(id), state_(std::move(state)) {}

  Client* client_;
  std::uint64_t id_;
  std::shared_ptr<Client::StreamState> state_;
  bool resynced_ = false;
  bool cancelled_ = false;
};

}  // namespace client

#endif  // SRC_CLIENT_CLIENT_H_
