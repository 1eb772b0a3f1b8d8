#include "client/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace client {

namespace {

std::int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

common::StatusCode CodeFromWire(std::uint32_t code) {
  if (code > static_cast<std::uint32_t>(common::StatusCode::kInternal)) {
    return common::StatusCode::kInternal;
  }
  return static_cast<common::StatusCode>(code);
}

common::Status StatusFromError(const net::ErrorBody& e) {
  return common::Status(CodeFromWire(e.code), e.message);
}

}  // namespace

common::Result<std::unique_ptr<Client>> Client::Connect(const std::string& host, int port,
                                                        ClientOptions options) {
  auto fd = net::TcpConnect(host, port);
  if (!fd.ok()) {
    return fd.status();
  }
  std::unique_ptr<Client> c(new Client(std::move(*fd), std::move(options)));
  const common::Status st = c->Handshake();
  if (!st.ok()) {
    return st;
  }
  if (c->options_.auto_heartbeat) {
    c->StartHeartbeats();
  }
  return c;
}

Client::Client(net::Fd fd, ClientOptions options)
    : fd_(std::move(fd)),
      options_(std::move(options)),
      decoder_(options_.max_payload) {
  // Offered version, bounded to what this build can actually frame; the
  // HELLO response may negotiate it further down.
  wire_version_ = std::min<std::uint32_t>(
      std::max<std::uint32_t>(options_.wire_version, net::kMinProtocolVersion),
      net::kProtocolVersion);
}

Client::~Client() {
  if (beat_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(beat_mu_);
      beat_stop_ = true;
    }
    beat_cv_.notify_all();
    beat_thread_.join();
  }
  if (!broken_ && fd_.valid()) {
    // Best-effort GOODBYE so the server logs a graceful close, not a break.
    (void)WriteFrame(net::Verb::kGoodbye, NextId(), "");
  }
}

common::Status Client::Handshake() {
  net::HelloRequest req;
  req.wire_version = wire_version_;
  req.client_name = options_.client_name;
  std::string payload;
  net::Encode(req, &payload);
  std::string response;
  const std::uint64_t rid = NextId();
  RETURN_IF_ERROR(WriteFrame(net::Verb::kHello, rid, payload));
  const common::Status st =
      Call(net::Verb::kHello, rid, "", &response, nullptr, /*send=*/false);
  if (!st.ok()) {
    return st;
  }
  if (!net::Decode(response, &hello_)) {
    MarkBroken("malformed HELLO response");
    return BrokenStatus();
  }
  if (hello_.wire_version < net::kMinProtocolVersion) {
    MarkBroken("server negotiated unsupported version " + std::to_string(hello_.wire_version));
    return BrokenStatus();
  }
  wire_version_ = std::min(wire_version_, hello_.wire_version);
  return common::Status::Ok();
}

void Client::StartHeartbeats() {
  const common::TimeMicros interval =
      std::max<common::TimeMicros>(1000, hello_.heartbeat_interval_us / 2);
  beat_thread_ = std::thread([this, interval] {
    std::unique_lock<std::mutex> lock(beat_mu_);
    while (!beat_stop_) {
      beat_cv_.wait_for(lock, std::chrono::microseconds(interval),
                        [this] { return beat_stop_; });
      if (beat_stop_ || broken_) {
        continue;
      }
      net::HeartbeatBody beat;
      beat.t_us = SteadyMicros();
      std::string payload;
      net::Encode(beat, &payload);
      // Writes only — the user thread owns all reads; the echo is dropped by
      // RouteFrame when nobody is waiting on its request id.
      (void)WriteFrame(net::Verb::kHeartbeat, 0, payload);
    }
  });
}

void Client::KillConnectionForTest() {
  MarkBroken("killed by test");
  std::lock_guard<std::mutex> lock(write_mu_);
  fd_.Close();
}

common::Status Client::BrokenStatus() const {
  return common::Status::FailedPrecondition("connection broken: " + broken_why_);
}

void Client::MarkBroken(const std::string& why) {
  if (!broken_.exchange(true)) {
    broken_why_ = why;
  }
}

common::Status Client::WriteFrame(net::Verb verb, std::uint64_t request_id,
                                 const std::string& payload) {
  if (broken_) {
    return BrokenStatus();
  }
  std::string frame;
  net::EncodeFrame(frame, verb, request_id, payload,
                   static_cast<std::uint8_t>(wire_version_));
  std::lock_guard<std::mutex> lock(write_mu_);
  const common::Status st = net::WriteAll(fd_.get(), frame.data(), frame.size());
  if (!st.ok()) {
    MarkBroken("write failed: " + st.message());
    return BrokenStatus();
  }
  return common::Status::Ok();
}

void Client::RouteFrame(const net::Frame& frame) {
  if (frame.verb == net::Verb::kDeliver || frame.verb == net::Verb::kWatchPush) {
    auto it = streams_.find(frame.request_id);
    if (it == streams_.end()) {
      ++dropped_pushes_;  // Stream cancelled locally; late pushes are expected.
      return;
    }
    it->second->payloads.emplace_back(frame.payload);
    return;
  }
  if (frame.verb == net::Verb::kError) {
    // Connection-level (id 0) errors break the client; stream-scoped errors
    // latch on the stream; anything else is a pending call's response.
    net::ErrorBody err;
    const bool decoded = net::Decode(frame.payload, &err);
    if (frame.request_id == 0) {
      MarkBroken(decoded ? ("server error: " + err.message) : "server error");
      return;
    }
    auto it = streams_.find(frame.request_id);
    if (it != streams_.end()) {
      it->second->errored = true;
      if (decoded) {
        it->second->error = err;
      }
      return;
    }
  }
  responses_[frame.request_id] = Response{frame.verb, std::string(frame.payload)};
}

common::Status Client::PumpUntil(const std::function<bool()>& until,
                                 common::TimeMicros timeout_us) {
  const std::int64_t start = SteadyMicros();
  char buf[65536];
  while (!until()) {
    if (broken_) {
      return BrokenStatus();
    }
    std::int64_t wait_us = -1;
    if (timeout_us > 0) {
      wait_us = timeout_us - (SteadyMicros() - start);
      if (wait_us <= 0) {
        return common::Status::Unavailable("timed out waiting for server");
      }
    }
    if (!net::WaitReadable(fd_.get(), wait_us)) {
      return common::Status::Unavailable("timed out waiting for server");
    }
    std::size_t n = 0;
    const net::IoStatus st = net::ReadSome(fd_.get(), buf, sizeof(buf), &n);
    if (st == net::IoStatus::kEof) {
      MarkBroken("server closed the connection");
      return BrokenStatus();
    }
    if (st == net::IoStatus::kError) {
      MarkBroken("read failed");
      return BrokenStatus();
    }
    if (st == net::IoStatus::kWouldBlock) {
      continue;  // Spurious readability; re-park.
    }
    decoder_.Feed({buf, n});
    net::Frame frame;
    for (;;) {
      const net::FrameDecoder::Result r = decoder_.Next(&frame);
      if (r == net::FrameDecoder::Result::kFrame) {
        RouteFrame(frame);
      } else if (r == net::FrameDecoder::Result::kNeedMore) {
        break;
      } else {
        MarkBroken(std::string("frame error: ") + net::FrameErrorName(decoder_.error()));
        return BrokenStatus();
      }
    }
  }
  return common::Status::Ok();
}

common::Status Client::Call(net::Verb verb, std::uint64_t request_id, const std::string& payload,
                            std::string* response, common::TimeMicros* retry_after_us,
                            bool send) {
  if (send) {
    RETURN_IF_ERROR(WriteFrame(verb, request_id, payload));
  }
  const common::Status pumped = PumpUntil(
      [this, request_id] {
        if (responses_.count(request_id) > 0) {
          return true;
        }
        // A stream-open refusal: the rid is pre-registered as a stream, so
        // RouteFrame latched the ERROR there instead of the response slot.
        auto it = streams_.find(request_id);
        return it != streams_.end() && it->second->errored;
      },
      options_.call_timeout_us);
  if (!pumped.ok()) {
    return pumped;
  }
  if (responses_.count(request_id) == 0) {
    auto it = streams_.find(request_id);
    const net::ErrorBody err = it->second->error;
    if (retry_after_us != nullptr) {
      *retry_after_us = err.retry_after_us;
    }
    return err.code == 0 ? common::Status::Internal("stream refused") : StatusFromError(err);
  }
  auto node = responses_.extract(request_id);
  Response& r = node.mapped();
  if (r.verb == net::Verb::kError) {
    net::ErrorBody err;
    if (!net::Decode(r.payload, &err)) {
      MarkBroken("malformed ERROR payload");
      return BrokenStatus();
    }
    if (retry_after_us != nullptr) {
      *retry_after_us = err.retry_after_us;
    }
    return StatusFromError(err);
  }
  if (r.verb != verb) {
    MarkBroken("response verb mismatch");
    return BrokenStatus();
  }
  if (response != nullptr) {
    *response = std::move(r.payload);
  }
  return common::Status::Ok();
}

common::Status Client::CreateTopic(const std::string& topic, const pubsub::TopicConfig& config) {
  net::CreateTopicRequest req;
  req.topic = topic;
  req.config = config;
  std::string payload;
  net::Encode(req, &payload);
  std::string response;
  return Call(net::Verb::kCreateTopic, NextId(), payload, &response);
}

common::Status Client::Publish(const std::string& topic, common::Key key, common::Value value,
                               std::optional<pubsub::PartitionId> partition, net::PublishAck ack,
                               pubsub::PublishResult* result, common::TimeMicros publish_time,
                               pubsub::Headers headers) {
  if (!headers.empty() && wire_version_ < 2) {
    return common::Status::InvalidArgument("record headers require protocol v2");
  }
  net::PublishRequest req;
  req.topic = topic;
  req.ack = ack;
  req.has_partition = partition.has_value();
  req.partition = partition.value_or(0);
  req.key = std::move(key);
  req.value = std::move(value);
  req.publish_time = publish_time;
  req.headers = std::move(headers);
  std::string payload;
  net::Encode(req, &payload);

  if (ack == net::PublishAck::kNone) {
    return WriteFrame(net::Verb::kPublish, NextId(), payload);
  }
  for (std::size_t attempt = 0;; ++attempt) {
    std::string response;
    common::TimeMicros retry_after = 0;
    const std::uint64_t rid = NextId();
    const common::Status st = Call(net::Verb::kPublish, rid, payload, &response, &retry_after);
    if (st.ok()) {
      if (result != nullptr) {
        net::PublishResponse resp;
        if (!net::Decode(response, &resp)) {
          MarkBroken("malformed PUBLISH response");
          return BrokenStatus();
        }
        result->partition = resp.partition;
        result->offset = resp.offset;
      }
      return st;
    }
    // The server's retry_after is the owner shard's saturation hint: sleep
    // it verbatim and retry — the loud-backpressure loop, client side.
    if (st.code() != common::StatusCode::kUnavailable || retry_after <= 0 ||
        attempt >= options_.max_backpressure_retries) {
      return st;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(retry_after));
  }
}

common::Result<std::vector<pubsub::StoredMessage>> Client::Fetch(const std::string& topic,
                                                                 pubsub::PartitionId partition,
                                                                 pubsub::Offset offset,
                                                                 std::uint32_t max) {
  net::FetchRequest req;
  req.topic = topic;
  req.partition = partition;
  req.offset = offset;
  req.max = max;
  std::string payload;
  net::Encode(req, &payload);
  for (std::size_t attempt = 0;; ++attempt) {
    std::string response;
    common::TimeMicros retry_after = 0;
    const common::Status st = Call(net::Verb::kFetch, NextId(), payload, &response, &retry_after);
    if (st.ok()) {
      net::MessageBatch batch;
      if (!net::Decode(response, &batch, wire_version_)) {
        MarkBroken("malformed FETCH response");
        return BrokenStatus();
      }
      return std::move(batch.messages);
    }
    if (st.code() != common::StatusCode::kUnavailable || retry_after <= 0 ||
        attempt >= options_.max_backpressure_retries) {
      return st;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(retry_after));
  }
}

common::Result<pubsub::Offset> Client::Commit(const pubsub::GroupId& group,
                                              pubsub::PartitionId partition, pubsub::Offset offset,
                                              net::CommitMode mode) {
  net::CommitRequest req;
  req.group = group;
  req.partition = partition;
  req.offset = offset;
  req.mode = mode;
  std::string payload;
  net::Encode(req, &payload);
  for (std::size_t attempt = 0;; ++attempt) {
    std::string response;
    common::TimeMicros retry_after = 0;
    const common::Status st = Call(net::Verb::kCommit, NextId(), payload, &response, &retry_after);
    if (st.ok()) {
      net::CommitResponse resp;
      if (!net::Decode(response, &resp)) {
        MarkBroken("malformed COMMIT response");
        return BrokenStatus();
      }
      return resp.has_committed ? resp.committed : pubsub::Offset{0};
    }
    if (st.code() != common::StatusCode::kUnavailable || retry_after <= 0 ||
        attempt >= options_.max_backpressure_retries) {
      return st;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(retry_after));
  }
}

common::Result<std::unique_ptr<Subscription>> Client::Subscribe(const std::string& topic,
                                                                pubsub::PartitionId partition,
                                                                pubsub::Offset start,
                                                                std::uint32_t max_batch,
                                                                std::optional<pubsub::Filter> filter) {
  if (filter.has_value() && wire_version_ < 2) {
    return common::Status::InvalidArgument("filtered subscribe requires protocol v2");
  }
  net::SubscribeRequest req;
  req.topic = topic;
  req.partition = partition;
  req.start = start;
  req.max_batch = max_batch;
  if (filter.has_value()) {
    req.has_filter = true;
    req.filter = std::move(*filter);
  }
  std::string payload;
  net::Encode(req, &payload);
  const std::uint64_t rid = NextId();
  // Register before sending: the first DELIVER can beat the pump back to us.
  auto state = std::make_shared<StreamState>();
  streams_[rid] = state;
  std::string response;
  const common::Status st = Call(net::Verb::kSubscribe, rid, payload, &response);
  if (!st.ok()) {
    streams_.erase(rid);
    return st;
  }
  return std::unique_ptr<Subscription>(new Subscription(this, rid, std::move(state)));
}

common::Result<std::unique_ptr<Watch>> Client::Watch(common::Key low, common::Key high,
                                                     common::Version version) {
  net::WatchRequest req;
  req.low = std::move(low);
  req.high = std::move(high);
  req.version = version;
  return OpenWatch(req);
}

common::Result<std::unique_ptr<Watch>> Client::WatchFiltered(pubsub::Filter filter,
                                                             common::Version version) {
  if (wire_version_ < 2) {
    return common::Status::InvalidArgument("filtered watch requires protocol v2");
  }
  net::WatchRequest req;
  // low/high restate the filter's range so a range-only server (or a future
  // downleveled path) still scopes the stream correctly.
  req.low = filter.range.low;
  req.high = filter.range.high;
  req.version = version;
  req.has_filter = true;
  req.filter = std::move(filter);
  return OpenWatch(req);
}

common::Result<std::unique_ptr<Watch>> Client::OpenWatch(const net::WatchRequest& req) {
  std::string payload;
  net::Encode(req, &payload);
  const std::uint64_t rid = NextId();
  auto state = std::make_shared<StreamState>();
  streams_[rid] = state;
  std::string response;
  const common::Status st = Call(net::Verb::kWatch, rid, payload, &response);
  if (!st.ok()) {
    streams_.erase(rid);
    return st;
  }
  return std::unique_ptr<::client::Watch>(new ::client::Watch(this, rid, std::move(state)));
}

common::Result<common::TimeMicros> Client::Ping() {
  net::HeartbeatBody beat;
  beat.t_us = SteadyMicros();
  std::string payload;
  net::Encode(beat, &payload);
  std::string response;
  const common::Status st = Call(net::Verb::kHeartbeat, NextId(), payload, &response);
  if (!st.ok()) {
    return st;
  }
  net::HeartbeatBody echo;
  if (!net::Decode(response, &echo) || echo.t_us != beat.t_us) {
    MarkBroken("malformed HEARTBEAT echo");
    return BrokenStatus();
  }
  return SteadyMicros() - beat.t_us;
}

void Client::CancelStream(std::uint64_t stream_id) {
  streams_.erase(stream_id);
  if (broken_) {
    return;
  }
  // Full round trip so the server has reclaimed the stream (and its
  // subscription handoff lane) by the time Cancel returns.
  std::string response;
  (void)Call(net::Verb::kCancel, stream_id, "", &response);
}

// -- Subscription --------------------------------------------------------------

Subscription::~Subscription() {
  if (!cancelled_) {
    Cancel();
  }
}

void Subscription::Cancel() {
  if (cancelled_) {
    return;
  }
  cancelled_ = true;
  client_->CancelStream(id_);
}

std::size_t Subscription::Poll(std::vector<pubsub::StoredMessage>* out, std::size_t max,
                               common::TimeMicros timeout_us) {
  std::size_t n = 0;
  for (;;) {
    while (n < max && pending_pos_ < pending_.size()) {
      out->push_back(std::move(pending_[pending_pos_]));
      ++pending_pos_;
      ++n;
    }
    if (n >= max) {
      return n;
    }
    pending_.clear();
    pending_pos_ = 0;
    if (!state_->payloads.empty()) {
      net::MessageBatch batch;
      const bool ok = net::Decode(state_->payloads.front(), &batch, client_->wire_version_);
      state_->payloads.pop_front();
      if (!ok) {
        client_->MarkBroken("malformed DELIVER payload");
        return n;
      }
      pending_ = std::move(batch.messages);
      continue;
    }
    if (cancelled_ || state_->errored || client_->broken()) {
      return n;
    }
    if (n > 0) {
      return n;  // Don't block once something was delivered.
    }
    const common::Status st = client_->PumpUntil(
        [this] { return !state_->payloads.empty() || state_->errored; }, timeout_us);
    if (!st.ok()) {
      return n;  // Timeout or broken connection; caller re-polls.
    }
  }
}

// -- Watch ---------------------------------------------------------------------

Watch::~Watch() {
  if (!cancelled_) {
    Cancel();
  }
}

void Watch::Cancel() {
  if (cancelled_) {
    return;
  }
  cancelled_ = true;
  client_->CancelStream(id_);
}

std::size_t Watch::Poll(std::vector<net::WatchItem>* out, common::TimeMicros timeout_us) {
  if (resynced_ && state_->payloads.empty()) {
    return 0;  // W4: the stream is over.
  }
  if (state_->payloads.empty() && !cancelled_ && !client_->broken()) {
    (void)client_->PumpUntil(
        [this] { return !state_->payloads.empty() || state_->errored; }, timeout_us);
  }
  std::size_t n = 0;
  while (!state_->payloads.empty()) {
    net::WatchPush push;
    const bool ok = net::Decode(state_->payloads.front(), &push);
    state_->payloads.pop_front();
    if (!ok) {
      client_->MarkBroken("malformed WATCH_PUSH payload");
      return n;
    }
    for (net::WatchItem& item : push.items) {
      if (item.kind == net::WatchItem::Kind::kResync) {
        resynced_ = true;
      }
      out->push_back(std::move(item));
      ++n;
    }
  }
  return n;
}

}  // namespace client
