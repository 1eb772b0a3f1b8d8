// Typed payload codecs for every frame verb (net/wire.h). Each message is a
// plain struct plus an Encode (appends to a payload string) and a Decode
// (bounds-checked; returns false on any malformation, including trailing
// bytes — a schema mismatch is as terminal as a CRC miss). Each verb has one
// layout and encodes every field every time, so every strict prefix of a
// payload fails Decode. The structs are the protocol's source of truth;
// docs/PROTOCOL.md §8 restates them.
#ifndef SRC_NET_MESSAGES_H_
#define SRC_NET_MESSAGES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "net/wire.h"
#include "pubsub/filter.h"
#include "pubsub/types.h"

namespace net {

// StatusCode travels as its numeric value; both ends share common/status.h.

// -- HELLO ---------------------------------------------------------------------

// First frame each way. Both sides state kProtocolVersion (also in the frame
// header; restated here so a version-mismatch ERROR can be produced by the
// dispatch layer, which sees only decoded payloads), and each refuses any
// other number. The client adds a diagnostic name; the server's reply
// carries the session contract: how often to beat, how many missed beats are
// lethal, and the payload bound it will enforce.
struct HelloRequest {
  std::uint32_t wire_version = kProtocolVersion;
  std::string client_name;
};

struct HelloResponse {
  std::uint32_t wire_version = kProtocolVersion;
  std::int64_t heartbeat_interval_us = 0;
  std::uint32_t heartbeat_misses = 0;
  std::uint32_t max_payload = 0;
  std::string server_name;
};

// -- ERROR ---------------------------------------------------------------------

// Response to any request, or connection-level (request_id 0) immediately
// before a server-initiated close. `retry_after_us` is nonzero exactly when
// the failure is backpressure (kUnavailable): the end-to-end propagation of
// the runtime's retry hints.
struct ErrorBody {
  std::uint32_t code = 0;  // common::StatusCode numeric value.
  std::int64_t retry_after_us = 0;
  std::string message;
};

// -- Topic / publish / fetch ---------------------------------------------------

struct CreateTopicRequest {
  std::string topic;
  pubsub::TopicConfig config;
};

// Acknowledgement levels a publisher can request. kNone keeps the verb
// fire-and-forget (no response frame at all); kAccept acks acceptance into
// the owning shard's queue (the runtime's "accepted publishes are never
// dropped" contract); kOffset acks with the assigned partition/offset after
// the append actually executed.
enum class PublishAck : std::uint8_t { kNone = 0, kAccept = 1, kOffset = 2 };

struct PublishRequest {
  std::string topic;
  PublishAck ack = PublishAck::kAccept;
  bool has_partition = false;
  pubsub::PartitionId partition = 0;
  common::Key key;
  common::Value value;
  common::TimeMicros publish_time = 0;
  pubsub::Headers headers;  // Always encoded: count (possibly 0) + pairs.
};

struct PublishResponse {
  bool has_offset = false;  // False for kAccept acks.
  pubsub::PartitionId partition = 0;
  pubsub::Offset offset = 0;
};

struct FetchRequest {
  std::string topic;
  pubsub::PartitionId partition = 0;
  pubsub::Offset offset = 0;
  std::uint32_t max = 0;
};

// FETCH responses and DELIVER pushes share one batch shape; each message
// carries its header block (count + pairs, possibly zero).
struct MessageBatch {
  std::vector<pubsub::StoredMessage> messages;
};

// The one batch encoder: appends the batch payload of the longest prefix of
// `messages` that fits kMaxPayload to `out`, and returns the prefix length.
// The server frames every FETCH response and DELIVER push through it, so no
// peer ever receives a frame its decoder must refuse as oversized. 0 for a
// non-empty span means its first message alone does not fit (`out` then
// holds an empty batch).
std::size_t EncodeBatchPrefix(std::span<const pubsub::StoredMessage> messages, std::string* out);

// -- Subscribe (long-poll delivery stream) -------------------------------------

// Opens a server-pushed stream: the response (same verb, empty payload) acks
// the subscription, then DELIVER frames carrying this request id flow until
// CANCEL or disconnect.
struct SubscribeRequest {
  std::string topic;
  pubsub::PartitionId partition = 0;
  pubsub::Offset start = 0;
  std::uint32_t max_batch = 256;
  // Always encoded. The default Filter{} matches every record, and the
  // broker reads such a subscription unfiltered (Filter::MatchesEverything).
  pubsub::Filter filter;
};

// -- Commit --------------------------------------------------------------------

enum class CommitMode : std::uint8_t {
  kCommit = 0,          // Commit, ack acceptance.
  kCommitReadBack = 1,  // Commit, ack with the post-commit committed offset.
  kQuery = 2,           // No write; ack with the current committed offset.
};

struct CommitRequest {
  std::string group;  // pubsub::GroupId; kept as std::string so the wire
                      // layer depends only on pubsub/types.h.
  pubsub::PartitionId partition = 0;
  pubsub::Offset offset = 0;
  CommitMode mode = CommitMode::kCommit;
};

struct CommitResponse {
  bool has_committed = false;  // False for plain kCommit acks.
  pubsub::Offset committed = 0;
};

// -- Watch ---------------------------------------------------------------------

// The filter's range is the watch range; its prefix narrows delivery. Header
// predicates are refused by the server (change events carry no headers).
struct WatchRequest {
  common::Version version = 0;
  pubsub::Filter filter;
};

// One element of a WATCH_PUSH frame: a change event, a range progress
// event, or the terminal resync marker (after which the server delivers
// nothing further on the stream — the wire restatement of W4).
struct WatchItem {
  enum class Kind : std::uint8_t { kEvent = 0, kProgress = 1, kResync = 2 };
  Kind kind = Kind::kEvent;
  common::ChangeEvent event;        // kEvent only.
  common::ProgressEvent progress;   // kProgress only.
};

struct WatchPush {
  std::vector<WatchItem> items;
};

// -- Heartbeat -----------------------------------------------------------------

// Liveness beat; the server echoes it (same request id, same t_us) so the
// client can measure liveness round trips. Any frame refreshes the server's
// dead-peer clock — HEARTBEAT is simply the frame idle clients have.
struct HeartbeatBody {
  std::int64_t t_us = 0;
};

// -- Encode / decode -----------------------------------------------------------

void Encode(const HelloRequest& m, std::string* out);
void Encode(const HelloResponse& m, std::string* out);
void Encode(const ErrorBody& m, std::string* out);
void Encode(const CreateTopicRequest& m, std::string* out);
void Encode(const PublishRequest& m, std::string* out);
void Encode(const PublishResponse& m, std::string* out);
void Encode(const FetchRequest& m, std::string* out);
void Encode(const SubscribeRequest& m, std::string* out);
void Encode(const CommitRequest& m, std::string* out);
void Encode(const CommitResponse& m, std::string* out);
void Encode(const WatchRequest& m, std::string* out);
void Encode(const WatchPush& m, std::string* out);
void Encode(const HeartbeatBody& m, std::string* out);

bool Decode(std::string_view payload, HelloRequest* m);
bool Decode(std::string_view payload, HelloResponse* m);
bool Decode(std::string_view payload, ErrorBody* m);
bool Decode(std::string_view payload, CreateTopicRequest* m);
bool Decode(std::string_view payload, PublishRequest* m);
bool Decode(std::string_view payload, PublishResponse* m);
bool Decode(std::string_view payload, FetchRequest* m);
bool Decode(std::string_view payload, MessageBatch* m);
bool Decode(std::string_view payload, SubscribeRequest* m);
bool Decode(std::string_view payload, CommitRequest* m);
bool Decode(std::string_view payload, CommitResponse* m);
bool Decode(std::string_view payload, WatchRequest* m);
bool Decode(std::string_view payload, WatchPush* m);
bool Decode(std::string_view payload, HeartbeatBody* m);

}  // namespace net

#endif  // SRC_NET_MESSAGES_H_
