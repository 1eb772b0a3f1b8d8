// Message and policy types for the pubsub substrate (the Kafka-style system
// the paper critiques: a bundled, hidden, durable message log with retention
// GC and compaction).
#ifndef SRC_PUBSUB_TYPES_H_
#define SRC_PUBSUB_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"

namespace pubsub {

using Offset = std::uint64_t;
using PartitionId = std::uint32_t;

// Record headers: small, ordered name/value attributes carried alongside the
// payload. The filtered-subscription predicates (pubsub::Filter) evaluate
// over these broker-side; they ride the WAL and the wire with the message.
using Headers = std::vector<std::pair<std::string, std::string>>;

struct Message {
  common::Key key;     // Routing / compaction key (may be empty).
  common::Value value; // Opaque payload.
  common::TimeMicros publish_time = 0;
  Headers headers;     // Attribute headers (filter predicates match these).
  // Latency-tracing context (obs layer). Last member so aggregate
  // initializers that omit it keep working; excluded from equality and from
  // WAL serialization — tracing is measurement, not semantics.
  obs::TraceContext trace{};

  friend bool operator==(const Message& a, const Message& b) {
    return a.key == b.key && a.value == b.value && a.publish_time == b.publish_time &&
           a.headers == b.headers;
  }
};

// A record staged outside the broker: borrowed key/value bytes and headers
// (nullptr: none). Broker::PublishRun copies them into the log at append.
struct RecordView {
  std::string_view key;
  std::string_view value;
  const Headers* headers = nullptr;
};

struct StoredMessage {
  Offset offset = 0;
  Message message;

  friend bool operator==(const StoredMessage&, const StoredMessage&) = default;
};

// Log retention: the policies whose interaction with backlogs Section 3.1
// identifies as the source of silent data loss.
struct RetentionPolicy {
  // Messages older than this are garbage collected (<= 0: no time limit).
  common::TimeMicros retention = 0;
  // Partition logs longer than this are truncated from the head (0: no
  // size limit).
  std::uint64_t max_messages = 0;
  // When true the log is compacted instead of truncated: messages older than
  // `compaction_window` keep only the latest version per key.
  bool compacted = false;
  common::TimeMicros compaction_window = 0;
};

struct TopicConfig {
  PartitionId partitions = 1;
  RetentionPolicy retention;
};

// How publishes pick a partition when no explicit partition is given.
enum class Routing : std::uint8_t {
  kByKeyHash,   // Deterministic: hash(key) % partitions.
  kRoundRobin,  // "Select a consumer at random" in the paper's terms.
};

}  // namespace pubsub

#endif  // SRC_PUBSUB_TYPES_H_
