#include "net/messages.h"

#include <algorithm>
#include <utility>

namespace net {

namespace {

// Sequence counts are bounded so a structurally valid but hostile count
// cannot force a huge reserve before element decoding fails naturally. The
// frame payload bound is the real limit; this only caps the pre-reserve.
constexpr std::uint32_t kMaxReserve = 4096;

void EncodeHeaders(const pubsub::Headers& headers, Writer& w) {
  w.U32(static_cast<std::uint32_t>(headers.size()));
  for (const auto& [name, value] : headers) {
    w.Str(name);
    w.Str(value);
  }
}

bool DecodeHeaders(Reader& r, pubsub::Headers* headers) {
  std::uint32_t n = 0;
  if (!r.U32(&n)) {
    return false;
  }
  headers->clear();
  headers->reserve(std::min(n, kMaxReserve));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::string value;
    if (!r.Str(&name) || !r.Str(&value)) {
      return false;
    }
    headers->emplace_back(std::move(name), std::move(value));
  }
  return true;
}

void EncodeStored(const pubsub::StoredMessage& m, Writer& w) {
  w.U64(m.offset);
  w.Str(m.message.key);
  w.Str(m.message.value);
  w.I64(m.message.publish_time);
  EncodeHeaders(m.message.headers, w);
}

bool DecodeStored(Reader& r, pubsub::StoredMessage* m) {
  return r.U64(&m->offset) && r.Str(&m->message.key) && r.Str(&m->message.value) &&
         r.I64(&m->message.publish_time) && DecodeHeaders(r, &m->message.headers);
}

// Filter block: range low/high (empty high = unbounded, mirroring KeyRange),
// prefix, then the header conjunction. Op bytes outside the enum are a
// malformation, not a soft skip. The match-all Filter{} encodes as two empty
// range bounds, an empty prefix and no predicates.
void EncodeFilter(const pubsub::Filter& f, Writer& w) {
  w.Str(f.range.low);
  w.Str(f.range.high);
  w.Str(f.key_prefix);
  w.U32(static_cast<std::uint32_t>(f.headers.size()));
  for (const pubsub::HeaderPredicate& p : f.headers) {
    w.Str(p.name);
    w.U8(static_cast<std::uint8_t>(p.op));
    w.Str(p.value);
  }
}

bool DecodeFilter(Reader& r, pubsub::Filter* f) {
  std::uint32_t n = 0;
  if (!r.Str(&f->range.low) || !r.Str(&f->range.high) || !r.Str(&f->key_prefix) || !r.U32(&n)) {
    return false;
  }
  f->headers.clear();
  f->headers.reserve(std::min(n, kMaxReserve));
  for (std::uint32_t i = 0; i < n; ++i) {
    pubsub::HeaderPredicate p;
    std::uint8_t op = 0;
    if (!r.Str(&p.name) || !r.U8(&op) || !r.Str(&p.value)) {
      return false;
    }
    if (op > static_cast<std::uint8_t>(pubsub::HeaderPredicate::Op::kNe)) {
      return false;
    }
    p.op = static_cast<pubsub::HeaderPredicate::Op>(op);
    f->headers.push_back(std::move(p));
  }
  return true;
}

void EncodeChange(const common::ChangeEvent& e, Writer& w) {
  w.Str(e.key);
  w.U8(static_cast<std::uint8_t>(e.mutation.kind));
  w.Str(e.mutation.value);
  w.U64(e.version);
  w.Bool(e.txn_last);
}

bool DecodeChange(Reader& r, common::ChangeEvent* e) {
  std::uint8_t kind = 0;
  if (!r.Str(&e->key) || !r.U8(&kind) || !r.Str(&e->mutation.value) || !r.U64(&e->version) ||
      !r.Bool(&e->txn_last)) {
    return false;
  }
  if (kind > static_cast<std::uint8_t>(common::MutationKind::kDelete)) {
    return false;
  }
  e->mutation.kind = static_cast<common::MutationKind>(kind);
  return true;
}

}  // namespace

void Encode(const HelloRequest& m, std::string* out) {
  Writer w(out);
  w.U32(m.wire_version);
  w.Str(m.client_name);
}

bool Decode(std::string_view payload, HelloRequest* m) {
  Reader r(payload);
  return r.U32(&m->wire_version) && r.Str(&m->client_name) && r.AtEnd();
}

void Encode(const HelloResponse& m, std::string* out) {
  Writer w(out);
  w.U32(m.wire_version);
  w.I64(m.heartbeat_interval_us);
  w.U32(m.heartbeat_misses);
  w.U32(m.max_payload);
  w.Str(m.server_name);
}

bool Decode(std::string_view payload, HelloResponse* m) {
  Reader r(payload);
  return r.U32(&m->wire_version) && r.I64(&m->heartbeat_interval_us) &&
         r.U32(&m->heartbeat_misses) && r.U32(&m->max_payload) && r.Str(&m->server_name) &&
         r.AtEnd();
}

void Encode(const ErrorBody& m, std::string* out) {
  Writer w(out);
  w.U32(m.code);
  w.I64(m.retry_after_us);
  w.Str(m.message);
}

bool Decode(std::string_view payload, ErrorBody* m) {
  Reader r(payload);
  return r.U32(&m->code) && r.I64(&m->retry_after_us) && r.Str(&m->message) && r.AtEnd();
}

void Encode(const CreateTopicRequest& m, std::string* out) {
  Writer w(out);
  w.Str(m.topic);
  w.U32(m.config.partitions);
  w.I64(m.config.retention.retention);
  w.U64(m.config.retention.max_messages);
  w.Bool(m.config.retention.compacted);
  w.I64(m.config.retention.compaction_window);
}

bool Decode(std::string_view payload, CreateTopicRequest* m) {
  Reader r(payload);
  return r.Str(&m->topic) && r.U32(&m->config.partitions) &&
         r.I64(&m->config.retention.retention) && r.U64(&m->config.retention.max_messages) &&
         r.Bool(&m->config.retention.compacted) &&
         r.I64(&m->config.retention.compaction_window) && r.AtEnd();
}

void Encode(const PublishRequest& m, std::string* out) {
  Writer w(out);
  w.Str(m.topic);
  w.U8(static_cast<std::uint8_t>(m.ack));
  w.Bool(m.has_partition);
  w.U32(m.partition);
  w.Str(m.key);
  w.Str(m.value);
  w.I64(m.publish_time);
  EncodeHeaders(m.headers, w);
}

bool Decode(std::string_view payload, PublishRequest* m) {
  Reader r(payload);
  std::uint8_t ack = 0;
  if (!(r.Str(&m->topic) && r.U8(&ack) && r.Bool(&m->has_partition) && r.U32(&m->partition) &&
        r.Str(&m->key) && r.Str(&m->value) && r.I64(&m->publish_time) &&
        DecodeHeaders(r, &m->headers) && r.AtEnd())) {
    return false;
  }
  if (ack > static_cast<std::uint8_t>(PublishAck::kOffset)) {
    return false;
  }
  m->ack = static_cast<PublishAck>(ack);
  return true;
}

void Encode(const PublishResponse& m, std::string* out) {
  Writer w(out);
  w.Bool(m.has_offset);
  w.U32(m.partition);
  w.U64(m.offset);
}

bool Decode(std::string_view payload, PublishResponse* m) {
  Reader r(payload);
  return r.Bool(&m->has_offset) && r.U32(&m->partition) && r.U64(&m->offset) && r.AtEnd();
}

void Encode(const FetchRequest& m, std::string* out) {
  Writer w(out);
  w.Str(m.topic);
  w.U32(m.partition);
  w.U64(m.offset);
  w.U32(m.max);
}

bool Decode(std::string_view payload, FetchRequest* m) {
  Reader r(payload);
  return r.Str(&m->topic) && r.U32(&m->partition) && r.U64(&m->offset) && r.U32(&m->max) &&
         r.AtEnd();
}

std::size_t EncodeBatchPrefix(std::span<const pubsub::StoredMessage> messages, std::string* out) {
  const std::size_t start = out->size();
  Writer w(out);
  w.U32(0);  // The count, patched below.
  std::size_t n = 0;
  for (; n < messages.size(); ++n) {
    const std::size_t before = out->size();
    EncodeStored(messages[n], w);
    if (out->size() - start > kMaxPayload) {
      out->resize(before);
      break;
    }
  }
  std::string count;
  PutU32(count, static_cast<std::uint32_t>(n));
  out->replace(start, count.size(), count);
  return n;
}

bool Decode(std::string_view payload, MessageBatch* m) {
  Reader r(payload);
  std::uint32_t n = 0;
  if (!r.U32(&n)) {
    return false;
  }
  m->messages.clear();
  m->messages.reserve(std::min(n, kMaxReserve));
  for (std::uint32_t i = 0; i < n; ++i) {
    pubsub::StoredMessage s;
    if (!DecodeStored(r, &s)) {
      return false;
    }
    m->messages.push_back(std::move(s));
  }
  return r.AtEnd();
}

void Encode(const SubscribeRequest& m, std::string* out) {
  Writer w(out);
  w.Str(m.topic);
  w.U32(m.partition);
  w.U64(m.start);
  w.U32(m.max_batch);
  EncodeFilter(m.filter, w);
}

bool Decode(std::string_view payload, SubscribeRequest* m) {
  Reader r(payload);
  return r.Str(&m->topic) && r.U32(&m->partition) && r.U64(&m->start) &&
         r.U32(&m->max_batch) && DecodeFilter(r, &m->filter) && r.AtEnd();
}

void Encode(const CommitRequest& m, std::string* out) {
  Writer w(out);
  w.Str(m.group);
  w.U32(m.partition);
  w.U64(m.offset);
  w.U8(static_cast<std::uint8_t>(m.mode));
}

bool Decode(std::string_view payload, CommitRequest* m) {
  Reader r(payload);
  std::uint8_t mode = 0;
  if (!(r.Str(&m->group) && r.U32(&m->partition) && r.U64(&m->offset) && r.U8(&mode) &&
        r.AtEnd())) {
    return false;
  }
  if (mode > static_cast<std::uint8_t>(CommitMode::kQuery)) {
    return false;
  }
  m->mode = static_cast<CommitMode>(mode);
  return true;
}

void Encode(const CommitResponse& m, std::string* out) {
  Writer w(out);
  w.Bool(m.has_committed);
  w.U64(m.committed);
}

bool Decode(std::string_view payload, CommitResponse* m) {
  Reader r(payload);
  return r.Bool(&m->has_committed) && r.U64(&m->committed) && r.AtEnd();
}

void Encode(const WatchRequest& m, std::string* out) {
  Writer w(out);
  w.U64(m.version);
  EncodeFilter(m.filter, w);
}

bool Decode(std::string_view payload, WatchRequest* m) {
  Reader r(payload);
  return r.U64(&m->version) && DecodeFilter(r, &m->filter) && r.AtEnd();
}

void Encode(const WatchPush& m, std::string* out) {
  Writer w(out);
  w.U32(static_cast<std::uint32_t>(m.items.size()));
  for (const WatchItem& item : m.items) {
    w.U8(static_cast<std::uint8_t>(item.kind));
    switch (item.kind) {
      case WatchItem::Kind::kEvent:
        EncodeChange(item.event, w);
        break;
      case WatchItem::Kind::kProgress:
        w.Str(item.progress.range.low);
        w.Str(item.progress.range.high);
        w.U64(item.progress.version);
        break;
      case WatchItem::Kind::kResync:
        break;
    }
  }
}

bool Decode(std::string_view payload, WatchPush* m) {
  Reader r(payload);
  std::uint32_t n = 0;
  if (!r.U32(&n)) {
    return false;
  }
  m->items.clear();
  m->items.reserve(std::min(n, kMaxReserve));
  for (std::uint32_t i = 0; i < n; ++i) {
    WatchItem item;
    std::uint8_t kind = 0;
    if (!r.U8(&kind) || kind > static_cast<std::uint8_t>(WatchItem::Kind::kResync)) {
      return false;
    }
    item.kind = static_cast<WatchItem::Kind>(kind);
    switch (item.kind) {
      case WatchItem::Kind::kEvent:
        if (!DecodeChange(r, &item.event)) {
          return false;
        }
        break;
      case WatchItem::Kind::kProgress:
        if (!r.Str(&item.progress.range.low) || !r.Str(&item.progress.range.high) ||
            !r.U64(&item.progress.version)) {
          return false;
        }
        break;
      case WatchItem::Kind::kResync:
        break;
    }
    m->items.push_back(std::move(item));
  }
  return r.AtEnd();
}

void Encode(const HeartbeatBody& m, std::string* out) {
  Writer w(out);
  w.I64(m.t_us);
}

bool Decode(std::string_view payload, HeartbeatBody* m) {
  Reader r(payload);
  return r.I64(&m->t_us) && r.AtEnd();
}

}  // namespace net
