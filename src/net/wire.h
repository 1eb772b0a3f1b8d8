// Wire protocol core: the length-prefixed binary frame every byte on a
// pubsubd connection belongs to, plus the bounds-checked little-endian
// reader/writer the payload codecs (net/messages.h) are built from.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     2  magic        0x5053 ("PS")
//        2     1  version      kProtocolVersion, exactly
//        3     1  verb         Verb enum
//        4     4  payload_len  bytes following the header (<= advertised max)
//        8     8  request_id   echoed verbatim in responses; identifies the
//                              stream for server-push frames (DELIVER and
//                              WATCH_PUSH carry the originating SUBSCRIBE /
//                              WATCH request id)
//       16     4  payload_crc  masked CRC32C of the payload bytes
//       20     4  header_crc   masked CRC32C of bytes [0, 20)
//       24   len  payload
//
// Both CRCs are the masked common::Crc32c (common/crc32c.h), the WAL's
// checksum too, so a frame whose payload itself carries CRCs does not
// degenerate. The header CRC makes truncation, bit flips, and desync
// (mid-stream garbage) detectable before a corrupt length field can commit
// the decoder to a bogus read; the payload CRC guards the body. Any
// integrity failure is terminal for the connection: a byte stream that has
// lost framing cannot be trusted to regain it.
#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/crc32c.h"

namespace net {

inline constexpr std::uint16_t kMagic = 0x5053;  // "PS".
// The one protocol version: one payload layout per verb, every field always
// encoded (net/messages.h). Every frame header and both HELLOs state exactly
// this number, and anything else is refused: there is no negotiation. A new
// field extends its verb's layout and bumps the version.
inline constexpr std::uint8_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderSize = 24;
// Absolute payload ceiling; a server may advertise a smaller bound in HELLO.
inline constexpr std::size_t kMaxPayload = 16u << 20;

// Request verbs are client-initiated (the server responds with the same verb
// or ERROR, echoing the request id); push verbs flow server→client on a
// stream opened by SUBSCRIBE or WATCH.
enum class Verb : std::uint8_t {
  kHello = 1,       // Handshake; must be the first frame in each direction.
  kPublish = 2,
  kFetch = 3,
  kSubscribe = 4,   // Opens a long-poll delivery stream (DELIVER pushes).
  kWatch = 5,       // Opens a watch stream (WATCH_PUSH pushes).
  kCommit = 6,      // Commit / read back a group offset.
  kHeartbeat = 7,   // Liveness beat; server echoes it.
  kError = 8,       // Response-side only; carries code + retry_after.
  kCreateTopic = 9,
  kDeliver = 10,    // Push: a batch of stored messages for a subscription.
  kWatchPush = 11,  // Push: watch events / progress / resync for a watch.
  kCancel = 12,     // Tears down the stream named by its request id.
  kGoodbye = 13,    // Graceful close; peers that vanish without it are dead.
};

inline bool KnownVerb(std::uint8_t v) {
  return v >= static_cast<std::uint8_t>(Verb::kHello) &&
         v <= static_cast<std::uint8_t>(Verb::kGoodbye);
}

inline const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kHello: return "HELLO";
    case Verb::kPublish: return "PUBLISH";
    case Verb::kFetch: return "FETCH";
    case Verb::kSubscribe: return "SUBSCRIBE";
    case Verb::kWatch: return "WATCH";
    case Verb::kCommit: return "COMMIT";
    case Verb::kHeartbeat: return "HEARTBEAT";
    case Verb::kError: return "ERROR";
    case Verb::kCreateTopic: return "CREATE_TOPIC";
    case Verb::kDeliver: return "DELIVER";
    case Verb::kWatchPush: return "WATCH_PUSH";
    case Verb::kCancel: return "CANCEL";
    case Verb::kGoodbye: return "GOODBYE";
  }
  return "?";
}

// A decoded frame. `payload` views the decoder's internal buffer and is
// valid only until the next Feed()/Next() call — dispatchers decode payloads
// immediately (net/messages.h) rather than retaining the view.
struct Frame {
  Verb verb = Verb::kHello;
  std::uint64_t request_id = 0;
  std::string_view payload;
};

// -- Little-endian primitives --------------------------------------------------

inline void PutU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

inline void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline std::uint16_t GetU16(const char* p) {
  return static_cast<std::uint16_t>(static_cast<unsigned char>(p[0]) |
                                    (static_cast<unsigned char>(p[1]) << 8));
}

inline std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

inline std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

// Appends a complete frame (header + payload) to `out`. The payload must fit
// kMaxPayload; callers enforce any tighter bound the peer advertised.
inline void EncodeFrame(std::string& out, Verb verb, std::uint64_t request_id,
                        std::string_view payload) {
  const std::size_t header_at = out.size();
  PutU16(out, kMagic);
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(verb));
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU64(out, request_id);
  PutU32(out, common::MaskCrc(common::Crc32c(payload)));
  PutU32(out, common::MaskCrc(common::Crc32c({out.data() + header_at, kHeaderSize - 4})));
  out.append(payload.data(), payload.size());
}

// -- Payload writer / reader ---------------------------------------------------

// Payload encoding: fixed-width little-endian integers, strings and blobs as
// u32 length + bytes, sequences as u32 count + elements. No varints — the
// frame is already length-delimited and the decoder must stay allocation-
// and branch-cheap.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { PutU16(*out_, v); }
  void U32(std::uint32_t v) { PutU32(*out_, v); }
  void U64(std::uint64_t v) { PutU64(*out_, v); }
  void I64(std::int64_t v) { PutU64(*out_, static_cast<std::uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_->append(s.data(), s.size());
  }

 private:
  std::string* out_;
};

// Bounds-checked reader: every getter returns false once the payload is
// exhausted or a length prefix overruns it, and `ok()` latches the failure.
// Codecs bubble the single bool up so a malformed payload is one typed error
// (kMalformedPayload), never UB.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  // A fully-consumed payload; trailing bytes mean a codec/schema mismatch.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

  bool U8(std::uint8_t* v) {
    if (!Need(1)) return false;
    *v = static_cast<unsigned char>(data_[pos_++]);
    return true;
  }
  bool U16(std::uint16_t* v) {
    if (!Need(2)) return false;
    *v = GetU16(data_.data() + pos_);
    pos_ += 2;
    return true;
  }
  bool U32(std::uint32_t* v) {
    if (!Need(4)) return false;
    *v = GetU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (!Need(8)) return false;
    *v = GetU64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }
  bool I64(std::int64_t* v) {
    std::uint64_t u = 0;
    if (!U64(&u)) return false;
    *v = static_cast<std::int64_t>(u);
    return true;
  }
  bool Bool(bool* v) {
    std::uint8_t b = 0;
    if (!U8(&b)) return false;
    *v = b != 0;
    return true;
  }
  bool Str(std::string* s) {
    std::uint32_t len = 0;
    if (!U32(&len) || !Need(len)) return false;
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

 private:
  bool Need(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace net

#endif  // SRC_NET_WIRE_H_
