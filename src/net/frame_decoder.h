// FrameDecoder: incremental, allocation-conscious parser for the net frame
// stream. Bytes arrive in arbitrary chunks (Feed); complete frames come out
// one at a time (Next), with the payload viewed in place — no per-frame
// allocation, and the contiguous buffer is compacted only when the consumed
// prefix dominates it.
//
// Corruption is terminal and loud. Every rejection carries a typed
// FrameError; after the first error the decoder refuses further input — a
// TCP stream that has lost framing cannot resynchronize (there is no frame
// boundary to hunt for once a length field is untrusted), so the connection
// owner must tear the session down and let the client reconnect. Truncation
// (a clean prefix of a valid frame) is NOT an error while the stream is
// open: Next() simply reports kNeedMore until the rest arrives; it becomes
// an error only when the owner observes EOF with buffered bytes
// (BytesBuffered() > 0).
#ifndef SRC_NET_FRAME_DECODER_H_
#define SRC_NET_FRAME_DECODER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/wire.h"

namespace net {

// Why a frame (and therefore the connection) was rejected.
enum class FrameError : std::uint8_t {
  kNone = 0,
  kBadMagic,        // Stream desync or a non-protocol peer.
  kBadVersion,      // Header states a version other than kProtocolVersion.
  kHeaderCorrupt,   // Header CRC failed: bit flip or torn header.
  kBadVerb,         // Structurally valid header naming an unknown verb.
  kOversized,       // payload_len exceeds the decoder's bound.
  kPayloadCorrupt,  // Payload CRC failed.
};

inline const char* FrameErrorName(FrameError e) {
  switch (e) {
    case FrameError::kNone: return "none";
    case FrameError::kBadMagic: return "bad_magic";
    case FrameError::kBadVersion: return "bad_version";
    case FrameError::kHeaderCorrupt: return "header_corrupt";
    case FrameError::kBadVerb: return "bad_verb";
    case FrameError::kOversized: return "oversized";
    case FrameError::kPayloadCorrupt: return "payload_corrupt";
  }
  return "?";
}

class FrameDecoder {
 public:
  // `max_payload` bounds accepted frames (and therefore buffer growth);
  // clamped to the protocol ceiling.
  explicit FrameDecoder(std::size_t max_payload = kMaxPayload);

  FrameDecoder(const FrameDecoder&) = delete;
  FrameDecoder& operator=(const FrameDecoder&) = delete;

  // Appends raw bytes. No-op once the decoder has failed.
  void Feed(std::string_view data);

  enum class Result : std::uint8_t {
    kFrame,     // *out holds the next frame (payload view valid until the
                // next Feed/Next call).
    kNeedMore,  // A clean partial frame; feed more bytes.
    kError,     // Terminal; see error().
  };

  Result Next(Frame* out);

  bool failed() const { return error_ != FrameError::kNone; }
  FrameError error() const { return error_; }
  // Unconsumed bytes (a partial frame, or everything after a failure). At
  // EOF a nonzero value means the peer died mid-frame.
  std::size_t BytesBuffered() const { return buffer_.size() - head_; }
  std::uint64_t frames_decoded() const { return frames_decoded_; }

 private:
  Result Fail(FrameError e);

  std::size_t max_payload_;
  std::string buffer_;
  std::size_t head_ = 0;  // Consumed prefix; compacted lazily.
  FrameError error_ = FrameError::kNone;
  std::uint64_t frames_decoded_ = 0;
};

}  // namespace net

#endif  // SRC_NET_FRAME_DECODER_H_
