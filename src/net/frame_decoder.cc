#include "net/frame_decoder.h"

#include <algorithm>

namespace net {

FrameDecoder::FrameDecoder(std::size_t max_payload)
    : max_payload_(std::min(max_payload, kMaxPayload)) {}

void FrameDecoder::Feed(std::string_view data) {
  if (failed() || data.empty()) {
    return;
  }
  // Compact before growing when the dead prefix dominates: appends then reuse
  // the buffer's capacity instead of letting it creep per consumed frame.
  if (head_ > 0 && head_ >= buffer_.size() / 2) {
    buffer_.erase(0, head_);
    head_ = 0;
  }
  buffer_.append(data.data(), data.size());
}

FrameDecoder::Result FrameDecoder::Fail(FrameError e) {
  error_ = e;
  return Result::kError;
}

FrameDecoder::Result FrameDecoder::Next(Frame* out) {
  if (failed()) {
    return Result::kError;
  }
  const std::size_t avail = buffer_.size() - head_;
  if (avail < kHeaderSize) {
    return Result::kNeedMore;
  }
  const char* h = buffer_.data() + head_;
  // Validate in integrity order: the CRC vouches for the whole header, so
  // check the cheap sentinels first (desync reads as bad magic, not as a
  // mysterious CRC miss), then the CRC, then trust the fields.
  if (GetU16(h) != kMagic) {
    return Fail(FrameError::kBadMagic);
  }
  if (static_cast<std::uint8_t>(h[2]) != kProtocolVersion) {
    return Fail(FrameError::kBadVersion);
  }
  const std::uint32_t stored_header_crc = GetU32(h + 20);
  if (common::UnmaskCrc(stored_header_crc) != common::Crc32c({h, kHeaderSize - 4})) {
    return Fail(FrameError::kHeaderCorrupt);
  }
  if (!KnownVerb(static_cast<std::uint8_t>(h[3]))) {
    return Fail(FrameError::kBadVerb);
  }
  const std::uint32_t payload_len = GetU32(h + 4);
  if (payload_len > max_payload_) {
    return Fail(FrameError::kOversized);
  }
  if (avail < kHeaderSize + payload_len) {
    return Result::kNeedMore;
  }
  const std::string_view payload{buffer_.data() + head_ + kHeaderSize, payload_len};
  const std::uint32_t stored_payload_crc = GetU32(h + 16);
  if (common::UnmaskCrc(stored_payload_crc) != common::Crc32c(payload)) {
    return Fail(FrameError::kPayloadCorrupt);
  }
  out->verb = static_cast<Verb>(h[3]);
  out->request_id = GetU64(h + 8);
  out->payload = payload;
  head_ += kHeaderSize + payload_len;
  ++frames_decoded_;
  return Result::kFrame;
}

}  // namespace net
