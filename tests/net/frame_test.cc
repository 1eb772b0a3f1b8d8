// Wire-protocol framing: encode/decode round trips for every payload codec,
// incremental decoding under pathological chunking, and the robustness
// corpus — truncated, bit-flipped, oversized, version-mismatched, and
// garbage streams must all surface as typed FrameErrors (terminal, loud),
// never as hangs, bogus frames, or UB. Each verb has one payload layout, so
// every strict prefix of a payload fails its codec.
#include "net/frame_decoder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/messages.h"
#include "net/wire.h"

namespace net {
namespace {

std::string OneFrame(Verb verb, std::uint64_t rid, const std::string& payload) {
  std::string out;
  EncodeFrame(out, verb, rid, payload);
  return out;
}

// Feeds `bytes` in chunks of `chunk` and collects every decoded frame
// (payloads copied out — the views die at the next Feed).
struct Decoded {
  std::vector<Verb> verbs;
  std::vector<std::uint64_t> rids;
  std::vector<std::string> payloads;
  FrameError error = FrameError::kNone;
};

Decoded RunDecoder(const std::string& bytes, std::size_t chunk, std::size_t max_payload = kMaxPayload) {
  FrameDecoder dec(max_payload);
  Decoded out;
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    dec.Feed(std::string_view(bytes).substr(at, chunk));
    Frame f;
    for (;;) {
      const FrameDecoder::Result r = dec.Next(&f);
      if (r == FrameDecoder::Result::kFrame) {
        out.verbs.push_back(f.verb);
        out.rids.push_back(f.request_id);
        out.payloads.emplace_back(f.payload);
      } else if (r == FrameDecoder::Result::kNeedMore) {
        break;
      } else {
        out.error = dec.error();
        return out;
      }
    }
  }
  return out;
}

TEST(FrameTest, RoundTripsAcrossChunkSizes) {
  std::string stream;
  stream += OneFrame(Verb::kHello, 1, "hello-payload");
  stream += OneFrame(Verb::kPublish, 2, std::string(1000, 'x'));
  stream += OneFrame(Verb::kHeartbeat, 3, "");
  stream += OneFrame(Verb::kGoodbye, 0xdeadbeefcafef00dULL, "bye");
  for (std::size_t chunk : {1u, 2u, 3u, 7u, 23u, 24u, 25u, 1000u, 100000u}) {
    const Decoded got = RunDecoder(stream, chunk);
    ASSERT_EQ(got.error, FrameError::kNone) << "chunk " << chunk;
    ASSERT_EQ(got.verbs.size(), 4u) << "chunk " << chunk;
    EXPECT_EQ(got.verbs[1], Verb::kPublish);
    EXPECT_EQ(got.rids[3], 0xdeadbeefcafef00dULL);
    EXPECT_EQ(got.payloads[0], "hello-payload");
    EXPECT_EQ(got.payloads[1], std::string(1000, 'x'));
    EXPECT_EQ(got.payloads[2], "");
    EXPECT_EQ(got.payloads[3], "bye");
  }
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

// Byte `j` of a golden payload for `record`.
std::string GoldenPayload(std::size_t record, std::size_t len) {
  std::string out;
  for (std::size_t j = 0; j < len; ++j) {
    out.push_back(static_cast<char>((record * 37 + j * 11 + 5) & 0xff));
  }
  return out;
}

TEST(FrameTest, GoldenFramesDecodeAndReencodeByteForByte) {
  // A 45-byte DELIVER and an empty HEARTBEAT as the byte-at-a-time CRC32C
  // kernel encoded them before slicing-by-8: both CRCs of each frame must
  // still check, and encoding the same frames must give the same bytes.
  const std::string golden = FromHex(
      "5350020a2d000000887766554433221124d1f70a057f75d0525d68737e89949f"
      "aab5c0cbd6e1ecf7020d18232e39444f5a65707b86919ca7b2bdc8d3dee9f4ff"
      "0a15202b3653500207000000000700000000000000d8ea82a2594d1a22");
  const Decoded d = RunDecoder(golden, golden.size());
  ASSERT_EQ(d.error, FrameError::kNone);
  ASSERT_EQ(d.verbs.size(), 2u);
  EXPECT_EQ(d.verbs[0], Verb::kDeliver);
  EXPECT_EQ(d.rids[0], 0x1122334455667788u);
  EXPECT_EQ(d.payloads[0], GoldenPayload(9, 45));
  EXPECT_EQ(d.verbs[1], Verb::kHeartbeat);
  EXPECT_EQ(d.rids[1], 7u);
  EXPECT_EQ(d.payloads[1], "");
  EXPECT_EQ(OneFrame(Verb::kDeliver, 0x1122334455667788u, GoldenPayload(9, 45)) +
                OneFrame(Verb::kHeartbeat, 7, ""),
            golden);
}

TEST(FrameTest, TruncationIsNeedMoreWhileOpenAndVisibleAtEof) {
  const std::string frame = OneFrame(Verb::kPublish, 7, "payload-bytes");
  // Every proper prefix: a clean partial frame, never an error.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    FrameDecoder dec;
    dec.Feed(std::string_view(frame).substr(0, cut));
    Frame f;
    EXPECT_EQ(dec.Next(&f), FrameDecoder::Result::kNeedMore) << "cut " << cut;
    EXPECT_FALSE(dec.failed());
    // The owner detects the mid-frame death at EOF: bytes still buffered.
    EXPECT_EQ(dec.BytesBuffered() > 0, cut > 0);
  }
}

TEST(FrameTest, BitFlipsAreTypedErrorsNeverFrames) {
  const std::string frame = OneFrame(Verb::kPublish, 9, "the quick brown fox");
  int header_errors = 0, payload_errors = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      FrameDecoder dec;
      dec.Feed(corrupt);
      Frame f;
      const FrameDecoder::Result r = dec.Next(&f);
      // A flipped byte may turn the frame into a longer one (length bits) —
      // kNeedMore is acceptable only if the decoder is still clean; what can
      // never happen is a successfully decoded frame with corrupt content.
      if (r == FrameDecoder::Result::kFrame) {
        ADD_FAILURE() << "bit flip at byte " << i << " bit " << bit << " produced a frame";
      } else if (r == FrameDecoder::Result::kError) {
        EXPECT_TRUE(dec.failed());
        EXPECT_NE(dec.error(), FrameError::kNone);
        if (dec.error() == FrameError::kHeaderCorrupt) ++header_errors;
        if (dec.error() == FrameError::kPayloadCorrupt) ++payload_errors;
      }
    }
  }
  // The corpus must actually exercise both CRC layers.
  EXPECT_GT(header_errors, 0);
  EXPECT_GT(payload_errors, 0);
}

TEST(FrameTest, VersionMismatchIsTyped) {
  // CRC-sealed headers from an older or a future protocol revision: the
  // version check (not the CRC) must reject each, with its own typed error.
  // There is one version; no other is accepted.
  const std::string payload = "v";
  for (const int version : {0, kProtocolVersion - 1, kProtocolVersion + 1, 255}) {
    std::string raw;
    PutU16(raw, kMagic);
    raw.push_back(static_cast<char>(version));
    raw.push_back(static_cast<char>(Verb::kHello));
    PutU32(raw, static_cast<std::uint32_t>(payload.size()));
    PutU64(raw, 1);
    PutU32(raw, common::MaskCrc(common::Crc32c(payload)));
    PutU32(raw, common::MaskCrc(common::Crc32c(std::string_view(raw).substr(0, 20))));
    raw += payload;
    FrameDecoder dec;
    dec.Feed(raw);
    Frame f;
    ASSERT_EQ(dec.Next(&f), FrameDecoder::Result::kError) << "version " << version;
    EXPECT_EQ(dec.error(), FrameError::kBadVersion) << "version " << version;
  }
}

TEST(FrameTest, BadMagicBadVerbOversizedAreTyped) {
  {
    std::string garbage = "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n";
    FrameDecoder dec;
    dec.Feed(garbage);
    Frame f;
    ASSERT_EQ(dec.Next(&f), FrameDecoder::Result::kError);
    EXPECT_EQ(dec.error(), FrameError::kBadMagic);
  }
  {
    // Structurally valid header, unknown verb, valid CRCs.
    std::string raw;
    PutU16(raw, kMagic);
    raw.push_back(static_cast<char>(kProtocolVersion));
    raw.push_back(static_cast<char>(200));  // Unknown verb.
    PutU32(raw, 0);
    PutU64(raw, 1);
    PutU32(raw, common::MaskCrc(common::Crc32c("")));
    PutU32(raw, common::MaskCrc(common::Crc32c(raw.substr(0, 20))));
    FrameDecoder dec;
    dec.Feed(raw);
    Frame f;
    ASSERT_EQ(dec.Next(&f), FrameDecoder::Result::kError);
    EXPECT_EQ(dec.error(), FrameError::kBadVerb);
  }
  {
    // Payload length beyond the decoder's negotiated bound, CRC-sealed: the
    // decoder must reject from the header alone, before buffering 1 MB.
    std::string raw;
    PutU16(raw, kMagic);
    raw.push_back(static_cast<char>(kProtocolVersion));
    raw.push_back(static_cast<char>(Verb::kPublish));
    PutU32(raw, 1u << 20);
    PutU64(raw, 1);
    PutU32(raw, common::MaskCrc(common::Crc32c("")));
    PutU32(raw, common::MaskCrc(common::Crc32c(raw.substr(0, 20))));
    FrameDecoder dec(/*max_payload=*/1024);
    dec.Feed(raw);
    Frame f;
    ASSERT_EQ(dec.Next(&f), FrameDecoder::Result::kError);
    EXPECT_EQ(dec.error(), FrameError::kOversized);
  }
}

TEST(FrameTest, ErrorsAreTerminal) {
  FrameDecoder dec;
  dec.Feed("garbage-not-a-frame-at-all------");
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Result::kError);
  const FrameError first = dec.error();
  // A valid frame after the poison changes nothing: no resync on a broken
  // stream.
  dec.Feed(OneFrame(Verb::kHello, 1, "x"));
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Result::kError);
  EXPECT_EQ(dec.error(), first);
  EXPECT_EQ(dec.frames_decoded(), 0u);
}

TEST(FrameTest, RandomizedGarbageCorpusNeverYieldsAFrame) {
  // Deterministic fuzz corpus: random byte blobs (which essentially never
  // carry a valid masked CRC32C) must always land in a typed error or a
  // clean kNeedMore — and never decode as a frame.
  common::Rng rng(0xfeedface);
  for (int round = 0; round < 500; ++round) {
    const std::size_t len = 1 + rng.Below(200);
    std::string blob;
    blob.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      blob.push_back(static_cast<char>(rng.Below(256)));
    }
    FrameDecoder dec;
    dec.Feed(blob);
    Frame f;
    const FrameDecoder::Result r = dec.Next(&f);
    EXPECT_NE(r, FrameDecoder::Result::kFrame) << "round " << round;
  }
}

TEST(FrameTest, RandomizedCorruptionOfValidStreams) {
  // A valid multi-frame stream with one random mutation applied: any frames
  // decoded before the mutation point must be byte-identical to the
  // originals, and the stream must never decode MORE frames than sent.
  common::Rng rng(0xabad1dea);
  std::string stream;
  std::vector<std::string> sent;
  for (int i = 0; i < 8; ++i) {
    std::string payload;
    const std::size_t plen = rng.Below(300);
    for (std::size_t b = 0; b < plen; ++b) {
      payload.push_back(static_cast<char>(rng.Below(256)));
    }
    sent.push_back(payload);
    EncodeFrame(stream, Verb::kPublish, i, payload);
  }
  for (int round = 0; round < 300; ++round) {
    std::string corrupt = stream;
    const std::size_t at = rng.Below(corrupt.size());
    const char delta = static_cast<char>(1 + rng.Below(255));
    corrupt[at] = static_cast<char>(corrupt[at] ^ delta);
    const Decoded got = RunDecoder(corrupt, 1 + rng.Below(64));
    ASSERT_LE(got.payloads.size(), sent.size());
    for (std::size_t i = 0; i < got.payloads.size(); ++i) {
      EXPECT_EQ(got.payloads[i], sent[i]) << "round " << round;
    }
  }
}

TEST(FrameTest, MessageCodecsRoundTrip) {
  {
    HelloRequest in{3, "bench-client"};
    std::string p;
    Encode(in, &p);
    HelloRequest out;
    ASSERT_TRUE(Decode(p, &out));
    EXPECT_EQ(out.wire_version, 3u);
    EXPECT_EQ(out.client_name, "bench-client");
  }
  {
    PublishRequest in;
    in.topic = "orders";
    in.ack = PublishAck::kOffset;
    in.has_partition = true;
    in.partition = 7;
    in.key = "k1";
    in.value = std::string(300, 'v');
    in.publish_time = 12345;
    std::string p;
    Encode(in, &p);
    PublishRequest out;
    ASSERT_TRUE(Decode(p, &out));
    EXPECT_EQ(out.topic, "orders");
    EXPECT_EQ(out.ack, PublishAck::kOffset);
    EXPECT_TRUE(out.has_partition);
    EXPECT_EQ(out.partition, 7u);
    EXPECT_EQ(out.value, in.value);
  }
  {
    MessageBatch in;
    for (int i = 0; i < 5; ++i) {
      pubsub::StoredMessage m;
      m.offset = 100 + i;
      m.message.key = "k" + std::to_string(i);
      m.message.value = "v" + std::to_string(i);
      m.message.publish_time = i;
      in.messages.push_back(m);
    }
    std::string p;
    ASSERT_EQ(EncodeBatchPrefix(in.messages, &p), 5u);
    MessageBatch out;
    ASSERT_TRUE(Decode(p, &out));
    ASSERT_EQ(out.messages.size(), 5u);
    EXPECT_EQ(out.messages[4].offset, 104u);
    EXPECT_EQ(out.messages[4].message.value, "v4");
  }
  {
    WatchPush in;
    WatchItem ev;
    ev.kind = WatchItem::Kind::kEvent;
    ev.event.key = "watched";
    ev.event.mutation = common::Mutation::Put("val");
    ev.event.version = 42;
    in.items.push_back(ev);
    WatchItem prog;
    prog.kind = WatchItem::Kind::kProgress;
    prog.progress.range = {"a", "z"};
    prog.progress.version = 43;
    in.items.push_back(prog);
    WatchItem resync;
    resync.kind = WatchItem::Kind::kResync;
    in.items.push_back(resync);
    std::string p;
    Encode(in, &p);
    WatchPush out;
    ASSERT_TRUE(Decode(p, &out));
    ASSERT_EQ(out.items.size(), 3u);
    EXPECT_EQ(out.items[0].event.key, "watched");
    EXPECT_EQ(out.items[0].event.version, 42u);
    EXPECT_EQ(out.items[1].progress.range.high, "z");
    EXPECT_EQ(out.items[2].kind, WatchItem::Kind::kResync);
  }
  {
    ErrorBody in{static_cast<std::uint32_t>(common::StatusCode::kUnavailable), 250,
                 "shard saturated"};
    std::string p;
    Encode(in, &p);
    ErrorBody out;
    ASSERT_TRUE(Decode(p, &out));
    EXPECT_EQ(out.retry_after_us, 250);
    EXPECT_EQ(out.message, "shard saturated");
  }
}

TEST(FrameTest, EveryFieldRoundTripsAndV1ShapesAreRefused) {
  // A SUBSCRIBE with a full filter block round-trips every field.
  SubscribeRequest in;
  in.topic = "orders";
  in.partition = 3;
  in.start = 1000;
  in.max_batch = 64;
  in.filter.range = {"aa", "bz"};
  in.filter.key_prefix = "b";
  in.filter.headers.push_back({"region", pubsub::HeaderPredicate::Op::kEq, "eu"});
  in.filter.headers.push_back({"tier", pubsub::HeaderPredicate::Op::kExists, ""});
  std::string p;
  Encode(in, &p);
  SubscribeRequest out;
  ASSERT_TRUE(Decode(p, &out));
  EXPECT_EQ(out.filter.range.low, "aa");
  EXPECT_EQ(out.filter.range.high, "bz");
  EXPECT_EQ(out.filter.key_prefix, "b");
  ASSERT_EQ(out.filter.headers.size(), 2u);
  EXPECT_EQ(out.filter.headers[0].name, "region");
  EXPECT_EQ(out.filter.headers[0].op, pubsub::HeaderPredicate::Op::kEq);
  EXPECT_EQ(out.filter.headers[0].value, "eu");
  EXPECT_EQ(out.filter.headers[1].op, pubsub::HeaderPredicate::Op::kExists);

  // An unfiltered SUBSCRIBE carries the match-all filter, which decodes to a
  // filter that matches everything: the broker keeps its unfiltered read.
  SubscribeRequest plain;
  plain.topic = "orders";
  std::string plain_bytes;
  Encode(plain, &plain_bytes);
  SubscribeRequest plain_out = out;  // Every filter field must be overwritten.
  ASSERT_TRUE(Decode(plain_bytes, &plain_out));
  EXPECT_TRUE(plain_out.filter.MatchesEverything());
  EXPECT_TRUE(plain_out.filter.headers.empty());

  // The v1 shape (the fixed fields alone, ending at max_batch) is refused.
  std::string v1;
  {
    Writer w(&v1);
    w.Str("orders");
    w.U32(0);
    w.U64(0);
    w.U32(256);
  }
  EXPECT_FALSE(Decode(v1, &out));

  // WATCH: the filter's range is the watch range.
  WatchRequest watch;
  watch.version = 7;
  watch.filter.range = {"a", "m"};
  watch.filter.key_prefix = "ab";
  p.clear();
  Encode(watch, &p);
  WatchRequest wout;
  ASSERT_TRUE(Decode(p, &wout));
  EXPECT_EQ(wout.version, 7u);
  EXPECT_EQ(wout.filter.range.low, "a");
  EXPECT_EQ(wout.filter.range.high, "m");
  EXPECT_EQ(wout.filter.key_prefix, "ab");
  std::string watch_v1;  // low, high, version: the old range-only shape.
  {
    Writer w(&watch_v1);
    w.Str("a");
    w.Str("m");
    w.U64(7);
  }
  EXPECT_FALSE(Decode(watch_v1, &wout));

  // PUBLISH always carries its header block, empty or not.
  PublishRequest pub;
  pub.topic = "t";
  pub.key = "k";
  pub.value = "v";
  pub.headers = {{"h0", "x"}, {"h1", "y"}};
  p.clear();
  Encode(pub, &p);
  PublishRequest pout;
  ASSERT_TRUE(Decode(p, &pout));
  EXPECT_EQ(pout.headers, pub.headers);
  pub.headers.clear();
  std::string headerless;
  Encode(pub, &headerless);
  // Two name/value pairs fewer; the empty block keeps its 4-byte count.
  EXPECT_EQ(p.size() - headerless.size(), 2u * (4 + 2 + 4 + 1));
  pout.headers = {{"stale", "stale"}};
  ASSERT_TRUE(Decode(headerless, &pout));
  EXPECT_TRUE(pout.headers.empty());
  // The v1 shape ends after publish_time, without the count: refused.
  EXPECT_FALSE(Decode(std::string_view(headerless).substr(0, headerless.size() - 4), &pout));
}

// Every byte of a frame bit-flipped, and every strict prefix of its payload
// decoded: the CRCs refuse every flip, and no truncation decodes.
template <typename Request>
void ExpectFlipsAndTruncationsNeverDecode(Verb verb, const Request& request) {
  std::string payload;
  Encode(request, &payload);
  Request whole;
  ASSERT_TRUE(Decode(payload, &whole));
  const std::string frame = OneFrame(verb, 11, payload);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = frame;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      FrameDecoder dec;
      dec.Feed(corrupt);
      Frame f;
      if (dec.Next(&f) == FrameDecoder::Result::kFrame) {
        ADD_FAILURE() << VerbName(verb) << ": flip at byte " << i << " bit " << bit
                      << " yielded a frame";
      }
    }
  }
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    Request out;
    EXPECT_FALSE(Decode(std::string_view(payload).substr(0, cut), &out))
        << VerbName(verb) << ": a " << cut << "-byte prefix of " << payload.size() << " decoded";
  }
}

TEST(FrameTest, FilterFrameBitFlipsAndTruncationsNeverDecode) {
  SubscribeRequest sub;
  sub.topic = "t";
  sub.max_batch = 32;
  sub.filter.range = {"k0", "k9"};
  sub.filter.key_prefix = "k";
  sub.filter.headers.push_back({"h", pubsub::HeaderPredicate::Op::kNe, "x"});
  ExpectFlipsAndTruncationsNeverDecode(Verb::kSubscribe, sub);
  SubscribeRequest unfiltered;  // The match-all filter is a block like any other.
  unfiltered.topic = "t";
  ExpectFlipsAndTruncationsNeverDecode(Verb::kSubscribe, unfiltered);

  WatchRequest wreq;
  wreq.filter.range = {"a", "z"};
  wreq.filter.key_prefix = "ab";
  ExpectFlipsAndTruncationsNeverDecode(Verb::kWatch, wreq);

  // A trailing byte after the filter block is a malformation.
  std::string trailing;
  Encode(sub, &trailing);
  trailing.push_back('\0');
  SubscribeRequest out;
  EXPECT_FALSE(Decode(trailing, &out));

  // Random bytes in place of the filter block: a decode that succeeds must
  // have parsed fully and self-consistently — ops in range, exact end.
  std::string fixed;
  {
    Writer w(&fixed);
    w.Str("t");
    w.U32(0);
    w.U64(0);
    w.U32(32);
  }
  common::Rng rng(0x51f7e2);
  for (int round = 0; round < 300; ++round) {
    std::string spliced = fixed;
    const std::size_t n = 1 + rng.Below(64);
    for (std::size_t i = 0; i < n; ++i) {
      spliced.push_back(static_cast<char>(rng.Below(256)));
    }
    SubscribeRequest sout;
    if (Decode(spliced, &sout)) {
      for (const pubsub::HeaderPredicate& pred : sout.filter.headers) {
        EXPECT_LE(static_cast<int>(pred.op),
                  static_cast<int>(pubsub::HeaderPredicate::Op::kNe));
      }
    }
  }
}

TEST(FrameTest, PublishFrameBitFlipsAndTruncationsNeverDecode) {
  PublishRequest pub;
  pub.topic = "t";
  pub.ack = PublishAck::kOffset;
  pub.has_partition = true;
  pub.partition = 2;
  pub.key = "k";
  pub.value = "value";
  pub.publish_time = 99;
  pub.headers = {{"region", "eu"}, {"tier", ""}};
  ExpectFlipsAndTruncationsNeverDecode(Verb::kPublish, pub);
  pub.headers.clear();  // The empty header block is still a block.
  ExpectFlipsAndTruncationsNeverDecode(Verb::kPublish, pub);
}

TEST(FrameTest, MalformedPayloadsRejectLoudly) {
  // Trailing bytes, truncated strings, and out-of-range enums all fail the
  // codec — a schema mismatch is as terminal as a CRC miss.
  PublishRequest req;
  req.topic = "t";
  std::string good;
  Encode(req, &good);
  {
    PublishRequest out;
    EXPECT_FALSE(Decode(good + "x", &out));  // Trailing byte.
  }
  {
    PublishRequest out;
    EXPECT_FALSE(Decode(std::string_view(good).substr(0, good.size() - 1), &out));
  }
  {
    CommitRequest c;
    c.mode = CommitMode::kQuery;
    std::string p;
    Encode(c, &p);
    p[p.size() - 1] = 9;  // Mode out of range.
    CommitRequest out;
    EXPECT_FALSE(Decode(p, &out));
  }
  {
    std::string empty;
    HelloResponse out;
    EXPECT_FALSE(Decode(empty, &out));
  }
}

}  // namespace
}  // namespace net
