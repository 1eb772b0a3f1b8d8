// Wire-protocol framing: encode/decode round trips for every payload codec,
// incremental decoding under pathological chunking, and the robustness
// corpus — truncated, bit-flipped, oversized, version-mismatched, and
// garbage streams must all surface as typed FrameErrors (terminal, loud),
// never as hangs, bogus frames, or UB.
#include "net/frame_decoder.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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
  // A CRC-sealed header from a future protocol revision: the version check
  // (not the CRC) must reject it, with its own typed error.
  const std::string payload = "v";
  std::string raw;
  PutU16(raw, kMagic);
  raw.push_back(static_cast<char>(kProtocolVersion + 1));
  raw.push_back(static_cast<char>(Verb::kHello));
  PutU32(raw, static_cast<std::uint32_t>(payload.size()));
  PutU64(raw, 1);
  PutU32(raw, wal::MaskCrc(wal::Crc32c(payload)));
  PutU32(raw, wal::MaskCrc(wal::Crc32c(std::string_view(raw).substr(0, 20))));
  raw += payload;
  FrameDecoder dec;
  dec.Feed(raw);
  Frame f;
  ASSERT_EQ(dec.Next(&f), FrameDecoder::Result::kError);
  EXPECT_EQ(dec.error(), FrameError::kBadVersion);
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
    PutU32(raw, wal::MaskCrc(wal::Crc32c("")));
    PutU32(raw, wal::MaskCrc(wal::Crc32c(raw.substr(0, 20))));
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
    PutU32(raw, wal::MaskCrc(wal::Crc32c("")));
    PutU32(raw, wal::MaskCrc(wal::Crc32c(raw.substr(0, 20))));
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

TEST(FrameTest, FilterBlocksRoundTripAndV1ShapesStillDecode) {
  // A v2 SUBSCRIBE with a full filter block round-trips every field.
  SubscribeRequest in;
  in.topic = "orders";
  in.partition = 3;
  in.start = 1000;
  in.max_batch = 64;
  in.has_filter = true;
  in.filter.range = {"aa", "bz"};
  in.filter.key_prefix = "b";
  in.filter.headers.push_back({"region", pubsub::HeaderPredicate::Op::kEq, "eu"});
  in.filter.headers.push_back({"tier", pubsub::HeaderPredicate::Op::kExists, ""});
  std::string p;
  Encode(in, &p);
  SubscribeRequest out;
  ASSERT_TRUE(Decode(p, &out));
  ASSERT_TRUE(out.has_filter);
  EXPECT_EQ(out.filter.range.low, "aa");
  EXPECT_EQ(out.filter.range.high, "bz");
  EXPECT_EQ(out.filter.key_prefix, "b");
  ASSERT_EQ(out.filter.headers.size(), 2u);
  EXPECT_EQ(out.filter.headers[0].name, "region");
  EXPECT_EQ(out.filter.headers[0].op, pubsub::HeaderPredicate::Op::kEq);
  EXPECT_EQ(out.filter.headers[0].value, "eu");
  EXPECT_EQ(out.filter.headers[1].op, pubsub::HeaderPredicate::Op::kExists);

  // The filterless encoding is the v1 shape: it must end at max_batch and
  // decode as unfiltered (old clients and new servers agree byte for byte).
  SubscribeRequest v1;
  v1.topic = "orders";
  std::string v1_bytes;
  Encode(v1, &v1_bytes);
  EXPECT_LT(v1_bytes.size(), p.size());
  SubscribeRequest v1_out;
  v1_out.has_filter = true;  // Must be reset by decode.
  ASSERT_TRUE(Decode(v1_bytes, &v1_out));
  EXPECT_FALSE(v1_out.has_filter);

  // Same deal for WATCH and for PUBLISH's optional header block.
  WatchRequest w;
  w.low = "a";
  w.high = "m";
  w.version = 7;
  w.has_filter = true;
  w.filter.range = {"a", "m"};
  w.filter.key_prefix = "ab";
  p.clear();
  Encode(w, &p);
  WatchRequest wout;
  ASSERT_TRUE(Decode(p, &wout));
  ASSERT_TRUE(wout.has_filter);
  EXPECT_EQ(wout.filter.key_prefix, "ab");
  w.has_filter = false;
  w.filter = {};
  p.clear();
  Encode(w, &p);
  wout.has_filter = true;
  ASSERT_TRUE(Decode(p, &wout));
  EXPECT_FALSE(wout.has_filter);

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
  p.clear();
  Encode(pub, &p);
  pout.headers = {{"stale", "stale"}};
  ASSERT_TRUE(Decode(p, &pout));
  EXPECT_TRUE(pout.headers.empty());
}

TEST(FrameTest, FilterFrameBitFlipsAndTruncationsNeverDecode) {
  // The full fuzz demanded by the protocol: a SUBSCRIBE/WATCH frame carrying
  // a filter block, with every byte bit-flipped — the frame CRCs must refuse
  // all of them (no corrupted filter ever reaches the codec) — and every
  // payload truncation must fail the codec, except the one prefix that IS
  // the valid v1 shape, which must decode as unfiltered, never as a mangled
  // filter.
  SubscribeRequest sub;
  sub.topic = "t";
  sub.max_batch = 32;
  sub.has_filter = true;
  sub.filter.range = {"k0", "k9"};
  sub.filter.key_prefix = "k";
  sub.filter.headers.push_back({"h", pubsub::HeaderPredicate::Op::kNe, "x"});
  std::string sub_payload;
  Encode(sub, &sub_payload);

  WatchRequest wreq;
  wreq.low = "a";
  wreq.high = "z";
  wreq.has_filter = true;
  wreq.filter.range = {"a", "z"};
  wreq.filter.key_prefix = "ab";
  std::string watch_payload;
  Encode(wreq, &watch_payload);

  for (const auto& [verb, payload] :
       {std::pair<Verb, std::string>{Verb::kSubscribe, sub_payload},
        std::pair<Verb, std::string>{Verb::kWatch, watch_payload}}) {
    const std::string frame = OneFrame(verb, 11, payload);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupt = frame;
        corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
        FrameDecoder dec;
        dec.Feed(corrupt);
        Frame f;
        if (dec.Next(&f) == FrameDecoder::Result::kFrame) {
          ADD_FAILURE() << "flip at byte " << i << " bit " << bit << " yielded a frame";
        }
      }
    }

    // Payload truncations: every strict prefix either fails the codec or is
    // exactly the v1 boundary (decodes with no filter). A truncation landing
    // inside the filter block can never "shrink" into a smaller valid
    // filter.
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix = std::string_view(payload).substr(0, cut);
      if (verb == Verb::kSubscribe) {
        SubscribeRequest out;
        if (Decode(prefix, &out)) {
          EXPECT_FALSE(out.has_filter) << "cut " << cut;
        }
      } else {
        WatchRequest out;
        if (Decode(prefix, &out)) {
          EXPECT_FALSE(out.has_filter) << "cut " << cut;
        }
      }
    }
  }

  // A present-but-false filter flag is a malformation, not "no filter":
  // the only legal encodings are absence or Bool(true)+block.
  SubscribeRequest plain;
  plain.topic = "t";
  std::string mangled;
  Encode(plain, &mangled);
  mangled.push_back('\0');  // Bool(false) where a filter block could start.
  SubscribeRequest out;
  EXPECT_FALSE(Decode(mangled, &out));

  // Random slices of the filter block spliced onto a v1 payload: never a
  // silent success with has_filter set from garbage.
  common::Rng rng(0x51f7e2);
  const std::size_t v1_len = mangled.size() - 1;
  for (int round = 0; round < 300; ++round) {
    std::string spliced = mangled.substr(0, v1_len);
    const std::size_t n = 1 + rng.Below(sub_payload.size());
    for (std::size_t i = 0; i < n; ++i) {
      spliced.push_back(static_cast<char>(rng.Below(256)));
    }
    SubscribeRequest sout;
    if (Decode(spliced, &sout) && sout.has_filter) {
      // Decoding random bytes as a filter is allowed only if it parsed
      // fully and self-consistently — ops in range, exact end.
      for (const pubsub::HeaderPredicate& pred : sout.filter.headers) {
        EXPECT_LE(static_cast<int>(pred.op),
                  static_cast<int>(pubsub::HeaderPredicate::Op::kNe));
      }
    }
  }
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
