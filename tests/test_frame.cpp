// Wire framing (svc/frame.h): round-trip fidelity and decoder robustness
// against adversarially fragmented and malformed byte streams.
#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "net/buffer_pool.h"
#include "svc/frame.h"
#include "util/rng.h"

namespace coca::svc {
namespace {

Frame sample_frame(std::uint32_t seed) {
  Rng rng(seed);
  Frame f;
  f.header.type = FrameType::kMsg;
  f.header.flags = 0;
  f.header.session = 0xDEAD0000u + seed;
  f.header.round = 7 * seed + 3;
  f.header.from = static_cast<std::uint16_t>(seed % 7);
  f.header.to = static_cast<std::uint16_t>((seed + 1) % 7);
  f.payload = rng.bytes(1 + (seed * 37) % 300);
  return f;
}

Bytes wire_bytes(const Frame& f) {
  return encode_frame(f.header,
                      std::span<const std::uint8_t>(f.payload.data(),
                                                    f.payload.size()));
}

TEST(Frame, HeaderRoundTripsEveryField) {
  for (const FrameType type :
       {FrameType::kOpen, FrameType::kOpenAck, FrameType::kMsg,
        FrameType::kCommit, FrameType::kDeliver, FrameType::kClose,
        FrameType::kClosed, FrameType::kError}) {
    FrameHeader h;
    h.type = type;
    h.flags = 0;
    h.session = 0x01020304;
    h.round = 0xA0B0C0D0;
    h.from = 0x1122;
    h.to = 0x3344;
    const Bytes one = encode_frame(h, {});
    FrameDecoder dec;
    dec.feed(one);
    const std::optional<Frame> got = dec.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->header, h);
    EXPECT_TRUE(got->payload.empty());
    EXPECT_FALSE(dec.failed());
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(Frame, PayloadRoundTrip) {
  const Frame f = sample_frame(5);
  FrameDecoder dec;
  dec.feed(wire_bytes(f));
  const std::optional<Frame> got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, f);
}

TEST(Frame, EncodeHeaderMatchesEncodeFrame) {
  // encode_header is the iovec fast path; its 24 bytes must be exactly the
  // prefix encode_frame writes.
  const Frame f = sample_frame(9);
  const auto hdr = encode_header(
      f.header, static_cast<std::uint32_t>(f.payload.size()));
  const Bytes full = wire_bytes(f);
  ASSERT_GE(full.size(), hdr.size());
  EXPECT_EQ(0, std::memcmp(hdr.data(), full.data(), hdr.size()));
}

TEST(Frame, OneByteFragmentation) {
  // Feeding the stream one byte at a time must yield the same frames as
  // one big feed, with next() returning nullopt until each completes.
  std::vector<Frame> frames;
  Bytes stream;
  for (std::uint32_t i = 1; i <= 5; ++i) {
    frames.push_back(sample_frame(i));
    const Bytes b = wire_bytes(frames.back());
    stream.insert(stream.end(), b.begin(), b.end());
  }
  FrameDecoder dec;
  std::vector<Frame> got;
  for (const std::uint8_t byte : stream) {
    dec.feed(&byte, 1);
    while (std::optional<Frame> f = dec.next()) got.push_back(std::move(*f));
    ASSERT_FALSE(dec.failed());
  }
  EXPECT_EQ(got, frames);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, HugeFrameFragmentedAtEveryOffsetRelocatesAtMostOnce) {
  // Regression for the pre-slab compaction pathology: a large frame arriving
  // a byte at a time used to shift the whole partial frame on every feed
  // (quadratic in the payload length). With reserve-on-header the decoder
  // sizes a slab for the full frame as soon as the header's payload_len is
  // visible, so the partial frame relocates at most once -- the wire-copy
  // counters bound the total moved bytes by one pre-reservation chunk.
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  Frame f = sample_frame(9);
  Rng rng(0x1F0);
  f.payload = rng.bytes(kMiB);
  const Bytes stream = wire_bytes(f);

  const std::uint64_t copies_before = net::PayloadMetrics::wire_copies();
  const std::uint64_t bytes_before = net::PayloadMetrics::wire_bytes_copied();
  FrameDecoder dec;
  std::optional<Frame> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    dec.feed(stream.data() + i, 1);
    ASSERT_FALSE(dec.failed());
    if (std::optional<Frame> out = dec.next()) {
      ASSERT_FALSE(got.has_value()) << "one frame in, one frame out";
      got = std::move(*out);
      ASSERT_EQ(i, stream.size() - 1) << "frame completed early";
    }
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, f);

  const std::uint64_t relocations =
      net::PayloadMetrics::wire_copies() - copies_before;
  const std::uint64_t moved =
      net::PayloadMetrics::wire_bytes_copied() - bytes_before;
  EXPECT_LE(relocations, 1u);
  // At most the bytes buffered before the header completed (< one 64 KiB
  // read chunk); the 1 MiB payload body must never be moved.
  EXPECT_LE(moved, std::uint64_t{64} << 10);
}

TEST(Frame, ManyFramesPerFeedAndSplitFrames) {
  // Random fragmentation: chunk boundaries land mid-header, mid-payload,
  // and across frame boundaries; several complete frames arrive per chunk.
  std::vector<Frame> frames;
  Bytes stream;
  for (std::uint32_t i = 1; i <= 24; ++i) {
    frames.push_back(sample_frame(i));
    const Bytes b = wire_bytes(frames.back());
    stream.insert(stream.end(), b.begin(), b.end());
  }
  Rng rng(77);
  FrameDecoder dec;
  std::vector<Frame> got;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(1 + rng.next_u64() % 200, stream.size() - off);
    dec.feed(stream.data() + off, chunk);
    off += chunk;
    while (std::optional<Frame> f = dec.next()) got.push_back(std::move(*f));
    ASSERT_FALSE(dec.failed());
  }
  EXPECT_EQ(got, frames);
}

TEST(Frame, TruncatedFrameStaysPending) {
  const Frame f = sample_frame(3);
  const Bytes b = wire_bytes(f);
  FrameDecoder dec;
  dec.feed(b.data(), b.size() - 1);  // everything but the last payload byte
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.failed());  // truncation is pending input, not an error
  dec.feed(b.data() + b.size() - 1, 1);
  const std::optional<Frame> got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, f);
}

TEST(Frame, BadMagicFailsSticky) {
  Bytes b = wire_bytes(sample_frame(1));
  b[0] ^= 0xFF;
  FrameDecoder dec;
  dec.feed(b);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("magic"), std::string::npos);
  // Sticky: a valid frame after the poison pill is never parsed.
  dec.feed(wire_bytes(sample_frame(2)));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.failed());
}

TEST(Frame, BadVersionFails) {
  Bytes b = wire_bytes(sample_frame(1));
  b[4] = kWireVersion + 1;
  FrameDecoder dec;
  dec.feed(b);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.failed());
}

TEST(Frame, UnknownTypeFails) {
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{13},
                                  std::uint8_t{0x7F}, std::uint8_t{0xFF}}) {
    EXPECT_FALSE(valid_frame_type(type));
    Bytes b = wire_bytes(sample_frame(1));
    b[5] = type;
    FrameDecoder dec;
    dec.feed(b);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_TRUE(dec.failed());
  }
  for (std::uint8_t type = 1; type <= 12; ++type) {
    EXPECT_TRUE(valid_frame_type(type));
  }
}

TEST(Frame, ResumePayloadRoundTrip) {
  ResumeInfo info;
  info.token = 0xDEADBEEFCAFEF00DULL;
  info.completed = 41;
  info.n = 7;
  info.t = 2;
  const Bytes b = encode_resume(info);
  ASSERT_EQ(b.size(), 20u);
  const auto back = decode_resume(b);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, info);
  EXPECT_FALSE(decode_resume(std::span<const std::uint8_t>(b.data(), 19)));
  Bytes longer = b;
  longer.push_back(0);
  EXPECT_FALSE(decode_resume(longer));

  const Bytes tok = encode_u64_payload(info.token);
  ASSERT_EQ(tok.size(), 8u);
  EXPECT_EQ(decode_u64_payload(tok), info.token);
  EXPECT_FALSE(decode_u64_payload(std::span<const std::uint8_t>(tok.data(),
                                                                7)));
}

TEST(Frame, ResetRecoversFromTornFrameWithoutLeakingSlabs) {
  // The reconnect seam: a 1 MiB frame torn mid-payload is abandoned by
  // reset(), the decoder parses the fresh stream cleanly, and once the
  // views drop every slab touched went back to the pool -- outstanding
  // slab count across the whole dance is zero.
  const auto outstanding = [] {
    const net::BufferPool::Stats s = net::BufferPool::instance().stats();
    return (s.slab_allocs + s.slab_reuses) - s.slab_releases;
  };
  const std::uint64_t before = outstanding();
  {
    Frame big = sample_frame(3);
    big.payload = net::Payload(Bytes(1 << 20, 0xAB));
    const Bytes wire = wire_bytes(big);

    FrameDecoder dec;
    dec.feed(std::span<const std::uint8_t>(wire.data(), wire.size() / 2));
    EXPECT_FALSE(dec.next().has_value());  // torn: nothing complete
    EXPECT_GT(dec.buffered(), 0u);
    dec.reset();  // connection died; the byte stream starts over
    EXPECT_EQ(dec.buffered(), 0u);
    EXPECT_FALSE(dec.failed());

    // Also clear a sticky failure the same way.
    FrameDecoder poisoned;
    Bytes garbage(64, 0x5A);
    poisoned.feed(garbage);
    (void)poisoned.next();
    EXPECT_TRUE(poisoned.failed());
    poisoned.reset();
    EXPECT_FALSE(poisoned.failed());

    // The reset decoder parses the full frame from byte zero.
    dec.feed(wire);
    const auto parsed = dec.next();
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, big);
    EXPECT_FALSE(dec.next().has_value());
  }  // decoder + payload views dropped: slabs return to the pool
  EXPECT_EQ(outstanding(), before)
      << "torn-frame reset must not strand receive slabs";
}

TEST(Frame, SlabLayoutDoesNotDependOnReadSplits) {
  // A socket reader calls writable() with the default minimum, so every
  // slab is filled to its last byte before the next is taken: how many
  // slabs a stream occupies is a function of the bytes alone, whatever
  // sizes the kernel hands them over in.
  Bytes stream;
  for (std::uint32_t i = 0; i < 40; ++i) {
    Frame f = sample_frame(i);
    f.payload = net::Payload(Bytes(4096, static_cast<std::uint8_t>(i)));
    const Bytes w = wire_bytes(f);
    stream.insert(stream.end(), w.begin(), w.end());
  }
  const auto slabs_taken = [&stream](std::size_t chunk) {
    const auto taken = [] {
      const net::BufferPool::Stats s = net::BufferPool::instance().stats();
      return s.slab_allocs + s.slab_reuses;
    };
    const std::uint64_t before = taken();
    FrameDecoder dec;
    std::vector<Frame> held;  // keep every view alive, like a round's inbox
    for (std::size_t off = 0; off < stream.size();) {
      const std::span<std::uint8_t> w = dec.writable();
      const std::size_t n = std::min({chunk, w.size(), stream.size() - off});
      std::memcpy(w.data(), stream.data() + off, n);
      dec.commit(n);
      off += n;
      while (std::optional<Frame> f = dec.next()) held.push_back(*f);
    }
    EXPECT_EQ(held.size(), 40u);
    return taken() - before;
  };
  const std::uint64_t whole = slabs_taken(stream.size());
  for (const std::size_t chunk : {1000u, 4096u, 4120u, 65536u}) {
    EXPECT_EQ(slabs_taken(chunk), whole) << "chunk=" << chunk;
  }
}

TEST(Frame, OversizedLengthFailsBeforeAllocation) {
  Bytes b = wire_bytes(sample_frame(1));
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(b.data() + 20, &huge, sizeof(huge));  // payload_len field (LE)
  FrameDecoder dec;
  dec.feed(b.data(), kHeaderSize);  // header alone is enough to reject
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.failed());
}

TEST(Frame, GarbageStreamNeverParses) {
  Rng rng(404);
  const Bytes junk = rng.bytes(4096);
  FrameDecoder dec;
  std::size_t off = 0;
  while (off < junk.size() && !dec.failed()) {
    const std::size_t chunk = std::min<std::size_t>(37, junk.size() - off);
    dec.feed(junk.data() + off, chunk);
    off += chunk;
    while (dec.next().has_value()) {
      FAIL() << "garbage produced a frame";
    }
  }
  // Random bytes essentially never spell the magic at offset 0.
  EXPECT_TRUE(dec.failed());
}

TEST(Frame, MaxPayloadBoundaryAccepted) {
  // Exactly kMaxFramePayload is legal (the bound is inclusive); keep the
  // test cheap by checking header acceptance without feeding 64 MiB.
  FrameHeader h;
  h.type = FrameType::kMsg;
  const auto hdr = encode_header(h, kMaxFramePayload);
  FrameDecoder dec;
  dec.feed(hdr.data(), hdr.size());
  EXPECT_FALSE(dec.next().has_value());  // payload pending, not failed
  EXPECT_FALSE(dec.failed());
}

TEST(Frame, NonzeroFlagsRoundTrip) {
  // Flags are reserved-zero on the wire today, but the decoder must carry
  // them through rather than silently masking (forward compatibility).
  FrameHeader h;
  h.type = FrameType::kCommit;
  h.flags = 0xBEEF;
  const Bytes b = encode_frame(h, {});
  FrameDecoder dec;
  dec.feed(b);
  const std::optional<Frame> got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header.flags, 0xBEEF);
}

}  // namespace
}  // namespace coca::svc
