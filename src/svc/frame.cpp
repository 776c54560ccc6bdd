#include "svc/frame.h"

#include <cstring>

namespace coca::svc {

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

bool valid_frame_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kOpen) &&
         t <= static_cast<std::uint8_t>(FrameType::kPong);
}

Bytes encode_resume(const ResumeInfo& info) {
  Bytes out(20);
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(info.token >> (8 * i));
    out[8 + i] = static_cast<std::uint8_t>(info.completed >> (8 * i));
  }
  put_u16(out.data() + 16, info.n);
  put_u16(out.data() + 18, info.t);
  return out;
}

std::optional<ResumeInfo> decode_resume(std::span<const std::uint8_t> p) {
  if (p.size() != 20) return std::nullopt;
  ResumeInfo info;
  for (int i = 0; i < 8; ++i) {
    info.token |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    info.completed |= static_cast<std::uint64_t>(p[8 + i]) << (8 * i);
  }
  info.n = get_u16(p.data() + 16);
  info.t = get_u16(p.data() + 18);
  return info;
}

Bytes encode_u64_payload(std::uint64_t v) {
  Bytes out(8);
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return out;
}

std::optional<std::uint64_t> decode_u64_payload(
    std::span<const std::uint8_t> p) {
  if (p.size() != 8) return std::nullopt;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

std::array<std::uint8_t, kHeaderSize> encode_header(
    const FrameHeader& h, std::uint32_t payload_len) {
  std::array<std::uint8_t, kHeaderSize> out;
  put_u32(out.data() + 0, kFrameMagic);
  out[4] = kWireVersion;
  out[5] = static_cast<std::uint8_t>(h.type);
  put_u16(out.data() + 6, h.flags);
  put_u32(out.data() + 8, h.session);
  put_u32(out.data() + 12, h.round);
  put_u16(out.data() + 16, h.from);
  put_u16(out.data() + 18, h.to);
  put_u32(out.data() + 20, payload_len);
  return out;
}

Bytes encode_frame(const FrameHeader& h,
                   std::span<const std::uint8_t> payload) {
  require(payload.size() <= kMaxFramePayload, "encode_frame: payload too big");
  const auto hdr = encode_header(h, static_cast<std::uint32_t>(payload.size()));
  Bytes out(kHeaderSize + payload.size());
  std::memcpy(out.data(), hdr.data(), kHeaderSize);
  if (!payload.empty()) {
    std::memcpy(out.data() + kHeaderSize, payload.data(), payload.size());
  }
  return out;
}

std::span<std::uint8_t> FrameDecoder::writable(std::size_t min) {
  require(min > 0 && min <= kHeaderSize + std::size_t{kMaxFramePayload},
          "FrameDecoder::writable: bad size hint");
  if (slab_ && slab_->size() - filled_ >= min) {
    return {slab_->data() + filled_, slab_->size() - filled_};
  }
  // The current slab is short (or absent): move to a fresh pool slab,
  // carrying over the partial frame at the buffer's tail, if any. Slabs are
  // append-only while payload views exist, so this relocation -- never an
  // in-place rewind -- is the only way buffered bytes ever move; it is the
  // wire path's sole memcpy and is metered as such.
  const std::size_t remainder = filled_ - off_;
  std::size_t needed = remainder + min;
  if (remainder >= kHeaderSize) {
    // The pending frame's header is visible: size the new slab for the
    // whole frame up front, so however fragmented its arrival, the frame
    // relocates at most once (and only its currently-buffered prefix).
    // A length above the limit is a stream about to fail; ignore the hint.
    const std::uint64_t payload_len = get_u32(slab_->data() + off_ + 20);
    if (payload_len <= kMaxFramePayload) {
      needed = std::max(needed,
                        kHeaderSize + static_cast<std::size_t>(payload_len));
    }
  }
  std::shared_ptr<Bytes> fresh =
      net::BufferPool::instance().acquire(std::max(needed, kSlabChunk), lane_);
  if (remainder > 0) {
    std::memcpy(fresh->data(), slab_->data() + off_, remainder);
    net::PayloadMetrics::add_wire_copy(remainder);
  }
  slab_ = std::move(fresh);
  off_ = 0;
  filled_ = remainder;
  return {slab_->data() + filled_, slab_->size() - filled_};
}

void FrameDecoder::commit(std::size_t n) {
  require(slab_ && filled_ + n <= slab_->size(),
          "FrameDecoder::commit: beyond the writable span");
  filled_ += n;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t len) {
  if (failed() || len == 0) return;
  while (len > 0) {
    const std::span<std::uint8_t> w = writable(std::min(len, kSlabChunk));
    const std::size_t n = std::min(len, w.size());
    std::memcpy(w.data(), data, n);
    commit(n);
    data += n;
    len -= n;
  }
}

void FrameDecoder::reset() {
  error_.clear();
  slab_.reset();  // pool reclaims it once outstanding views drop
  off_ = 0;
  filled_ = 0;
}

void FrameDecoder::fail(std::string reason) {
  error_ = std::move(reason);
  slab_.reset();  // drop buffered bytes; the stream is already lost
  off_ = 0;
  filled_ = 0;
}

std::optional<Frame> FrameDecoder::next() {
  if (failed()) return std::nullopt;
  if (filled_ - off_ < kHeaderSize) return std::nullopt;
  const std::uint8_t* p = slab_->data() + off_;
  if (get_u32(p) != kFrameMagic) {
    fail("bad frame magic (desynced or non-coca stream)");
    return std::nullopt;
  }
  if (p[4] != kWireVersion) {
    fail("unsupported wire version " + std::to_string(p[4]));
    return std::nullopt;
  }
  if (!valid_frame_type(p[5])) {
    fail("unknown frame type " + std::to_string(p[5]));
    return std::nullopt;
  }
  const std::uint32_t payload_len = get_u32(p + 20);
  if (payload_len > kMaxFramePayload) {
    fail("frame payload length " + std::to_string(payload_len) +
         " exceeds limit");
    return std::nullopt;
  }
  if (filled_ - off_ < kHeaderSize + payload_len) return std::nullopt;

  Frame f;
  f.header.type = static_cast<FrameType>(p[5]);
  f.header.flags = get_u16(p + 6);
  f.header.session = get_u32(p + 8);
  f.header.round = get_u32(p + 12);
  f.header.from = get_u16(p + 16);
  f.header.to = get_u16(p + 18);
  if (payload_len > 0) {
    f.payload = net::Payload(slab_, off_ + kHeaderSize, payload_len);
  }
  off_ += kHeaderSize + payload_len;
  if (off_ == filled_ && f.payload.empty() && slab_->size() == filled_) {
    // Fully consumed slab with no view handed out of this frame: release
    // it now instead of waiting for the next writable() switch.
    slab_.reset();
    off_ = 0;
    filled_ = 0;
  }
  return f;
}

}  // namespace coca::svc
