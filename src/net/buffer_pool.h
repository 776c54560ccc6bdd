// Pooled receive slabs for the zero-copy wire path.
//
// The service runtime reads socket bytes straight into large shared slabs;
// `svc::FrameDecoder` then hands out `net::Payload` views into the slab
// instead of copying each frame's payload out of the stream buffer. A slab
// stays alive while any view references it and returns to the pool when the
// last reference drops, so in steady state the receive path performs zero
// heap allocations for payload bytes: the same few slabs cycle between the
// socket reader and the protocol code consuming the views.
//
// Slabs are size-classed (powers of four from 4 KiB) so a session streaming
// 64-byte votes and one shipping a 1 MiB coded payload do not share a free
// list; requests above the largest class get an exact-size slab that is
// freed, not cached, on release (they are rare by construction -- the
// decoder only asks for one when a single frame exceeds the largest class).
//
// Lanes: the pool keeps one set of free lists per lane, and a slab returns
// to the lane it was acquired from. The daemon's connections read on the
// daemon lane and clients on the client lane, so when both run in one
// process (tests, `trace_runner --wire`, the in-process benchmark daemon)
// neither side's steady-state slab set depends on how the other side's
// thread is scheduled -- the same separation two processes have anyway.
// Stats are pool-wide.
//
// Concurrency: acquire/release take one uncontended mutex. Release runs from
// whatever thread dropped the last view -- the client's reader thread
// routinely frees slabs into the same pool the daemon's epoll thread
// allocates from (the wire-smoke TSan job exercises exactly that handoff).
// The pool is a leaky process-wide singleton so late-destructed views (e.g.
// a static transcript) can always return their slab safely.
//
// Stats are monotonic process-wide counters; `bench_runner --wire` samples
// them per round and the CI zero-copy gate asserts the steady-state
// `slab_allocs` delta is zero.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/common.h"

namespace coca::net {

class BufferPool {
 public:
  /// Smallest / largest pooled slab sizes. Classes are kMinSlab * 4^i.
  static constexpr std::size_t kMinSlab = 4u << 10;    // 4 KiB
  static constexpr std::size_t kMaxSlab = 4u << 20;    // 4 MiB
  static constexpr std::size_t kClasses = 6;           // 4K..4M, x4 steps

  /// Independent free-list sets (see the header comment).
  enum class Lane : std::uint8_t { kClient, kDaemon };
  static constexpr std::size_t kLanes = 2;

  /// The process-wide pool.
  static BufferPool& instance();

  /// A slab with `size() >= min_bytes`: reused from the lane's matching
  /// size-class free list when possible, freshly allocated otherwise. The
  /// returned buffer's size() is the full slab capacity; callers track their
  /// own fill level. When the last shared_ptr drops, the slab returns to
  /// that free list (or is freed outright if it is an oversize, unpooled
  /// slab).
  std::shared_ptr<Bytes> acquire(std::size_t min_bytes,
                                 Lane lane = Lane::kClient);

  /// Monotonic counters (process-wide, sampled-and-diffed by benches).
  struct Stats {
    std::uint64_t slab_allocs = 0;     // fresh slab memory allocations
    std::uint64_t slab_reuses = 0;     // acquires served from a free list
    std::uint64_t slab_releases = 0;   // slabs returned (cached or freed)
    std::uint64_t oversize_allocs = 0; // above-kMaxSlab exact-size slabs
    std::uint64_t bytes_allocated = 0; // total bytes of fresh allocations
  };
  Stats stats() const;

  /// Slabs currently cached across all free lists of every lane (tests).
  std::size_t free_slabs() const;

  /// Drops every cached slab (tests isolate reuse accounting with this).
  void trim();

  /// The slab capacity `min_bytes` routes to: the smallest class holding it,
  /// or `min_bytes` itself above kMaxSlab. Exposed for the routing tests.
  static std::size_t class_size(std::size_t min_bytes);

 private:
  BufferPool() = default;

  using FreeList = std::vector<std::unique_ptr<Bytes>>;

  void release(Bytes* slab, FreeList* list);

  mutable std::mutex mu_;
  FreeList free_[kLanes][kClasses];
  Stats stats_;
};

}  // namespace coca::net
