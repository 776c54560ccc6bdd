// net::BufferPool (net/buffer_pool.h): size-class routing, slab reuse,
// cross-thread release, and the stats the CI zero-copy gate samples.
//
// The pool is a process-wide singleton with monotonic counters, so every
// test snapshots stats up front and asserts on deltas, and calls trim()
// to start from an empty cache.
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/buffer_pool.h"
#include "net/payload.h"

namespace coca::net {
namespace {

TEST(BufferPool, ClassSizeRoutesToSmallestHoldingClass) {
  EXPECT_EQ(BufferPool::class_size(1), BufferPool::kMinSlab);
  EXPECT_EQ(BufferPool::class_size(BufferPool::kMinSlab),
            BufferPool::kMinSlab);
  EXPECT_EQ(BufferPool::class_size(BufferPool::kMinSlab + 1),
            BufferPool::kMinSlab * 4);
  EXPECT_EQ(BufferPool::class_size(100 << 10), std::size_t{256} << 10);
  EXPECT_EQ(BufferPool::class_size(BufferPool::kMaxSlab),
            BufferPool::kMaxSlab);
  // Above the largest class: exact size, unpooled.
  EXPECT_EQ(BufferPool::class_size(BufferPool::kMaxSlab + 1),
            BufferPool::kMaxSlab + 1);
}

TEST(BufferPool, AcquireReturnsFullClassCapacity) {
  auto slab = BufferPool::instance().acquire(100);
  ASSERT_TRUE(slab);
  EXPECT_EQ(slab->size(), BufferPool::kMinSlab);
  auto big = BufferPool::instance().acquire((64 << 10) + 1);
  EXPECT_EQ(big->size(), std::size_t{256} << 10);
}

TEST(BufferPool, SlabIsReusedAfterRelease) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  auto slab = pool.acquire(1000);
  const Bytes* raw = slab.get();
  const auto before = pool.stats();
  slab.reset();  // last reference: returns to the 4 KiB free list
  EXPECT_EQ(pool.free_slabs(), 1u);
  auto again = pool.acquire(1000);
  EXPECT_EQ(again.get(), raw);
  const auto after = pool.stats();
  EXPECT_EQ(after.slab_reuses, before.slab_reuses + 1);
  EXPECT_EQ(after.slab_allocs, before.slab_allocs);
}

TEST(BufferPool, DistinctClassesDoNotShareFreeLists) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  auto small = pool.acquire(100);
  small.reset();
  ASSERT_EQ(pool.free_slabs(), 1u);
  const auto before = pool.stats();
  // A 16 KiB request must not be served by the cached 4 KiB slab.
  auto larger = pool.acquire(BufferPool::kMinSlab + 1);
  EXPECT_EQ(larger->size(), BufferPool::kMinSlab * 4);
  const auto after = pool.stats();
  EXPECT_EQ(after.slab_allocs, before.slab_allocs + 1);
  EXPECT_EQ(pool.free_slabs(), 1u);  // the 4 KiB slab is still cached
}

TEST(BufferPool, LanesDoNotShareFreeLists) {
  // A slab returns to the lane it came from: a client-lane request never
  // takes a slab the daemon lane released, and vice versa.
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  auto daemon_slab = pool.acquire(100, BufferPool::Lane::kDaemon);
  const Bytes* raw = daemon_slab.get();
  daemon_slab.reset();
  ASSERT_EQ(pool.free_slabs(), 1u);
  const auto before = pool.stats();
  auto client_slab = pool.acquire(100, BufferPool::Lane::kClient);
  EXPECT_NE(client_slab.get(), raw);
  EXPECT_EQ(pool.stats().slab_allocs, before.slab_allocs + 1);
  auto again = pool.acquire(100, BufferPool::Lane::kDaemon);
  EXPECT_EQ(again.get(), raw);
}

TEST(BufferPool, OversizeSlabsAreExactAndNotCached) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  const std::size_t want = BufferPool::kMaxSlab + 1;
  const auto before = pool.stats();
  auto slab = pool.acquire(want);
  EXPECT_EQ(slab->size(), want);
  const auto mid = pool.stats();
  EXPECT_EQ(mid.oversize_allocs, before.oversize_allocs + 1);
  slab.reset();
  EXPECT_EQ(pool.free_slabs(), 0u);  // freed outright, never cached
  const auto after = pool.stats();
  EXPECT_EQ(after.slab_releases, mid.slab_releases + 1);
}

TEST(BufferPool, PayloadViewKeepsSlabAliveUntilLastViewDrops) {
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  auto slab = pool.acquire(4096);
  (*slab)[10] = 0x5A;
  Payload view(slab, 10, 1);
  Payload copy = view;  // refcount bump, no byte copy
  slab.reset();
  EXPECT_EQ(pool.free_slabs(), 0u) << "views must pin the slab";
  EXPECT_EQ(view[0], 0x5A);
  view = Payload();
  EXPECT_EQ(pool.free_slabs(), 0u) << "one view still alive";
  copy = Payload();
  EXPECT_EQ(pool.free_slabs(), 1u) << "last view returns the slab";
}

TEST(BufferPool, CrossThreadReleaseReturnsSlabToPool) {
  // The wire path's routine handoff: the epoll thread acquires a slab, the
  // client's reader thread (or the protocol thread consuming views) drops
  // the last reference. The wire-smoke TSan job runs this same binary.
  BufferPool& pool = BufferPool::instance();
  pool.trim();
  constexpr int kRounds = 64;
  const auto before = pool.stats();
  for (int r = 0; r < kRounds; ++r) {
    auto slab = pool.acquire(2000);
    Payload view(slab, 0, 16);
    slab.reset();
    std::thread consumer([v = std::move(view)]() mutable {
      EXPECT_EQ(v.size(), 16u);
      v = Payload();  // last reference dropped off-thread
    });
    consumer.join();
    EXPECT_EQ(pool.free_slabs(), 1u);
  }
  const auto after = pool.stats();
  // One fresh slab on the first round, reuse ever after.
  EXPECT_EQ(after.slab_allocs, before.slab_allocs + 1);
  EXPECT_EQ(after.slab_reuses, before.slab_reuses + kRounds - 1);
}

TEST(BufferPool, StatsCountersAreMonotonic) {
  BufferPool& pool = BufferPool::instance();
  const auto before = pool.stats();
  auto a = pool.acquire(1);
  auto b = pool.acquire(BufferPool::kMaxSlab);
  a.reset();
  b.reset();
  const auto after = pool.stats();
  EXPECT_GE(after.slab_allocs, before.slab_allocs);
  EXPECT_GE(after.slab_reuses, before.slab_reuses);
  EXPECT_EQ(after.slab_releases, before.slab_releases + 2);
  EXPECT_GE(after.bytes_allocated, before.bytes_allocated);
}

TEST(BufferPool, TrimDropsEveryCachedSlab) {
  BufferPool& pool = BufferPool::instance();
  std::vector<std::shared_ptr<Bytes>> slabs;
  for (int i = 0; i < 4; ++i) slabs.push_back(pool.acquire(512));
  slabs.clear();
  EXPECT_GT(pool.free_slabs(), 0u);
  pool.trim();
  EXPECT_EQ(pool.free_slabs(), 0u);
}

}  // namespace
}  // namespace coca::net
