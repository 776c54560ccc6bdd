#include "net/buffer_pool.h"

namespace coca::net {

namespace {

/// Size-class index for a pooled request, kClasses for oversize.
std::size_t class_index(std::size_t min_bytes) {
  std::size_t size = BufferPool::kMinSlab;
  for (std::size_t i = 0; i < BufferPool::kClasses; ++i, size *= 4) {
    if (min_bytes <= size) return i;
  }
  return BufferPool::kClasses;
}

}  // namespace

BufferPool& BufferPool::instance() {
  // Leaky: views released during static destruction still have a pool.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

std::size_t BufferPool::class_size(std::size_t min_bytes) {
  const std::size_t cls = class_index(min_bytes);
  if (cls == kClasses) return min_bytes;
  std::size_t size = kMinSlab;
  for (std::size_t i = 0; i < cls; ++i) size *= 4;
  return size;
}

std::shared_ptr<Bytes> BufferPool::acquire(std::size_t min_bytes, Lane lane) {
  const std::size_t cls = class_index(min_bytes);
  const std::size_t size = class_size(min_bytes);
  // Oversize slabs have no free list: null frees them on release.
  FreeList* const list =
      cls < kClasses ? &free_[static_cast<std::size_t>(lane)][cls] : nullptr;
  std::unique_ptr<Bytes> slab;
  {
    std::lock_guard lk(mu_);
    if (list != nullptr && !list->empty()) {
      slab = std::move(list->back());
      list->pop_back();
      stats_.slab_reuses += 1;
    } else {
      stats_.slab_allocs += 1;
      stats_.bytes_allocated += size;
      if (cls == kClasses) stats_.oversize_allocs += 1;
    }
  }
  if (!slab) slab = std::make_unique<Bytes>(size);
  // The deleter returns the slab to the pool (or frees oversize slabs); it
  // runs on whichever thread drops the last Payload view.
  return std::shared_ptr<Bytes>(
      slab.release(), [list](Bytes* b) { instance().release(b, list); });
}

void BufferPool::release(Bytes* slab, FreeList* list) {
  std::unique_ptr<Bytes> owned(slab);
  std::lock_guard lk(mu_);
  stats_.slab_releases += 1;
  if (list != nullptr) list->push_back(std::move(owned));
  // oversize: owned frees on scope exit
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::size_t BufferPool::free_slabs() const {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  for (const auto& lane : free_) {
    for (const FreeList& list : lane) total += list.size();
  }
  return total;
}

void BufferPool::trim() {
  std::lock_guard lk(mu_);
  for (auto& lane : free_) {
    for (FreeList& list : lane) list.clear();
  }
}

}  // namespace coca::net
