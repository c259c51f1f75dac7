#pragma once
/// \file buffer_pool.hpp
/// \brief Size-classed message buffer pool for the minimpi transport.
///
/// Every eager send used to heap-allocate a std::vector payload and every
/// matched receive freed it — one malloc/free pair per message, on the
/// critical path of the panel broadcast and the row-swap collectives.
/// Since the unified allocator landed, this pool is a thin adapter over
/// `device::PoolAllocator`: the same power-of-two freelists serve device
/// buffers, the host arena, and the fabric's message payloads, so the
/// steady-state-allocation accounting covers all three with one counter.
/// The adapter keeps the historical comm behavior: requests above 16 MiB
/// fall back to direct allocation (counted as oversize) so pathological
/// sizes cannot pin memory forever, and zero-byte acquires never touch
/// the pool.

#include <cstddef>
#include <cstdint>
#include <utility>

#include "device/alloc.hpp"

namespace hplx::comm {

class BufferPool;

/// Movable RAII handle to one pooled allocation. Destruction returns the
/// storage to its owning pool's freelist (thread-safe: buffers routinely
/// die on the receiving rank's thread).
class PoolBuffer {
 public:
  PoolBuffer() = default;
  PoolBuffer(PoolBuffer&& other) noexcept { swap(other); }
  PoolBuffer& operator=(PoolBuffer&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  PoolBuffer(const PoolBuffer&) = delete;
  PoolBuffer& operator=(const PoolBuffer&) = delete;
  ~PoolBuffer() { release(); }

  std::byte* data() { return block_.data; }
  const std::byte* data() const { return block_.data; }
  /// Logical payload size (<= the class capacity).
  std::size_t size() const { return block_.bytes; }

 private:
  friend class BufferPool;
  PoolBuffer(device::PoolAllocator* alloc, device::PoolAllocator::Block block)
      : alloc_(alloc), block_(block) {}

  void release();
  void swap(PoolBuffer& other) noexcept {
    std::swap(alloc_, other.alloc_);
    std::swap(block_, other.block_);
  }

  device::PoolAllocator* alloc_ = nullptr;
  device::PoolAllocator::Block block_{};
};

class BufferPool {
 public:
  /// Smallest pooled class: 256 B. Largest: 16 MiB; beyond that requests
  /// are served by plain allocation and freed on release.
  static constexpr int kMinClassLog = device::PoolAllocator::kMinClassLog;
  static constexpr int kMaxClassLog = 24;

  BufferPool() : alloc_("comm", kMaxClassLog) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A buffer with capacity >= bytes and logical size == bytes. bytes == 0
  /// yields a valid empty handle that never touches the pool.
  PoolBuffer acquire(std::size_t bytes);

  struct Stats {
    std::uint64_t acquires = 0;   ///< total acquire() calls (bytes > 0)
    std::uint64_t hits = 0;       ///< served from a freelist (incl. borrows)
    std::uint64_t oversize = 0;   ///< above kMaxClassLog, direct alloc
    std::size_t outstanding = 0;  ///< live buffers not yet released
    std::size_t cached_bytes = 0; ///< capacity parked on freelists
    double hit_rate() const {
      return acquires == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(acquires);
    }
  };
  Stats stats() const;

  /// The underlying unified allocator (full stats, upstream counter).
  device::PoolAllocator& allocator() { return alloc_; }
  const device::PoolAllocator& allocator() const { return alloc_; }

 private:
  device::PoolAllocator alloc_;
};

}  // namespace hplx::comm
