#include "device/engine.hpp"

#include <algorithm>
#include <atomic>

#include "blas/threading.hpp"
#include "util/error.hpp"

namespace hplx::device {

namespace {

// Plain atomics, not a mutex: kernels read them on stream worker threads
// while a testing::ScopedEngineConfig may be installing them. Only that
// seam ever changes the defaults.
std::atomic<long> g_tile_cols{256};
std::atomic<int> g_threads{0};

}  // namespace

void run_column_tiles(long n,
                      const std::function<void(long c0, long c1)>& body) {
  if (n <= 0) return;
  const long tile = std::max<long>(1, g_tile_cols.load(std::memory_order_relaxed));
  const long ntiles = (n + tile - 1) / tile;
  const int cap = g_threads.load(std::memory_order_relaxed);

  if (ntiles > 1 && cap != 1) {
    blas::detail::TeamLease lease;
    if (ThreadTeam* team = lease.team()) {
      const int nthr =
          cap > 0 ? std::min(cap, team->size()) : team->size();
      if (nthr > 1) {
        // Dynamic tile queue: tiles are disjoint, so claim order cannot
        // change results, and uneven tiles (the ragged last one, cache
        // effects) self-balance.
        std::atomic<long> next{0};
        team->run([&](int tid) {
          if (tid >= nthr) return;
          for (;;) {
            const long t = next.fetch_add(1, std::memory_order_relaxed);
            if (t >= ntiles) return;
            const long c0 = t * tile;
            body(c0, std::min(n, c0 + tile));
          }
        });
        return;
      }
    }
  }

  for (long c0 = 0; c0 < n; c0 += tile) body(c0, std::min(n, c0 + tile));
}

testing::ScopedEngineConfig::ScopedEngineConfig(long tile_cols, int threads)
    : saved_tile_cols_(g_tile_cols.load(std::memory_order_relaxed)),
      saved_threads_(g_threads.load(std::memory_order_relaxed)) {
  HPLX_CHECK_MSG(tile_cols >= 1,
                 "engine tile_cols must be >= 1, got " << tile_cols);
  HPLX_CHECK_MSG(threads >= 0, "engine threads must be >= 0, got " << threads);
  g_tile_cols.store(tile_cols, std::memory_order_relaxed);
  g_threads.store(threads, std::memory_order_relaxed);
}

testing::ScopedEngineConfig::~ScopedEngineConfig() {
  g_tile_cols.store(saved_tile_cols_, std::memory_order_relaxed);
  g_threads.store(saved_threads_, std::memory_order_relaxed);
}

}  // namespace hplx::device
