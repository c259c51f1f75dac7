#pragma once
/// \file engine.hpp
/// \brief Column-tiled execution engine for the device data-motion kernels.
///
/// The row-swap and staging-copy kernels (§III, Fig. 4's dlaswp tuning) are
/// pure data motion: every output element is written exactly once, and all
/// dependencies run *along* rows, never across columns. That makes a
/// column tile the natural unit of both cache blocking and parallelism:
/// each tile touches a bounded set of matrix columns (contiguous in
/// column-major storage, so inner loops run down cache lines and
/// vectorize), and disjoint tiles never alias, so they can execute in any
/// order or concurrently with bitwise-identical results.
///
/// The engine leases the process-wide BLAS thread team (the PR 1
/// `blas::set_num_threads` team) for the duration of one kernel: if FACT
/// or a trailing-update dgemm currently holds the team, the kernel simply
/// runs its tiles sequentially on the calling (stream worker) thread —
/// the same busy → sequential handshake the BLAS-3 engine uses, so no
/// call site can deadlock or oversubscribe.

#include <functional>

namespace hplx::device {

/// Run body(c0, c1) for every column tile [c0, c1) of [0, n), 256 columns
/// wide. Tiles run over every member of the leased BLAS team when it is
/// free (sequentially otherwise); `body` must be safe to invoke
/// concurrently for disjoint column ranges and must write each output
/// element from exactly one tile.
void run_column_tiles(long n, const std::function<void(long c0, long c1)>& body);

namespace testing {

/// Test-only seam for the engine property tests. While an instance lives,
/// run_column_tiles cuts `tile_cols`-wide tiles (>= 1) and uses at most
/// `threads` team members (0 = all, 1 = always sequential); the destructor
/// restores the previous values. Process-wide, so it reaches the kernels
/// run_hpl enqueues; never use it outside tests.
class ScopedEngineConfig {
 public:
  ScopedEngineConfig(long tile_cols, int threads);
  ~ScopedEngineConfig();
  ScopedEngineConfig(const ScopedEngineConfig&) = delete;
  ScopedEngineConfig& operator=(const ScopedEngineConfig&) = delete;

 private:
  long saved_tile_cols_;
  int saved_threads_;
};

}  // namespace testing

}  // namespace hplx::device
