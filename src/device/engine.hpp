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

/// Process-global kernel-engine knobs. The solver runs with the defaults
/// below; the kernel benchmarks and engine tests sweep them.
struct EngineConfig {
  /// Column-tile width in matrix columns. Bounds the per-tile working set
  /// and sets the parallel grain; must be >= 1.
  long tile_cols = 256;

  /// Team members a kernel may use: 0 = every member of the leased BLAS
  /// team, 1 = always sequential, n > 1 = at most n members.
  int threads = 0;
};

/// Install the engine configuration (process-global, like
/// blas::set_num_threads: ranks are threads, so per-rank engines would
/// multiply the worker count). Safe to call concurrently with running
/// kernels; in-flight kernels finish with the configuration they started
/// with.
void configure_engine(const EngineConfig& cfg);

/// The currently installed configuration.
EngineConfig engine_config();

/// Run body(c0, c1) for every column tile [c0, c1) of [0, n), tiled at
/// engine_config().tile_cols. Tiles run over the leased BLAS team when it
/// is free (sequentially otherwise); `body` must be safe to invoke
/// concurrently for disjoint column ranges and must write each output
/// element from exactly one tile.
void run_column_tiles(long n, const std::function<void(long c0, long c1)>& body);

}  // namespace hplx::device
