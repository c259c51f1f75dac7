#pragma once
/// \file autotune.hpp
/// \brief One-shot startup calibration of the kernel-engine tile width.
///
/// The best swap_tile_cols (EngineConfig::tile_cols) depends on cache
/// sizes and core count of the host actually running the simulated
/// kernels, not on the problem: it bounds the per-tile working set of the
/// row-swap gather/scatter kernels and sets their parallel grain. Rather than
/// ship a magic constant, HPL.dat's `swap_tile_cols 0` asks for a ~10 ms
/// measured probe: each candidate width runs a few gather+scatter round
/// trips — the dlaswp-shaped traffic of Fig. 4 — on a throwaway device,
/// and the fastest width wins.

namespace hplx::device {

/// Probe once per process and return the winning tile width. Thread-safe
/// and idempotent: concurrent callers (ranks are threads) block until the
/// single probe finishes, later callers get the cached winner. The
/// process-global engine configuration is restored to its entry value
/// before returning.
long autotune_swap_tile_cols();

/// Chunk size (bytes) for the pipelined row-swap broadcast, derived from
/// the same one-shot probe: the measured row_scatter throughput picks a
/// chunk whose fused unpack takes a few tens of microseconds — large
/// enough to amortize per-chunk enqueue overhead, small enough that
/// deserialization pipelines against the remaining wire traffic. Shares
/// the probe (and its cache) with autotune_swap_tile_cols.
long autotune_swap_chunk_bytes();

}  // namespace hplx::device
