#pragma once
/// \file driver.hpp
/// \brief The hplx public entry point: the distributed HPL solve.
///
/// run_hpl generates the seeded N×(N+NRHS) augmented system on the
/// simulated accelerators (NRHS = cfg.nrhs right-hand sides carried as
/// trailing columns, classically one), LU-factors it with partial — or,
/// for diagonally dominant systems, no — pivoting using the configured
/// pipeline (§III: look-ahead and split update), backsolves, and verifies.
/// It is collective: every rank of `world` (which must have exactly
/// cfg.p × cfg.q ranks) calls it with the same configuration.

#include <cstdint>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/config.hpp"
#include "core/verify.hpp"
#include "trace/records.hpp"

namespace hplx::core {

/// Lifetime counters of one allocator pool (the device HBM pool, the host
/// arena, or the process-shared fabric message pool), copied from
/// device::PoolAllocator::Stats at the end of the run.
struct AllocPoolReport {
  std::string name;
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;      ///< freelist hits, including borrows
  std::uint64_t oversize = 0;  ///< requests above the pool's largest class
  std::uint64_t upstream_allocs = 0;  ///< system allocations ever made
  std::size_t hwm_bytes = 0;          ///< peak leased + parked capacity
  std::size_t cached_bytes = 0;       ///< parked on freelists at run end
  std::size_t outstanding_bytes = 0;  ///< still leased at run end
  double hit_rate = 1.0;
  double fragmentation = 0.0;  ///< class-rounding padding / leased bytes
};

/// Memory-allocator accounting of one run. The *steady window* is the
/// factorization loop after the warmup iterations (iteration 0 builds the
/// freelist inventory, iteration 1 absorbs cross-rank skew); backsolve /
/// refinement first-call leases happen after the loop and are excluded by
/// construction. `steady_upstream_allocs == 0` is the guarantee the
/// allocator exists for: no pooled subsystem touched the system allocator
/// once warm.
struct AllocStats {
  bool steady_measured = false;  ///< run had iterations past warmup
  /// Process-wide upstream (system) allocations by any pool inside the
  /// steady window — max over ranks, identical on every rank.
  std::uint64_t steady_upstream_allocs = 0;
  /// Pool hit rate over the steady window — min over ranks.
  double steady_hit_rate = 1.0;
  /// Per-pool lifetime rows (this rank's device pools + shared fabric).
  std::vector<AllocPoolReport> pools;
};

struct HplResult {
  double seconds = 0.0;  ///< wall time of factorization + backsolve
  double gflops = 0.0;   ///< (2/3·N³ + 3/2·N²) / seconds / 1e9
  /// The BLAS-3 engine copy that ran and its register tiles, e.g.
  /// "x86-64-v4 (f64 4x24, f32 4x32)" (blas::describe).
  std::string blas;

  VerifyResult verify;   ///< residual check (if cfg.verify)

  /// Per-iteration phase breakdown recorded by the rank owning each
  /// iteration's diagonal panel (Fig. 7's data). Populated on rank 0 with
  /// the union of all ranks' records.
  trace::RunTrace trace;

  // Whole-run phase totals (seconds), summed over iterations.
  double fact_seconds = 0.0;
  double mpi_seconds = 0.0;
  double transfer_seconds = 0.0;
  double gpu_seconds = 0.0;

  /// Row-swap totals: measured wall time inside the U-assembly
  /// collective, and modeled device seconds of the U unpack kernels. The
  /// two are on different clocks, so no ratio of them is reported.
  double rs_wire_seconds = 0.0;
  double rs_unpack_seconds = 0.0;
  /// Bytes the row-swap collectives put on the wire (this rank), summed
  /// over every window: U-assembly allgatherv + displaced scatterv. Zero
  /// when pivoting == PivotMode::None — the no-pivot path replaces the
  /// swap machinery with a plain panel broadcast charged to mpi_seconds.
  long rs_wire_bytes = 0;

  /// Per-stream occupancy of the trailing-update pool (this rank), one
  /// entry per pool stream: modeled busy seconds and wall-clock busy
  /// seconds. Entry 0 is the primary stream. Size = effective
  /// update_streams (>= 1 even when the pool knob is 1).
  std::vector<double> stream_busy_seconds;
  std::vector<double> stream_real_seconds;

  /// Mixed-precision outcome (precision = mxp32 / mxp16-sim): how many
  /// fp64 iterative-refinement corrections the low-precision solution
  /// took, and whether refinement failed to converge and the run redid
  /// the factorization in full fp64. Zero / false in fp64 mode.
  int ir_iters = 0;
  bool ir_fallback = false;

  /// Unified-allocator accounting: steady-window allocation counts and
  /// per-pool lifetime stats (identical scalar fields on every rank).
  AllocStats alloc;

  /// True when the hazard-checking runtime (device::HazardTracker) was
  /// attached to this run's devices (cfg.hazard_check or HPLX_HAZARD).
  bool hazard_checked = false;
  /// Deduplicated hazard-checker violations. Rank 0 holds the union of
  /// every rank's records (like `trace`); other ranks hold their own.
  /// Empty when the run was clean — the expected state.
  std::vector<trace::DiagnosticRecord> hazards;

  /// True when the communication verifier (comm::Verifier) was attached
  /// to this run's fabrics (cfg.comm_check or HPLX_COMM_CHECK).
  bool comm_checked = false;
  /// Deduplicated comm-verifier violations. Rank 0 holds the union of
  /// every fabric's records (world, row and column splits); other ranks
  /// hold their own fabrics'. Empty when the run was clean.
  std::vector<trace::DiagnosticRecord> comm_violations;
};

/// Throw hplx::Error naming the first run knob outside its valid range
/// and its value. run_hpl calls this on every rank before communicating.
void validate_config(const HplConfig& cfg);

/// Solve. Returns the (identical) result on every rank; the trace is only
/// populated on rank 0.
HplResult run_hpl(comm::Communicator& world, const HplConfig& cfg);

}  // namespace hplx::core
