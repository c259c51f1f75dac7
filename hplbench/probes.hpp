#pragma once
/// \file probes.hpp
/// \brief Layer probes and ceilings of the traced run.
///
/// A probe times one call into a layer's public function at the shapes and
/// thread layout of the workload being measured; a ceiling times the same
/// layer at its most favourable shape in the same run, so the two can be
/// compared without mixing runs. Every figure is wall-clock
/// (hplx::wall_seconds); none reads the device cost model.

#include <cstddef>

#include "core/config.hpp"

namespace hplbench {

/// The shapes a workload's solve runs at half-way through the
/// factorization, where the trailing matrix is N/2 wide: the per-rank
/// update block and the width of one update band.
struct ProbeShape {
  int nb = 0;
  long mloc_mid = 0;  ///< local trailing rows at mid-run
  long nloc_mid = 0;  ///< local trailing columns at mid-run
  long band = 0;      ///< columns of one update band (nloc_mid / streams)
  int concurrency = 1;  ///< update calls in flight at once (ranks×streams)
};

ProbeShape probe_shape(const hplx::core::HplConfig& cfg);

/// Size of the last-level cache as sysconf reports it (0 if unknown).
std::size_t llc_bytes();

/// A probe's median rate over its trials and the ceiling measured beside
/// it (the best trial seen, at least the probe's own best).
struct Rate {
  double rate = 0.0;
  double ceiling = 0.0;
};

// Each probe returns the median over its trials; each ceiling the best.
Rate gemm_gflops(bool fp32, const ProbeShape& s, int trials, bool smoke);
double trsm_gflops(const ProbeShape& s, int trials, bool smoke);
double pfact_gflops(const hplx::core::HplConfig& cfg, int trials);
double panel_bcast_gbps(const hplx::core::HplConfig& cfg, int trials);
double allgatherv_gbps(const hplx::core::HplConfig& cfg, int trials);
double pingpong_us(int trials);
double pingpong_gbps(int trials);
double rowswap_kernel_gbps(const hplx::core::HplConfig& cfg, int trials,
                           bool smoke);
double memcpy_gbps(std::size_t buffer_bytes, int threads, int trials);
double backsolve_s(const hplx::core::HplConfig& cfg, int trials);
double matgen_s(const hplx::core::HplConfig& cfg, int trials);
double verify_s(const hplx::core::HplConfig& cfg, int trials);

}  // namespace hplbench
