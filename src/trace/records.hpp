#pragma once
/// \file records.hpp
/// \brief Per-iteration timing records, the data behind Fig. 7.
///
/// At every iteration the process owning the current diagonal panel records
/// the same five timers the paper plots: total iteration time, GPU active
/// time, FACT (CPU) time, MPI time, and host<->device transfer time.
/// The real driver measures wall-clock seconds, except in fields marked
/// modeled (DeviceModel time); the simulator writes modeled seconds, the
/// fold of its timeline, and leaves the driver-only fields at zero.

#include <cstdint>
#include <cstring>
#include <vector>

namespace hplx::trace {

/// Upper bound on the trailing-update stream pool size a record can hold.
/// Records travel between ranks as raw bytes (comm::Communicator's
/// trivially-copyable send), so the per-stream columns are fixed arrays,
/// not vectors.
inline constexpr int kMaxUpdateStreams = 8;

struct IterationRecord {
  int iteration = 0;       ///< 0-based iteration index
  long column = 0;         ///< global column at which the iteration starts
  double total_s = 0.0;    ///< whole iteration (sim: max(span, gpu_s))
  /// Device busy time. Driver: summed over the update pool's streams, so
  /// it can exceed total_s. Simulator: its one GPU lane's.
  double gpu_s = 0.0;
  double fact_s = 0.0;     ///< CPU panel factorization time
  double mpi_s = 0.0;      ///< time in communication calls
  double transfer_s = 0.0; ///< host<->device transfer time
  double rs_wire_s = 0.0;  ///< driver only: U-assembly collective time
  double rs_unpack_s = 0.0;  ///< driver only, modeled: U unpack kernels

  /// Streams in the trailing-update pool this iteration ran with; entries
  /// [0, update_streams) of the arrays below are meaningful.
  int update_streams = 1;
  /// Driver only, modeled: busy seconds per pool stream within the
  /// iteration (stream 0 is the primary carrying row swaps and U assembly).
  double stream_busy_s[kMaxUpdateStreams] = {};
  /// Driver only: busy seconds per pool stream.
  double stream_real_s[kMaxUpdateStreams] = {};
};

/// One deduplicated checker violation, shared by both checkers:
/// device::HazardTracker (host/device buffer hazards) and comm::Verifier
/// (collective/p2p matching, deadlock, leaks). Like IterationRecord these
/// travel between ranks as raw bytes, so the labels are fixed char
/// arrays, not strings.
struct DiagnosticRecord {
  /// The reporting checker's Kind enum (device::HazardTracker::Kind or
  /// comm::Verifier::Kind), kept as int so trace/ depends on neither.
  int kind = 0;
  /// Occurrences collapsed into this record (same kind + label pair).
  std::uint64_t count = 0;
  char op_a[48] = {};    ///< label of the later / detecting access or call
  char op_b[48] = {};    ///< label of the conflicting earlier one / peer's
  char detail[96] = {};  ///< first occurrence's context (ranges, sizes)

  void set_labels(const char* a, const char* b, const char* d) {
    std::strncpy(op_a, a ? a : "", sizeof(op_a) - 1);
    std::strncpy(op_b, b ? b : "", sizeof(op_b) - 1);
    std::strncpy(detail, d ? d : "", sizeof(detail) - 1);
  }
};

struct RunTrace {
  std::vector<IterationRecord> iterations;

  double total_seconds() const {
    double t = 0.0;
    for (const auto& r : iterations) t += r.total_s;
    return t;
  }

  /// Fraction of iterations whose non-GPU phases were fully hidden: total
  /// time within `slack` of GPU busy time (the paper's "entirely hidden by
  /// GPU activity" regime).
  double hidden_fraction(double slack = 0.05) const {
    if (iterations.empty()) return 0.0;
    int hidden = 0;
    for (const auto& r : iterations) {
      if (r.total_s <= r.gpu_s * (1.0 + slack)) ++hidden;
    }
    return static_cast<double>(hidden) /
           static_cast<double>(iterations.size());
  }

  /// Fraction of *time* spent in iterations that were fully hidden.
  double hidden_time_fraction(double slack = 0.05) const {
    double hidden = 0.0, total = 0.0;
    for (const auto& r : iterations) {
      total += r.total_s;
      if (r.total_s <= r.gpu_s * (1.0 + slack)) hidden += r.total_s;
    }
    return total > 0.0 ? hidden / total : 0.0;
  }
};

/// HPL's reported FLOP count for an N×N solve: 2/3·N³ + 3/2·N².
inline double hpl_flops(double n) {
  return (2.0 / 3.0) * n * n * n + 1.5 * n * n;
}

}  // namespace hplx::trace
