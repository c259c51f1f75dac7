#pragma once
/// \file update.hpp
/// \brief Trailing-update enqueue helpers (UPDATE, §II / Fig. 2d).
///
/// Given a factored panel (replicated L1/top block + this rank's L2 rows)
/// and an assembled U window, enqueue on the compute stream:
///   1. U := L1^{-1}·U (DTRSM with the unit-lower triangle of the top
///      block — performed redundantly per rank, as in HPL);
///   2. the U rows written back into the diagonal process row's slots;
///   3. the rank-NB update A(tail, window) -= L2·U (the big DGEMM).
///
/// The helpers operate on a *column window* [jl0, jl0+njl) so the driver
/// can compose the look-ahead / left / right sections of the split-update
/// schedule from the same pieces. All helpers are templates over the
/// element type; the float instantiation is the MxP trailing update, whose
/// gemm/trsm time is billed at the device's low-precision throughput
/// curve.

#include "core/matrix.hpp"
#include "core/panel_bcast.hpp"
#include "core/schedule.hpp"
#include "device/stream.hpp"

namespace hplx::core {

/// Enqueue stages 1+2: DTRSM on the U window and, when this rank is in the
/// diagonal process row, the writeback of the finished U rows into local
/// rows [u_row_off, u_row_off+jb) of the window.
template <typename T>
void enqueue_u_update(device::Stream& s, DistMatrixT<T>& a,
                      const PanelDataT<T>& panel, T* u_dev, long ldu,
                      long jl0, long njl, bool in_diag_row, long u_row_off);

/// Enqueue stage 3: A(tail, window) -= L2 · U. `tail_off` is the local row
/// where the trailing rows (global >= j+jb) begin; panel.l2 supplies the
/// matching ml2 = mloc - tail_off rows of L.
template <typename T>
void enqueue_tail_gemm(device::Stream& s, DistMatrixT<T>& a,
                       const PanelDataT<T>& panel, const T* u_dev, long ldu,
                       long jl0, long njl, long tail_off);

/// Completion handle for one banded section: one event per pool stream
/// that received bands, each recorded after that stream's last band.
struct BandSection {
  std::vector<device::Event> done;

  /// Make subsequently enqueued work on `s` wait for every band (the
  /// fan-in edge; call on the primary before enqueueing anything that
  /// reads the section's output).
  void join(device::Stream& s) const {
    for (const device::Event& ev : done) s.wait_event(ev);
  }

  /// Host-side blocking wait for every band.
  void host_wait() const {
    for (const device::Event& ev : done) ev.wait();
  }
};

/// Banded trailing update of the column window [jl0, jl0+njl): the window
/// is cut evenly into one column band per usable stream, and each band
/// runs the full trsm → diagonal-writeback → tail-gemm chain of
/// enqueue_u_update + enqueue_tail_gemm on its own pool stream.
/// `u_ready` must be an event recorded on the primary after the U window
/// scatter; every usable non-primary stream is fenced on it first. Bands
/// never alias columns (each owns a disjoint column slice of U and of A),
/// so results are bitwise identical for every pool size and placement.
template <typename T>
BandSection enqueue_update_bands(device::StreamPool& pool,
                                 const device::Event& u_ready,
                                 DistMatrixT<T>& a, const PanelDataT<T>& panel,
                                 T* u_dev, long ldu, long jl0, long njl,
                                 bool in_diag_row, long u_row_off,
                                 long tail_off, BandPlacement placement);

}  // namespace hplx::core
