#pragma once
/// \file rowswap.hpp
/// \brief Distributed row swapping (RS, §II / Fig. 2c).
///
/// The NB pivots chosen during FACT are applied in bulk to a window of
/// trailing columns: the displaced old top-block rows are *scattered* from
/// the diagonal-owning process row to the pivot rows' owners, and the new
/// U rows are assembled on every rank of the process column with an
/// *allgather* — exactly the MPI_Scatterv + MPI_Allgatherv structure the
/// paper describes, with GPU gather/scatter kernels on both sides.
///
/// The phase is split into three stages (gather → communicate → scatter)
/// so the driver can interleave them with UPDATE work per the split-update
/// schedule (Fig. 6): gathers for one section run before the UPDATE of the
/// other section starts, the MPI happens while the device is busy, and the
/// scatter is enqueued behind it.
///
/// There is one transport. Every wire segment (one rank's U rows, one
/// destination's displaced rows) is an nr×njl column-major block packed by
/// device::row_gather and unpacked by device::row_scatter with ld = nr.
/// The U allgatherv is one blocking ring collective; once it returns, each
/// non-empty rank segment is unpacked into U by one row_scatter.
///
/// RowSwapperT is a template over the element type: all staging buffers
/// and wire counts are sized in sizeof(T), so the fp32 (MxP) pipeline's
/// swap traffic is exactly half the fp64 bytes.
/// The *plan* (pure index math) is precision-independent and shared.

#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/config.hpp"
#include "core/matrix.hpp"
#include "device/alloc.hpp"
#include "device/stream.hpp"

namespace hplx::core {

/// Net effect of the NB sequential swaps (rows j+k <-> ipiv[k], k
/// ascending), shared by every process column. Derived once per panel.
struct RowSwapPlan {
  long j = 0;
  int jb = 0;

  /// u_source[k]: original global row whose content becomes U row k.
  std::vector<long> u_source;

  /// (destination slot, original top-block row moving there) for every
  /// displaced row, sorted by destination slot (RowSwapper::prepare packs
  /// in this order). Destinations lie strictly below the top block;
  /// sources are always rows j..j+jb-1, owned by the diagonal process row.
  std::vector<std::pair<long, long>> displaced;
};

/// Build the plan by replaying the swap sequence on flat content arrays
/// (allocation-light: one resize of u_source plus one reserve of
/// displaced, no per-swap node allocations).
RowSwapPlan build_rowswap_plan(long j, int jb, const long* ipiv);

/// In-place variant: rebuilds into `plan`, reusing its vectors' capacity,
/// so the per-iteration plan construction allocates nothing once the
/// first panel has sized them (the driver keeps one plan per pipeline
/// slot and rebuilds it every iteration).
void build_rowswap_plan(long j, int jb, const long* ipiv, RowSwapPlan& plan);

/// Per-call accounting of one communicate(): wall seconds the U assembly
/// spent on the wire, and the device work it enqueued. The two are on
/// different clocks (measured vs modeled) and are never combined.
struct RowSwapStats {
  double wire_s = 0.0;    ///< wall seconds inside the U-assembly collective
  double unpack_s = 0.0;  ///< modeled device seconds of the U unpack kernels
  /// Bytes this window's swap collectives put on the wire (U-assembly
  /// allgatherv total + displaced scatterv). Stays zero on the no-pivot
  /// path — its U replication is a plain panel broadcast charged to comm
  /// time, not row-swap traffic.
  long wire_bytes = 0;
};

/// Per-window workspace + this rank's precomputed index lists. One
/// instance per concurrently in-flight section (look-ahead / left /
/// right in the split update).
template <typename T>
class RowSwapperT {
 public:
  /// Pre-size every workspace for the largest window this swapper will
  /// see (jb <= max_jb, njl <= max_njl, a process column of nprow ranks),
  /// so per-panel prepare() calls neither allocate nor re-zero. The
  /// staging buffers are leased from `arena` (the owning device's host
  /// arena) and held for the swapper's lifetime. Optional: without it
  /// the buffers bind to the process-wide default arena on first use and
  /// grow to their high-water mark (re-leasing through the pool, so the
  /// growth still stops allocating once the inventory is built).
  void reserve(device::PoolAllocator& arena, int max_jb, long max_njl,
               int nprow);

  /// Prepare for applying `plan` to local columns [jl0, jl0+njl) on this
  /// rank, whose grid row coordinate is `myrow`. njl may be 0; the rank
  /// still participates in the collectives.
  void prepare(const RowSwapPlan& plan, const DistMatrixT<T>& a, int myrow,
               long jl0, long njl);

  /// Stage 1: enqueue the device gathers (U source rows this rank owns,
  /// plus displaced top rows if this rank is in the diagonal process row)
  /// and record a completion event right after the last pack enqueue.
  /// communicate() waits on that event — not on the whole stream — so
  /// device work enqueued after the gather (trailing-update bands, other
  /// sections' scatters) never delays this section's communication hop.
  void gather(device::Stream& stream, DistMatrixT<T>& a);

  /// No-pivot mode (HplConfig::pivoting == PivotMode::None): the factored
  /// U *is* the top block — nothing was swapped, nothing is displaced. The
  /// three stages collapse: gather() packs the diagonal row's jb×njl block
  /// (nprow > 1 only), communicate() broadcasts it down the process column
  /// (time charged to *mpi_seconds, not to RowSwapStats — there is no swap
  /// traffic), and scatter() lands it in the U buffer — a single
  /// device-to-device copy when the column has one process row. Call once
  /// before the first prepare().
  void set_pivot_mode(PivotMode mode) { nopiv_ = mode == PivotMode::None; }

  /// Stage 2: communication over the column communicator, gated on the
  /// event gather() recorded (a no-op wait when this rank had nothing to
  /// pack). Adds the time spent inside communication calls to
  /// *mpi_seconds.
  ///
  /// After the U allgatherv returns, the device unpack of each rank's
  /// segment into `u_dev` (jb × njl, ld = ldu >= jb, pivot order) is
  /// enqueued on `stream`. `stream` must be the same stream scatter() is
  /// called with (its fence covers these unpacks). `stats`, when
  /// non-null, receives the wire seconds, modeled unpack seconds and wire
  /// bytes.
  void communicate(comm::Communicator& col_comm, double* mpi_seconds,
                   device::Stream& stream, T* u_dev, long ldu,
                   RowSwapStats* stats = nullptr);

  /// Stage 3: enqueue the device scatter of the displaced rows into A (in
  /// no-pivot mode: land the broadcast top block in `u_dev`). Records a
  /// completion event; the next cycle's prepare() waits on it before it
  /// resizes or lets communicate() rewrite the staging buffers these
  /// kernels — and communicate()'s U unpacks — read (they capture raw
  /// pointers at enqueue time).
  void scatter(device::Stream& stream, DistMatrixT<T>& a, T* u_dev,
               long ldu);

  long jl0() const { return jl0_; }
  long njl() const { return njl_; }
  int jb() const { return jb_; }

 private:
  void do_communicate(comm::Communicator& col_comm, double* mpi_seconds,
                      device::Stream& stream, T* u_dev, long ldu,
                      RowSwapStats* stats);

  long j_ = 0;
  int jb_ = 0;
  long jl0_ = 0;
  long njl_ = 0;
  int myrow_ = 0;
  int nprow_ = 0;
  int diag_root_ = 0;
  bool in_diag_row_ = false;
  bool nopiv_ = false;  ///< no-pivot mode: broadcast-only U replication
  /// The owning device's hazard tracker (null when checking is off);
  /// latched from the stream in gather().
  device::HazardTracker* hz_ = nullptr;
  device::Event gather_done_;   ///< recorded after the last pack enqueue
  bool gather_pending_ = false; ///< a gather was enqueued and not yet waited
  device::Event scatter_done_;   ///< recorded after the last unpack enqueue
  bool scatter_pending_ = false; ///< a scatter is (possibly) still in flight

  /// Bind the staging buffers to their arena (reserve()'s, or the
  /// process-wide default when reserve was never called).
  void ensure_bound();

  // U assembly. The index lists are plain vectors (tiny, pre-reserved);
  // the element staging moved to arena leases so resizes recycle through
  // the pool's freelists instead of the system allocator.
  std::vector<long> my_u_slots_;        ///< local rows of my U sources
  std::vector<long> u_dest_of_packed_;  ///< U row k for each packed position
  std::vector<std::size_t> u_counts_, u_displs_;  ///< allgatherv (bytes)
  device::ArenaBufT<T> my_u_;       ///< my U rows, one nr×njl wire block
  device::ArenaBufT<T> gathered_u_; ///< all jb rows, rank-major wire blocks

  // Displaced rows.
  std::vector<long> disp_src_slots_;   ///< diag row only: local top rows
  std::vector<std::size_t> disp_counts_;
  std::vector<long> my_disp_dest_slots_;  ///< local destination rows
  device::ArenaBufT<T> disp_send_;  ///< diag row: one wire block per rank
  device::ArenaBufT<T> disp_recv_;
};

using RowSwapper = RowSwapperT<double>;

namespace testing {

/// Test-only seam for hazard tests. While an instance lives, every
/// RowSwapper's prepare() still performs the scatter-fence wait (execution
/// stays correct) but through Event::wait_unordered, so the hazard tracker
/// models the fence as absent. This re-introduces, for the checker only,
/// the bug class the fence exists for: rewriting staging buffers that
/// in-flight scatter kernels read. Process-wide, so it reaches the
/// swappers run_hpl builds; never use it outside tests.
class ScopedSkipScatterFence {
 public:
  ScopedSkipScatterFence();
  ~ScopedSkipScatterFence();
  ScopedSkipScatterFence(const ScopedSkipScatterFence&) = delete;
  ScopedSkipScatterFence& operator=(const ScopedSkipScatterFence&) = delete;
};

}  // namespace testing

}  // namespace hplx::core
