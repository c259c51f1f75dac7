#include "core/driver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "blas/isa.hpp"
#include "blas/threading.hpp"
#include "comm/buffer_pool.hpp"
#include "comm/collectives.hpp"
#include "core/backsolve.hpp"
#include "core/matrix.hpp"
#include "core/panel_bcast.hpp"
#include "core/pfact.hpp"
#include "core/refine.hpp"
#include "core/rowswap.hpp"
#include "core/schedule.hpp"
#include "core/update.hpp"
#include "device/alloc.hpp"
#include "device/kernels.hpp"
#include "grid/process_grid.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace hplx::core {

namespace {

constexpr int kTagTrace = 201;
constexpr int kTagHazard = 202;
constexpr int kTagComm = 203;

/// Gather every rank's records onto rank 0, appended after rank 0's own
/// in rank order: one count message, then the payload, per rank, all on
/// `tag`. Rank 0 gets the merged list; every other rank gets its own
/// records back.
template <typename Rec>
std::vector<Rec> gather_to_root(comm::Communicator& world,
                                std::vector<Rec> mine, int tag) {
  if (world.rank() != 0) {
    const long count = static_cast<long>(mine.size());
    world.send(&count, 1, 0, tag);
    if (count > 0) world.send(mine.data(), mine.size(), 0, tag);
    return mine;
  }
  for (int r = 1; r < world.size(); ++r) {
    long c = 0;
    world.recv(&c, 1, r, tag);
    const std::size_t at = mine.size();
    mine.resize(at + static_cast<std::size_t>(c));
    if (c > 0) world.recv(mine.data() + at, static_cast<std::size_t>(c), r, tag);
  }
  return mine;
}

/// Per-iteration phase accumulators (the Fig. 7 timers).
struct IterStats {
  double fact = 0.0;
  double mpi = 0.0;
  RowSwapStats rs;  ///< row-swap wire seconds, unpack seconds, wire bytes
};

/// The whole factorization machine, templated over the working precision.
/// Solver<double> is classic HPL; Solver<float> is the HPL-MxP
/// low-precision pass whose solution run_hpl then polishes with fp64
/// iterative refinement (core/refine.hpp).
template <typename T>
class Solver {
 public:
  Solver(comm::Communicator& world, const HplConfig& cfg)
      : cfg_(cfg),
        grid_(world, cfg.p, cfg.q,
              cfg.row_major_grid ? grid::GridOrder::RowMajor
                                 : grid::GridOrder::ColMajor),
        dev_("gcd" + std::to_string(world.rank()), cfg.hbm_bytes,
             cfg.dev_model, cfg.hazard_check),
        a_(dev_, grid_, cfg.n, cfg.nb, cfg.seed, cfg.nrhs,
           cfg.diag_dominant ? static_cast<double>(cfg.n) : 0.0),
        pool_(dev_, cfg.update_streams, "compute"),
        compute_(pool_.primary()),
        data_(dev_, "data"),
        team_(cfg.fact_threads),
        schedule_(cfg.pipeline, a_.nloc(), cfg.split_fraction, cfg.nb) {
    const std::size_t ucap = static_cast<std::size_t>(cfg.nb) *
                             static_cast<std::size_t>(std::max<long>(a_.nloc(), 1));
    // All swap staging and panel scratch is reserved once at its maximum
    // size here; the per-iteration prepare()/resize() calls then reuse the
    // same allocations instead of reallocating (and re-zeroing) per panel.
    for (int w = 0; w < kSections; ++w) {
      if (w == kRest) continue;
      if (w != kNextRight) u_[w] = dev_.alloc_elems<T>(ucap);
      rs_[w] = &swappers_[w];
      swappers_[w].reserve(dev_.host_arena(), cfg.nb, a_.nloc(), cfg.p);
      swappers_[w].set_pivot_mode(cfg.pivoting);
    }
    w_.reserve(static_cast<std::size_t>(std::max<long>(a_.mloc(), 1)) *
               static_cast<std::size_t>(cfg.nb));
    glob_.reserve(static_cast<std::size_t>(std::max<long>(a_.mloc(), 1)));
    pivots_.resize(
        static_cast<std::size_t>((cfg.n + cfg.nb - 1) / cfg.nb));
    // Keep the per-iteration bookkeeping off the hot path too: pivot rows
    // and trace records grow to known maxima, so size them up front.
    for (auto& p : pivots_) p.reserve(static_cast<std::size_t>(cfg.nb));
    my_records_.reserve(pivots_.size());
    // Buffer-hazard bridge: when both checkers run, collectives declare
    // their payload envelopes to this rank's hazard tracker, so a
    // collective touching a buffer that unfenced device work still uses
    // is caught at the comm layer.
    if (dev_.hazard() != nullptr) {
      for (comm::Communicator* c :
           {&grid_.all_comm(), &grid_.row_comm(), &grid_.col_comm()}) {
        if (comm::Verifier* v = c->fabric().verifier())
          v->set_hazard_tracker(c->rank(), dev_.hazard());
      }
    }
  }

  HplResult solve() {
    HplResult result;
    Timer wall;
    wall.start();

    // One factorization loop for every PipelineMode; the mode picks only
    // the iteration's shape (core/schedule.hpp), which Steps executes.
    {
      PanelDataT<T> panel_a, panel_b;
      panel_a.reserve(cfg_.nb, a_.mloc());
      panel_b.reserve(cfg_.nb, a_.mloc());
      PanelDataT<T>* cur = &panel_a;
      PanelDataT<T>* nxt = &panel_b;

      // Prologue: factor + broadcast panel 0 (exposed, once); under the
      // split update also communicate iteration 0's right-section swap.
      IterStats pro;
      const IterationPlan first = schedule_.plan(geometry(0));
      Steps prologue(*this, first, 0, 0, *cur, *cur, pro);
      run_prologue(prologue, first);
      add_totals(pro);

      int iter = 0;
      for (long j = 0; j < cfg_.n; j += cfg_.nb, ++iter) {
        IterStats st;
        Timer t_iter;
        t_iter.start();
        const double gpu0 = pool_.real_busy_seconds();
        const double xfer0 = data_.real_busy_seconds();
        snapshot_stream_clocks();

        // The look-ahead shapes never block the host here: each joins its
        // banded sections back into the primary stream, so the next
        // iteration's gathers are event-ordered behind this one's update
        // while the host runs ahead.
        const IterationPlan p = schedule_.plan(geometry(j));
        Steps steps(*this, p, j, j + jb_at(j), *cur, *nxt, st);
        run_iteration(steps, p);
        prev_update_ = std::move(steps.updated);
        std::swap(cur, nxt);

        record_iteration(j, iter, t_iter.stop(),
                         pool_.real_busy_seconds() - gpu0, st,
                         data_.real_busy_seconds() - xfer0);
        mark_steady(iter);
      }
      finish_steady(iter);

      // One end-of-factorization drain, before the panel double-buffers
      // go out of scope: the last iteration's bands still read cur->top /
      // cur->l2 through raw pointers captured at enqueue time, and
      // backsolve reads A on the primary stream while the band streams and
      // the data stream's panel write-back are only ordered against the
      // primary queue — not against the host reads below (per-stream
      // clocks, verification).
      pool_.synchronize();
      data_.synchronize();
    }

    // Backsolve U x = b̂ and (optionally) verify against regenerated data.
    double solve_mpi = 0.0;
    x_ = backsolve(grid_, a_, compute_, &solve_mpi);
    mpi_total_ += solve_mpi;

    result.seconds = wall.stop();
    result.gflops =
        trace::hpl_flops(static_cast<double>(cfg_.n)) / result.seconds / 1e9;

    if (cfg_.verify) {
      result.verify =
          verify_solution(grid_, cfg_.n, cfg_.nb, cfg_.seed, x_,
                          /*threshold=*/16.0, cfg_.nrhs, a_.diag_shift());
    }

    result.fact_seconds = fact_total_;
    result.mpi_seconds = mpi_total_;
    result.rs_wire_seconds = rs_wire_total_;
    result.rs_wire_bytes = rs_wire_bytes_total_;
    result.rs_unpack_seconds = rs_unpack_total_;
    result.transfer_seconds = data_.real_busy_seconds();
    result.gpu_seconds = pool_.real_busy_seconds();
    for (int i = 0; i < pool_.size(); ++i) {
      result.stream_busy_seconds.push_back(pool_.stream(i).busy_seconds());
      result.stream_real_seconds.push_back(
          pool_.stream(i).real_busy_seconds());
    }
    collect_trace(result);
    collect_hazards(result);
    collect_alloc(result);
    collect_comm(result);
    return result;
  }

  // What the mixed-precision wrapper (run_hpl's IR loop) needs after the
  // low-precision solve: the factored matrix still in HBM, the replicated
  // pivot history, and the low-precision solution.
  grid::ProcessGrid& grid() { return grid_; }
  DistMatrixT<T>& matrix() { return a_; }
  device::Stream& stream() { return compute_; }
  const std::vector<std::vector<long>>& pivots() const { return pivots_; }
  const std::vector<double>& solution() const { return x_; }
  double* mpi_total() { return &mpi_total_; }

 private:
  // ------------------------------------------------------------- helpers

  long col_of(long g) const { return a_.col_offset(g); }
  long row_of(long g) const { return a_.row_offset(g); }
  int jb_at(long j) const {
    return static_cast<int>(std::min<long>(cfg_.nb, cfg_.n - j));
  }
  bool my_col(long j) const {
    return a_.cols().owner(j) == grid_.mycol();
  }
  bool my_row(long j) const {
    return a_.rows().owner(j) == grid_.myrow();
  }

  /// Every rank sees every panel's pivots (they ride the row broadcast);
  /// keep them for the refinement loop's swap replay.
  void record_pivots(const PanelDataT<T>& panel) {
    pivots_[static_cast<std::size_t>(panel.j / cfg_.nb)].assign(
        panel.ipiv.begin(), panel.ipiv.begin() + panel.jb);
  }

  /// Stage the panel to the host, factor it with the thread team, write
  /// the factors back, and fill `panel` for broadcasting.
  void fact_and_pack(long j, int jb, PanelDataT<T>& panel, IterStats& st) {
    const long ii = row_of(j);
    const long mw = a_.mloc() - ii;
    const long jlp = col_of(j);
    const bool is_curr = my_row(j);
    const long ml2 = mw - (is_curr ? jb : 0);

    glob_.resize(static_cast<std::size_t>(std::max<long>(mw, 1)));
    for (long i = 0; i < mw; ++i)
      glob_[static_cast<std::size_t>(i)] =
          a_.rows().to_global(ii + i, grid_.myrow());

    const long ldw = std::max<long>(mw, 1);
    w_.resize(static_cast<std::size_t>(ldw) * jb);
    if (mw > 0) {
      device::copy_matrix_d2h(data_, mw, jb, a_.at(ii, jlp), a_.lda(),
                              w_.data(), ldw);
    }
    // Unconditional even when mw == 0 (nothing staged): the synchronize is
    // also the ordering edge the guard below relies on — data_'s queue
    // waited on the look-ahead section, and bands read panel.top on every
    // rank with local columns, including row-less ones.
    data_.synchronize();

    // Host rewrite of the recycled panel double-buffer and workspace: the
    // previous iteration's bands read this buffer's top/l2 through raw
    // pointers. The data_ synchronize above is the ordering edge (its
    // queue waited on the look-ahead section, which the primary joined
    // behind everything older), so under the tracker this is silent in a
    // correctly fenced schedule.
    device::HostAccessScope fact_guard(
        dev_.hazard(), "driver.fact",
        {device::span_write(w_.data(), w_.size()),
         device::span_write(panel.top.data(), panel.top.size()),
         device::span_write(panel.l2.data(), panel.l2.size())});

    panel.j = j;
    panel.resize(jb, ml2);
    PanelTaskT<T> task;
    task.j = j;
    task.jb = jb;
    task.w = w_.data();
    task.mw = mw;
    task.ldw = ldw;
    task.glob = glob_.data();
    task.top = panel.top.data();
    task.ldtop = jb;
    task.ipiv = panel.ipiv.data();
    task.is_curr = is_curr;
    task.tile_rows = cfg_.nb;
    // col_comm ranks are process rows, so the diagonal block's owner row
    // is its broadcast root for the no-pivot factorization.
    task.diag_root = a_.rows().owner(j);
    task.scratch = &dev_.host_arena();

    FactTimers ft;
    panel_factorize(grid_.col_comm(), cfg_, team_, task, &ft);
    st.fact += ft.compute_s;
    st.mpi += ft.comm_s;

    // Write the factors back: L2 rows below the top block, and (on the
    // diagonal row) the factored top block itself.
    const long l2_start = is_curr ? jb : 0;
    if (ml2 > 0) {
      device::copy_matrix_h2d(data_, ml2, jb, w_.data() + l2_start, ldw,
                              a_.at(ii + l2_start, jlp), a_.lda());
    }
    if (is_curr) {
      device::copy_matrix_h2d(data_, jb, jb, panel.top.data(), jb,
                              a_.at(ii, jlp), a_.lda());
    }
    data_.synchronize();

    // Pack L2 for the row broadcast (ld mw -> ld ml2). ml2 can be zero on
    // ranks that own no rows below the panel (e.g. a one-panel problem on a
    // taller grid) — an empty l2 has a null data(), so skip the pack.
    for (int c = 0; ml2 > 0 && c < jb; ++c) {
      std::memcpy(panel.l2.data() + static_cast<std::size_t>(c) * ml2,
                  w_.data() + l2_start + static_cast<std::size_t>(c) * ldw,
                  static_cast<std::size_t>(ml2) * sizeof(T));
    }
  }

  /// Prepare `panel` on every rank for column `j`, then broadcast it along
  /// the row. The owning column factors it once the data stream is ordered
  /// behind `written`, the update bands that wrote its columns. Elsewhere
  /// the panel double-buffer is reused right away; the previous
  /// iteration's bands may still be reading it on spare streams, so they
  /// are fenced before the broadcast writes into it.
  void make_panel(long j, PanelDataT<T>& panel, const BandSection& written,
                  IterStats& st) {
    const int jb = jb_at(j);
    if (my_col(j)) {
      for (const device::Event& ev : written.done) data_.wait_event(ev);
      fact_and_pack(j, jb, panel, st);
    } else {
      prev_update_.host_wait();
      device::HostAccessScope recv_guard(
          dev_.hazard(), "driver.panel_recv",
          {device::span_write(panel.top.data(), panel.top.size()),
           device::span_write(panel.l2.data(), panel.l2.size())});
      panel.j = j;
      panel.resize(jb, a_.mloc() - row_of(j + jb));
    }
    panel_broadcast(grid_.row_comm(), cfg_.bcast, a_.cols().owner(j), panel,
                    &st.mpi, &cfg_.custom_bcast);
    record_pivots(panel);
  }

  /// Latch every pool stream's busy clocks at iteration start so
  /// record_iteration can attribute per-stream deltas. The clocks advance
  /// as ops *complete*, so with overlap enabled an op may be charged to
  /// the iteration that drained it rather than the one that enqueued it —
  /// the whole-run sums are exact either way.
  void snapshot_stream_clocks() {
    for (int i = 0; i < pool_.size(); ++i) {
      busy0_[i] = pool_.stream(i).busy_seconds();
      real0_[i] = pool_.stream(i).real_busy_seconds();
    }
  }

  /// Fold one span of work's phase stats into the whole-run totals.
  void add_totals(const IterStats& st) {
    fact_total_ += st.fact;
    mpi_total_ += st.mpi;
    rs_wire_total_ += st.rs.wire_s;
    rs_unpack_total_ += st.rs.unpack_s;
    rs_wire_bytes_total_ += st.rs.wire_bytes;
  }

  void record_iteration(long j, int iter, double total, double gpu,
                        const IterStats& st, double transfer) {
    add_totals(st);
    if (my_col(j) && my_row(j)) {
      trace::IterationRecord rec;
      rec.iteration = iter;
      rec.column = j;
      rec.total_s = total;
      rec.gpu_s = gpu;
      rec.fact_s = st.fact;
      rec.mpi_s = st.mpi;
      rec.transfer_s = transfer;
      rec.rs_wire_s = st.rs.wire_s;
      rec.rs_unpack_s = st.rs.unpack_s;
      rec.update_streams = pool_.size();
      for (int i = 0; i < pool_.size(); ++i) {
        rec.stream_busy_s[i] = pool_.stream(i).busy_seconds() - busy0_[i];
        rec.stream_real_s[i] =
            pool_.stream(i).real_busy_seconds() - real0_[i];
      }
      my_records_.push_back(rec);
    }
  }

  // ------------------------------------------- steady-state alloc window

  /// Warmup iterations before the zero-allocation window opens. Iteration
  /// 0 builds the pools' freelist inventories (every lease is fresh);
  /// iteration 1 absorbs cross-rank skew — the upstream counter is
  /// process-wide, and a neighbor still finishing its own warmup while
  /// this rank starts iteration 1 must not be charged to the window. On
  /// a grid, roles rotate: panel ownership cycles through the q process
  /// columns and pivot-row ownership through the p rows, so a rank's
  /// *first* factorization (and its first-touch scratch leases) can come
  /// as late as iteration max(p, q) - 1 — steady state begins only once
  /// every rank has played every role it will play.
  int alloc_warmup_iters() const {
    return std::max({2, cfg_.p, cfg_.q});
  }

  /// Freelist depth the comm pool is stocked to when the steady window
  /// opens: enough for every rank of the process plus overlapped
  /// next-panel swaps to hold same-class blocks concurrently.
  static constexpr int kPrewarmBlocks = 8;

  /// Every distinct pool this rank's solve leases from: device HBM, host
  /// arena, and the message pool of each fabric the grid's communicators
  /// ride on. The row/col split communicators own their own fabric (and
  /// pool) — the rowswap and panel-broadcast traffic flows there, not
  /// through all_comm's fabric, so accounting only the latter would miss
  /// most of the message leases. Shared fabrics are deduplicated by
  /// allocator address.
  std::vector<device::PoolAllocator*> rank_pools() {
    std::vector<device::PoolAllocator*> pools = {&dev_.hbm_pool(),
                                                 &dev_.host_arena()};
    for (comm::Communicator* c :
         {&grid_.all_comm(), &grid_.row_comm(), &grid_.col_comm()}) {
      device::PoolAllocator* a = &c->fabric().pool().allocator();
      if (std::find(pools.begin(), pools.end(), a) == pools.end())
        pools.push_back(a);
    }
    return pools;
  }

  /// Acquires + freelist hits summed over every pool in rank_pools().
  void sample_pool_counters(std::uint64_t& acquires, std::uint64_t& hits) {
    for (const device::PoolAllocator* p : rank_pools()) {
      const device::PoolAllocator::Stats s = p->stats();
      acquires += s.acquires;
      hits += s.hits + s.borrows;
    }
  }

  /// Latch the counters once the warmup iterations are done (called at
  /// the bottom of every factorization-loop iteration).
  void mark_steady(int iter) {
    if (steady_marked_ || iter + 1 < alloc_warmup_iters()) return;
    steady_marked_ = true;
    // Comm message sizes are not deterministic per iteration: a rank's
    // rowswap contribution scales with how many pivot rows it happens to
    // own, which is not monotone in the iteration — a class can see its
    // first request mid-run, above or below anything warmup touched,
    // while every nearby larger block is in flight in the same
    // collective (borrowing can't save that one). Stock every class up
    // to the largest message the remaining iterations can send, on every
    // fabric this rank touches, while the fills still count as warmup.
    // Device and arena pools are skipped: their lease sizes are
    // deterministic max-extent functions of the iteration, so warmup
    // already covers them. The row and world fabrics need no floor
    // either: their largest messages, the panel broadcasts, shrink with
    // the trailing matrix, so warmup saw their top class. The row swap's
    // messages ride the column fabric, one whole U segment or displaced
    // block each: at most nb rows of at most nloc columns, and none at all
    // when the process column has a single row.
    const std::size_t swap_bound =
        grid_.col_comm().size() > 1
            ? static_cast<std::size_t>(cfg_.nb) *
                  static_cast<std::size_t>(a_.nloc()) * sizeof(T)
            : 0;
    for (comm::Communicator* c :
         {&grid_.all_comm(), &grid_.row_comm(), &grid_.col_comm()}) {
      c->fabric().pool().allocator().prewarm(
          kPrewarmBlocks, c == &grid_.col_comm() ? swap_bound : 0);
    }
    // The upstream counter is process-wide, so the window must open after
    // *every* rank's warmup: without the barrier a slow rank's last
    // warmup allocation would land inside a fast rank's window. The
    // barrier also warms the small-message class its twin in
    // finish_steady reuses.
    comm::barrier(grid_.all_comm());
    steady_upstream0_ = device::upstream_alloc_count();
    sample_pool_counters(steady_acquires0_, steady_hits0_);
    if (std::getenv("HPLX_ALLOC_DEBUG") != nullptr) {
      std::fprintf(stderr, "STEADY MARK rank=%d after #%llu\n",
                   grid_.all_comm().rank(),
                   static_cast<unsigned long long>(steady_upstream0_));
    }
  }

  /// Read the steady-window deltas at the end of the factorization loop —
  /// before backsolve/refinement, whose first-call arena leases are
  /// legitimate one-time allocations outside the window.
  void finish_steady(int iters_total) {
    if (!steady_marked_ || iters_total <= alloc_warmup_iters()) return;
    steady_measured_ = true;
    // Mirror of mark_steady's fence: read first (backsolve has not
    // started anywhere — it needs this barrier to pass), then hold every
    // rank until all have read, so no rank's post-loop leases land in a
    // slower rank's window. The barrier's messages hit the small-message
    // freelist the mark-side barrier warmed.
    steady_upstream_delta_ =
        device::upstream_alloc_count() - steady_upstream0_;
    if (std::getenv("HPLX_ALLOC_DEBUG") != nullptr) {
      std::fprintf(stderr, "STEADY CLOSE rank=%d at #%llu delta=%llu\n",
                   grid_.all_comm().rank(),
                   static_cast<unsigned long long>(steady_upstream0_ +
                                                  steady_upstream_delta_),
                   static_cast<unsigned long long>(steady_upstream_delta_));
    }
    comm::barrier(grid_.all_comm());
    std::uint64_t acquires = 0, hits = 0;
    sample_pool_counters(acquires, hits);
    const std::uint64_t dacq = acquires - steady_acquires0_;
    const std::uint64_t dhit = hits - steady_hits0_;
    steady_hit_rate_ = dacq == 0 ? 1.0
                                 : static_cast<double>(dhit) /
                                       static_cast<double>(dacq);
  }

  /// Fill HplResult::alloc: reduce the steady-window scalars so every
  /// rank reports the same (worst-rank) values, then copy the per-pool
  /// lifetime rows.
  void collect_alloc(HplResult& result) {
    result.alloc.steady_measured = steady_measured_;
    std::uint64_t worst_upstream = steady_upstream_delta_;
    double worst_hit_rate = steady_measured_ ? steady_hit_rate_ : 1.0;
    comm::allreduce(grid_.all_comm(), &worst_upstream, 1,
                    comm::ReduceOp::Max);
    comm::allreduce(grid_.all_comm(), &worst_hit_rate, 1,
                    comm::ReduceOp::Min);
    result.alloc.steady_upstream_allocs = worst_upstream;
    result.alloc.steady_hit_rate = worst_hit_rate;
    for (const device::PoolAllocator* p : rank_pools()) {
      const device::PoolAllocator::Stats s = p->stats();
      AllocPoolReport row;
      row.name = p->name();
      row.acquires = s.acquires;
      row.hits = s.hits + s.borrows;
      row.oversize = s.oversize;
      row.upstream_allocs = s.upstream_allocs;
      row.hwm_bytes = s.hwm_bytes;
      row.cached_bytes = s.cached_bytes;
      row.outstanding_bytes = s.outstanding_bytes;
      row.hit_rate = s.hit_rate();
      row.fragmentation = s.fragmentation();
      result.alloc.pools.push_back(std::move(row));
    }
  }

  // ---------------------------------------------------- iteration shapes

  /// Where iteration `j` sits in this rank's local columns.
  IterationGeometry geometry(long j) const {
    const long next = j + jb_at(j);
    IterationGeometry g;
    g.first = j == 0;
    g.panel_col = col_of(j);
    g.jl0 = col_of(next);
    g.has_next = next < cfg_.n;
    g.next_cols = g.has_next ? col_of(next + jb_at(next)) - g.jl0 : 0;
    g.nloc = a_.nloc();
    return g;
  }

  /// The driver's engine for the shared iteration schedule: each step
  /// enqueues iteration `j`'s real work. Updates read panel `cur`;
  /// make_panel fills `nxt` with panel `next`.
  class Steps {
   public:
    using Event = device::Event;
    using Done = BandSection;

    Steps(Solver& s, const IterationPlan& p, long j, long next,
          PanelDataT<T>& cur, PanelDataT<T>& nxt, IterStats& st)
        : s_(s), p_(p), j_(j), next_(next), cur_(cur), nxt_(nxt), st_(st) {}

    int streams() const { return s_.pool_.size(); }

    /// Plans the swaps first: the next right window's are panel j+1's, the
    /// left window reuses the look-ahead band's plan of panel j.
    void gather(Section w) {
      const bool next = w == Section::NextRight;
      RowSwapPlan& plan = next ? s_.plan_next_ : s_.plan_;
      if (next)
        build_rowswap_plan(next_, s_.jb_at(next_), nxt_.ipiv.data(), plan);
      else if (w != Section::Left)
        build_rowswap_plan(j_, s_.jb_at(j_), cur_.ipiv.data(), plan);
      rs(w).prepare(plan, s_.a_, s_.grid_.myrow(), p_[w].start, p_[w].count);
      rs(w).gather(s_.compute_, s_.a_);
    }

    /// Once communicated, the next right swap is the right swap.
    void communicate(Section w) {
      rs(w).communicate(s_.grid_.col_comm(), &st_.mpi, s_.compute_, u(w),
                        s_.cfg_.nb, &st_.rs);
      if (w == Section::NextRight) std::swap(s_.rs_[kRight], s_.rs_[kNextRight]);
    }

    void scatter(Section w) {
      HPLX_CHECK(rs(w).jl0() == p_[w].start);
      rs(w).scatter(s_.compute_, s_.a_, u(w), s_.cfg_.nb);
    }

    Event record() { return s_.compute_.record(); }

    Done update(Section w, BandPlacement placement, const Event& ready) {
      const Section src = p_.u_of(w);
      const Cols c = p_[w];
      Done d = enqueue_update_bands(
          s_.pool_, ready, s_.a_, cur_,
          u(src) + (c.start - p_[src].start) * s_.cfg_.nb, s_.cfg_.nb,
          c.start, c.count, s_.my_row(j_), s_.row_of(j_), s_.row_of(next_),
          placement);
      updated.done.insert(updated.done.end(), d.done.begin(), d.done.end());
      return d;
    }

    void make_panel(const Done& written) {
      s_.make_panel(next_, nxt_, written, st_);
    }
    void join(const Done& d) { d.join(s_.compute_); }
    void drain() { s_.pool_.synchronize(); }

    /// Every section this iteration updated: the fence non-owner ranks
    /// take before the next iteration recycles the panel double-buffer.
    BandSection updated;

   private:
    RowSwapperT<T>& rs(Section w) { return *s_.rs_[static_cast<int>(w)]; }
    /// Both right swaps assemble into one U buffer: the next one's unpacks
    /// are enqueued after UPDATE2's join, behind this iteration's reads.
    T* u(Section w) {
      const int i = w == Section::NextRight ? kRight : static_cast<int>(w);
      return s_.u_[i].template data_as<T>();
    }

    Solver& s_;
    const IterationPlan& p_;
    long j_;
    long next_;
    PanelDataT<T>& cur_;
    PanelDataT<T>& nxt_;
    IterStats& st_;
  };

  // --------------------------------------------------------------- trace

  void collect_trace(HplResult& result) {
    std::vector<trace::IterationRecord> all =
        gather_to_root(grid_.all_comm(), my_records_, kTagTrace);
    if (grid_.all_comm().rank() != 0) return;
    std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
      return x.iteration < y.iteration;
    });
    result.trace.iterations = std::move(all);
  }

  /// Gather every rank's deduplicated hazard records onto rank 0. No-op
  /// when checking is off.
  void collect_hazards(HplResult& result) {
    device::HazardTracker* hz = dev_.hazard();
    if (hz == nullptr) return;
    result.hazard_checked = true;
    result.hazards = gather_to_root(grid_.all_comm(), hz->report(), kTagHazard);
  }

  /// Gather every grid fabric's deduplicated comm-verifier records onto
  /// rank 0 (through gather_to_root). The double-barrier protocol
  /// makes the end-of-run orphan audit exact: after the first barrier all
  /// solve traffic is consumed (entering the barrier implies every prior
  /// receive finished, so anything still queued is a leak), and each
  /// fabric's rank 0 audits it; the second barrier holds ranks back until
  /// every audit is done, so the gather's own messages cannot be mistaken
  /// for orphans. The world fabric the grid split from is appended by
  /// run_hpl — its verifier outlives this solver.
  void collect_comm(HplResult& result) {
    comm::Communicator& world = grid_.all_comm();
    if (world.fabric().verifier() == nullptr) return;
    result.comm_checked = true;
    comm::barrier(world);
    std::vector<trace::DiagnosticRecord> mine;
    std::vector<const comm::Fabric*> audited;
    for (comm::Communicator* c :
         {&grid_.all_comm(), &grid_.row_comm(), &grid_.col_comm()}) {
      if (c->rank() != 0) continue;
      const comm::Fabric* f = &c->fabric();
      if (std::find(audited.begin(), audited.end(), f) != audited.end())
        continue;
      audited.push_back(f);
      comm::Verifier* v = c->fabric().verifier();
      if (v == nullptr) continue;
      v->check_orphans();
      const auto recs = v->report();
      mine.insert(mine.end(), recs.begin(), recs.end());
    }
    comm::barrier(world);
    result.comm_violations = gather_to_root(world, std::move(mine), kTagComm);
  }

  const HplConfig& cfg_;
  grid::ProcessGrid grid_;
  device::Device dev_;
  DistMatrixT<T> a_;
  /// Trailing-update stream pool; pool_.primary() carries the row-swap
  /// gather/scatter chain and U assembly (the legacy "compute" stream),
  /// the others receive fanned-out update bands.
  device::StreamPool pool_;
  device::Stream& compute_;  ///< alias: pool_.primary()
  device::Stream data_;
  ThreadTeam team_;

  static constexpr int kRest = static_cast<int>(Section::Rest);
  static constexpr int kRight = static_cast<int>(Section::Right);
  static constexpr int kNextRight = static_cast<int>(Section::NextRight);
  /// Per swap window (indexed by Section; Rest swaps nothing): its U
  /// buffer and its swapper. The right and next-right swappers trade
  /// places every Fig. 6 iteration.
  device::Buffer u_[kSections];
  RowSwapperT<T> swappers_[kSections];
  RowSwapperT<T>* rs_[kSections] = {};
  /// Per-iteration row-swap plans, rebuilt in place (capacity persists
  /// across iterations, so planning allocates nothing once warm).
  RowSwapPlan plan_, plan_next_;
  IterationSchedule schedule_;
  /// Completion events of the previous iteration's update sections: the
  /// fence non-owner ranks take before recycling the panel double-buffer.
  BandSection prev_update_;

  std::vector<T> w_;
  std::vector<long> glob_;
  std::vector<std::vector<long>> pivots_;  ///< per-panel global pivot rows
  std::vector<double> x_;                  ///< backsolve solution (fp64)
  std::vector<trace::IterationRecord> my_records_;
  double fact_total_ = 0.0;
  double mpi_total_ = 0.0;
  double rs_wire_total_ = 0.0;
  double rs_unpack_total_ = 0.0;
  long rs_wire_bytes_total_ = 0;
  double busy0_[trace::kMaxUpdateStreams] = {};
  double real0_[trace::kMaxUpdateStreams] = {};

  // Steady-window allocation accounting (mark_steady / finish_steady).
  bool steady_marked_ = false;
  bool steady_measured_ = false;
  std::uint64_t steady_upstream0_ = 0;
  std::uint64_t steady_acquires0_ = 0;
  std::uint64_t steady_hits0_ = 0;
  std::uint64_t steady_upstream_delta_ = 0;
  double steady_hit_rate_ = 1.0;
};

/// Mixed-precision run: low-precision factorization + backsolve, fp64
/// iterative refinement, fp64 re-run as the correctness safety net. The
/// reported wall time covers everything the mode actually executed (HPL-MxP
/// style: fp64-equivalent flops over the mixed-precision time).
HplResult run_mxp(comm::Communicator& world, const HplConfig& cfg) {
  HplConfig lp = cfg;
  lp.verify = false;  // verification happens on the *refined* solution

  Timer wall;
  wall.start();
  int attempt_iters = 0;
  {
    Solver<float> solver(world, lp);
    HplResult result = solver.solve();
    RefineResult rr = iterative_refine(
        solver.grid(), solver.matrix(), solver.stream(), solver.pivots(),
        solver.solution(), cfg.ir_max_iters, cfg.ir_tol,
        &result.mpi_seconds);
    result.ir_iters = rr.iters;
    if (rr.converged) {
      result.seconds = wall.stop();
      result.gflops = trace::hpl_flops(static_cast<double>(cfg.n)) /
                      result.seconds / 1e9;
      if (cfg.verify) {
        result.verify = verify_solution(solver.grid(), cfg.n, cfg.nb,
                                        cfg.seed, rr.x, /*threshold=*/16.0,
                                        cfg.nrhs,
                                        solver.matrix().diag_shift());
      }
      return result;
    }
    attempt_iters = rr.iters;
  }

  // Refinement stalled or diverged: redo the whole thing in fp64. The
  // failed low-precision attempt stays on the clock.
  HplConfig full = cfg;
  full.precision = PrecisionMode::FP64;
  Solver<double> solver(world, full);
  HplResult result = solver.solve();
  result.ir_iters = attempt_iters;
  result.ir_fallback = true;
  result.seconds = wall.stop();
  result.gflops =
      trace::hpl_flops(static_cast<double>(cfg.n)) / result.seconds / 1e9;
  return result;
}

}  // namespace

void validate_config(const HplConfig& cfg) {
  HPLX_CHECK(cfg.n >= 1 && cfg.nb >= 1 && cfg.nrhs >= 1);
  // The split geometry casts nloc * (1 - split_fraction) to an integer,
  // which is undefined for NaN.
  HPLX_CHECK_MSG(std::isfinite(cfg.split_fraction) &&
                     cfg.split_fraction >= 0.0 && cfg.split_fraction <= 1.0,
                 "split_fraction must be in [0, 1], got "
                     << cfg.split_fraction);
  HPLX_CHECK_MSG(cfg.update_streams >= 1 &&
                     cfg.update_streams <= trace::kMaxUpdateStreams,
                 "update_streams must be in [1, " << trace::kMaxUpdateStreams
                     << "], got " << cfg.update_streams);
  HPLX_CHECK_MSG(cfg.fact_threads >= 1,
                 "fact_threads must be >= 1, got " << cfg.fact_threads);
  HPLX_CHECK_MSG(cfg.rfact_nbmin >= 1,
                 "rfact_nbmin must be >= 1, got " << cfg.rfact_nbmin);
  HPLX_CHECK_MSG(cfg.rfact_ndiv >= 2,
                 "rfact_ndiv must be >= 2, got " << cfg.rfact_ndiv);
  HPLX_CHECK_MSG(cfg.blas_threads >= 0,
                 "blas_threads must be >= 0, got " << cfg.blas_threads);
  HPLX_CHECK_MSG(cfg.ir_max_iters >= 0,
                 "ir_max_iters must be >= 0, got " << cfg.ir_max_iters);
  HPLX_CHECK_MSG(std::isfinite(cfg.ir_tol) && cfg.ir_tol > 0.0,
                 "ir_tol must be finite and > 0, got " << cfg.ir_tol);
  // mxp16-sim only re-prices the fp32 schedule, which the simulator does.
  HPLX_CHECK_MSG(cfg.precision != PrecisionMode::MXP16Sim,
                 "precision must be fp64 or mxp32 (mxp16-sim is "
                 "simulator-only: sim::ClusterConfig), got "
                     << to_string(cfg.precision));
}

HplResult run_hpl(comm::Communicator& world, const HplConfig& cfg) {
  // Checked before any rank communicates, so a bad config throws on every
  // rank instead of leaving some of them waiting in a collective.
  HPLX_CHECK_MSG(world.size() == cfg.p * cfg.q,
                 "run_hpl needs " << cfg.p * cfg.q << " ranks, got "
                 << world.size());
  validate_config(cfg);
  // The multi-RHS solve (backsolve, verify, refine) assumes every RHS
  // column shares the trailing column block with classic column N, so one
  // process column owns the whole b̂ panel contiguously.
  HPLX_CHECK_MSG(cfg.n / cfg.nb ==
                     (cfg.n + static_cast<long>(cfg.nrhs) - 1) / cfg.nb,
                 "nrhs = " << cfg.nrhs << " spills past the trailing column "
                 "block (n = " << cfg.n << ", nb = " << cfg.nb << ")");
  // Communication verifier: enabled on the world fabric here, before any
  // split — Communicator::split propagates enablement to every child
  // fabric (row, column, dup), so the whole comm tree of the run is
  // checked. Idempotent; every rank calls it.
  if (cfg.comm_check || comm::comm_check_env_enabled())
    world.fabric().enable_verifier(comm::Verifier::Config::from_env());
  // The BLAS team is process-global; set_num_threads is a no-op when the
  // team already has the requested size.
  if (cfg.blas_threads > 0) blas::set_num_threads(cfg.blas_threads);
  HplResult result;
  if (cfg.precision != PrecisionMode::FP64) {
    result = run_mxp(world, cfg);
  } else {
    Solver<double> solver(world, cfg);
    result = solver.solve();
  }
  result.blas = blas::describe(blas::active_level3_copy());
  // Append the world fabric's own verifier records (mismatched splits,
  // stray world traffic) — the grid fabrics were collected inside
  // solve(), but the world fabric outlives the solver. No orphan audit
  // here: the caller may legitimately keep world traffic in flight
  // around the solve; ~Fabric audits at end of life.
  if (comm::Verifier* wv = world.fabric().verifier()) {
    result.comm_checked = true;
    if (world.rank() == 0) {
      const auto recs = wv->report();
      result.comm_violations.insert(result.comm_violations.end(),
                                    recs.begin(), recs.end());
    }
  }
  return result;
}

}  // namespace hplx::core
