#include "sim/hpl_sim.hpp"

#include <algorithm>
#include <cmath>

#include "grid/block_cyclic.hpp"
#include "util/error.hpp"

namespace hplx::sim {

namespace {

/// Per-iteration phase durations and the Fig. 3 / Fig. 6 composition.
class IterationModel {
 public:
  IterationModel(const NodeModel& node, const ClusterConfig& cfg)
      : node_(node), cfg_(cfg), fact_(node.cpu) {
    // A process column spans P/p_node nodes; communication inside it rides
    // the NIC as soon as that exceeds one node. Same for process rows.
    col_inter_ = cfg_.p > cfg_.p_node;
    row_inter_ = cfg_.q > cfg_.q_node;
    // Element width on the wire / in HBM, and the billing precision of
    // device kernels. mxp16-sim moves fp32 bytes but bills fp16 rates.
    eb_ = cfg_.precision == core::PrecisionMode::FP64 ? 8.0 : 4.0;
    prec_ = cfg_.precision == core::PrecisionMode::FP64
                ? device::Precision::FP64
                : (cfg_.precision == core::PrecisionMode::MXP32
                       ? device::Precision::FP32
                       : device::Precision::FP16);
  }

  // --------------------------------------------------- phase primitives

  /// Trailing DGEMM + DTRSM on `cols` local columns with `m` local
  /// trailing rows.
  double update_seconds(double m, double cols) const {
    if (m <= 0 || cols <= 0) return 0.0;
    return (1.0 + node_.gpu_sync_overhead) *
           (node_.gcd.gemm_seconds(static_cast<long>(m),
                                   static_cast<long>(cols), cfg_.nb, prec_) +
            node_.gcd.trsm_seconds(cfg_.nb, static_cast<long>(cols), prec_));
  }

  /// Device-side gather or scatter kernels for a row-swap window.
  double rs_device_seconds(double cols) const {
    if (cols <= 0) return 0.0;
    return node_.gcd.rowswap_seconds(cfg_.nb, static_cast<long>(cols),
                                     static_cast<std::size_t>(eb_));
  }

  /// MPI time of the row-swap (ring allgatherv of U + scatterv of
  /// displaced rows) over the process column, for `cols` local columns:
  /// each leg pays P-1 latency hops and moves its bytes once.
  double rs_comm_seconds(double cols) const {
    if (cols <= 0 || cfg_.p == 1) return 0.0;
    const double bw =
        (col_inter_ ? node_.net.inter_bw_gbs : node_.net.intra_bw_gbs) * 1e9;
    const double lat =
        col_inter_ ? node_.net.inter_lat_s : node_.net.intra_lat_s;
    const double ubytes = static_cast<double>(cfg_.nb) * cols * eb_;
    const double frac = static_cast<double>(cfg_.p - 1) / cfg_.p;
    const double leg = (cfg_.p - 1) * lat + ubytes * frac / bw;
    return 2.0 * leg;
  }

  /// FACT on the CPU: compute + the per-column pivot collectives.
  double fact_compute_seconds(double m) const {
    if (m < cfg_.nb) m = cfg_.nb;
    return fact_.seconds(static_cast<long>(m), cfg_.nb, cfg_.fact_threads,
                         static_cast<std::size_t>(eb_));
  }

  double fact_comm_seconds() const {
    if (cfg_.p == 1) return 0.0;
    const double lat =
        col_inter_ ? node_.net.inter_lat_s : node_.net.intra_lat_s;
    const double bw =
        (col_inter_ ? node_.net.inter_bw_gbs : node_.net.intra_bw_gbs) * 1e9;
    const double hops = 2.0 * std::ceil(std::log2(cfg_.p));
    // Pivot slots stay 8 bytes in every precision mode (index + value
    // pairs, matching the real wire format).
    const double msg = 2.0 * cfg_.nb * 8.0 + 24.0;
    return cfg_.nb * hops * (lat + msg / bw);
  }

  /// Host<->device staging of the panel (both directions).
  double transfer_seconds(double m) const {
    const double bytes = m * cfg_.nb * eb_;
    return 2.0 * node_.gcd.hcopy_seconds(static_cast<std::size_t>(bytes));
  }

  /// LBCAST along the process row (modified-ring first hop: the critical
  /// consumer is the look-ahead neighbour).
  double lbcast_seconds(double m_tail) const {
    if (cfg_.q == 1) return 0.0;
    const double bw =
        (row_inter_ ? node_.net.inter_bw_gbs : node_.net.intra_bw_gbs) * 1e9;
    const double lat =
        row_inter_ ? node_.net.inter_lat_s : node_.net.intra_lat_s;
    const double bytes =
        (static_cast<double>(cfg_.nb) * cfg_.nb + m_tail * cfg_.nb +
         cfg_.nb) * eb_;
    return lat + bytes / bw;
  }

 private:
  const NodeModel& node_;
  const ClusterConfig& cfg_;
  FactModel fact_;
  bool col_inter_ = false;
  bool row_inter_ = false;
  double eb_ = 8.0;
  device::Precision prec_ = device::Precision::FP64;
};

/// Lanes of the modeled timeline, in TimelineEvent::lane spelling.
constexpr const char* kGpu = "GPU";
constexpr const char* kCpu = "CPU";
constexpr const char* kMpi = "MPI";
constexpr const char* kXfer = "XFER";

/// One iteration's modeled schedule, laid down bar by bar. Each drawn bar
/// folds into the record as it is placed: the MPI, CPU and XFER lanes sum
/// into mpi_s, fact_s and transfer_s, the GPU lane into gpu_s, and
/// total_s is max(span, gpu_s). The record is thereby the fold of its own
/// timeline.
class Schedule {
 public:
  explicit Schedule(std::vector<TimelineEvent>* events) : events_(events) {}

  /// Place a `dur`-second bar on `lane` at `start`. Returns the bar's
  /// end; empty bars are not drawn.
  double bar(const char* lane, const char* label, double start, double dur) {
    const double end = start + dur;
    if (end <= start) return end;
    span_ = std::max(span_, end);
    if (lane == kGpu) rec_.gpu_s += dur;
    if (lane == kCpu) rec_.fact_s += dur;
    if (lane == kMpi) rec_.mpi_s += dur;
    if (lane == kXfer) rec_.transfer_s += dur;
    if (events_ != nullptr)
      events_->push_back(TimelineEvent{lane, label, start, end});
    return end;
  }

  trace::IterationRecord record() const {
    trace::IterationRecord rec = rec_;
    rec.total_s = std::max(span_, rec.gpu_s);
    return rec;
  }

 private:
  std::vector<TimelineEvent>* events_;
  trace::IterationRecord rec_;
  double span_ = 0.0;
};

/// The one composition of each pipeline shape. Prices iteration `iter`'s
/// geometry and durations, lays its bars on a Schedule and returns the
/// folded record; `events`, when non-null, receives the bars.
trace::IterationRecord build_iteration(const IterationModel& m,
                                       const ClusterConfig& cfg, int iter,
                                       std::vector<TimelineEvent>* events) {
  const double nb = cfg.nb;
  const long j = static_cast<long>(iter) * cfg.nb;
  HPLX_CHECK(j >= 0 && j < cfg.n);

  // Exact block-cyclic geometry of the rank recording this iteration —
  // the diagonal-panel owner, as in the paper's Fig. 7 instrumentation.
  // Its local row/column counts vary iteration to iteration, which is
  // what gives the published curves their jagged texture.
  const double jb = std::min<double>(nb, static_cast<double>(cfg.n - j));
  const int prow = grid::indxg2p(j, cfg.nb, cfg.p);
  const int pcol = grid::indxg2p(j, cfg.nb, cfg.q);
  const double m_panel = static_cast<double>(
      grid::numroc(cfg.n, cfg.nb, prow, cfg.p) -
      grid::numroc(j, cfg.nb, prow, cfg.p));             // FACT rows
  const double m_tail = static_cast<double>(
      grid::numroc(cfg.n, cfg.nb, prow, cfg.p) -
      grid::numroc(j + static_cast<long>(jb), cfg.nb, prow, cfg.p));
  const double nloc = static_cast<double>(
      grid::numroc(cfg.n + 1, cfg.nb, pcol, cfg.q) -
      grid::numroc(j + static_cast<long>(jb), cfg.nb, pcol, cfg.q));
  const double la = std::min(nloc, jb);                  // look-ahead cols

  // Fixed split geometry (local columns per rank): the right section's
  // width n2, and what remains of the left section this iteration.
  const double nloc0 = static_cast<double>(cfg.n + 1) / cfg.q;
  const double n2 =
      cfg.pipeline == core::PipelineMode::LookaheadSplit
          ? std::floor(nloc0 * cfg.split_fraction / nb) * nb
          : 0.0;
  const double left = std::max(0.0, nloc - la - n2);

  // The host chain: stage a panel of `rows` local rows down, factor it,
  // stage it back up and broadcast it along the row with its `tail` rows
  // below the diagonal block. Returns when LBCAST ends.
  auto host_chain = [&](Schedule& s, double t, double rows, double tail) {
    const double xfer = m.transfer_seconds(rows) / 2.0;  // each way
    t = s.bar(kXfer, "panel D2H", t, xfer);
    t = s.bar(kCpu, "FACT", t, m.fact_compute_seconds(rows));
    t = s.bar(kMpi, "FACT pivots", t, m.fact_comm_seconds());
    t = s.bar(kXfer, "panel H2D", t, xfer);
    return s.bar(kMpi, "LBCAST", t, m.lbcast_seconds(tail));
  };

  Schedule s(events);
  if (cfg.pipeline == core::PipelineMode::LookaheadSplit && left > 0.0) {
    // Fig. 6: UPDATE2 (right) hides the host chain and RS1; UPDATE1
    // (left) hides the next panel's RS2. Durations:
    const double right = n2;
    const double d_gathers = m.rs_device_seconds(la + left);
    const double d_scatter_right = 2.0 * m.rs_device_seconds(right);
    const double d_la =
        m.rs_device_seconds(la) + m.update_seconds(m_tail, la);
    const double d_up2 = m.update_seconds(m_tail, right);
    const double d_gather_next = m.rs_device_seconds(right);
    const double d_up1 =
        2.0 * m.rs_device_seconds(left) + m.update_seconds(m_tail, left);
    const double la_comm = m.rs_comm_seconds(la);
    const double rs1_comm = m.rs_comm_seconds(left);
    const double rs2_comm = m.rs_comm_seconds(right);

    // Lay the shape in the driver's enqueue order.
    const double gpu_pre = s.bar(kGpu, "gather LA+left / scatter RS2", 0.0,
                                 d_gathers + d_scatter_right);
    s.bar(kMpi, "RS(look-ahead) comm", d_gathers, la_comm);
    const double la_done =
        s.bar(kGpu, "UPDATE(look-ahead)",
              std::max(gpu_pre, d_gathers + la_comm), d_la);
    const double fact_done = host_chain(s, la_done, m_panel, m_tail);
    const double up2_done = s.bar(kGpu, "UPDATE2 (right)", la_done, d_up2);
    const double rs1_done =
        s.bar(kMpi, "RS1 (left) comm", fact_done, rs1_comm);
    const double gather_next_done =
        s.bar(kGpu, "gather RS2(next)", std::max(up2_done, fact_done),
              d_gather_next);
    s.bar(kGpu, "UPDATE1 (left)", std::max(gather_next_done, rs1_done),
          d_up1);
    s.bar(kMpi, "RS2(next) comm", gather_next_done, rs2_comm);
  } else {
    // Simple and Fig. 3 share the exposed whole-window row swap: gather,
    // comm, then scatter + U assembly.
    const bool simple = cfg.pipeline == core::PipelineMode::Simple;
    const double d_gather = m.rs_device_seconds(nloc);
    double t = s.bar(kGpu, simple ? "RS gather" : "RS gather/scatter", 0.0,
                     d_gather);
    t = s.bar(kMpi, "RS comm", t, m.rs_comm_seconds(nloc));
    t = s.bar(kGpu, "RS scatter + U", t, 2.0 * d_gather);
    if (simple) {
      // Depth 0, as the driver runs it: every phase on the critical path,
      // the whole-window update first, then the host chain of panel j+1
      // (its rows are this rank's trailing rows). The last iteration has
      // no next panel to factor.
      t = s.bar(kGpu, "UPDATE", t, m.update_seconds(m_tail, nloc));
      const long next = j + static_cast<long>(jb);
      if (next < cfg.n) {
        const long after = std::min<long>(cfg.n, next + cfg.nb);
        const double next_tail = static_cast<double>(
            grid::numroc(cfg.n, cfg.nb, prow, cfg.p) -
            grid::numroc(after, cfg.nb, prow, cfg.p));
        host_chain(s, t, m_tail, next_tail);
      }
    } else {
      // Fig. 3: FACT/LBCAST hidden behind the trailing update of the
      // non-look-ahead columns.
      const double la_done =
          s.bar(kGpu, "UPDATE(look-ahead)", t, m.update_seconds(m_tail, la));
      s.bar(kGpu, "UPDATE(rest)", la_done, m.update_seconds(m_tail, nloc - la));
      host_chain(s, la_done, m_panel, m_tail);
    }
  }

  trace::IterationRecord rec = s.record();
  rec.iteration = iter;
  rec.column = j;
  return rec;
}

/// Reject configurations the composition cannot price.
void check_config(const NodeModel& node, const ClusterConfig& cfg) {
  HPLX_CHECK(cfg.p >= 1 && cfg.q >= 1 && cfg.n >= cfg.nb);
  HPLX_CHECK(cfg.p_node * cfg.q_node == node.gcds || cfg.nodes == 1);
  HPLX_CHECK_MSG(std::isfinite(cfg.split_fraction) &&
                     cfg.split_fraction >= 0.0 && cfg.split_fraction <= 1.0,
                 "split_fraction must be in [0, 1], got "
                     << cfg.split_fraction);
}

}  // namespace

SimResult simulate_hpl(const NodeModel& node, const ClusterConfig& cfg) {
  check_config(node, cfg);
  const IterationModel m(node, cfg);

  SimResult out;
  double hidden_flops = 0.0, hidden_time = 0.0;
  int iter = 0;
  for (long j = 0; j < cfg.n; j += cfg.nb, ++iter) {
    const trace::IterationRecord rec =
        build_iteration(m, cfg, iter, /*events=*/nullptr);
    out.trace.iterations.push_back(rec);
    out.seconds += rec.total_s;
    out.gpu_seconds += rec.gpu_s;
    out.fact_seconds += rec.fact_s;
    out.mpi_seconds += rec.mpi_s;
    out.transfer_seconds += rec.transfer_s;

    // Global flops retired this iteration ≈ 2·mg·ng·jb.
    const double jb = std::min<double>(cfg.nb, static_cast<double>(cfg.n - j));
    const double mg = static_cast<double>(cfg.n - j);
    const double iter_flops = 2.0 * mg * mg * jb;
    if (rec.total_s <= rec.gpu_s * 1.05) {
      hidden_flops += iter_flops;
      hidden_time += rec.total_s;
    }
  }

  out.gflops = trace::hpl_flops(static_cast<double>(cfg.n)) / out.seconds / 1e9;
  out.hidden_regime_gflops =
      hidden_time > 0.0 ? hidden_flops / hidden_time / 1e9 : 0.0;
  return out;
}

std::vector<TimelineEvent> iteration_timeline(const NodeModel& node,
                                              const ClusterConfig& cfg,
                                              int iteration) {
  check_config(node, cfg);
  std::vector<TimelineEvent> ev;
  build_iteration(IterationModel(node, cfg), cfg, iteration, &ev);
  return ev;
}

}  // namespace hplx::sim
