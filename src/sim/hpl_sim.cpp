#include "sim/hpl_sim.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/schedule.hpp"
#include "grid/block_cyclic.hpp"
#include "util/error.hpp"

namespace hplx::sim {

namespace {

/// Per-iteration phase durations.
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

  /// DTRSM on the U rows of `cols` local columns, plus the trailing DGEMM
  /// when there are `m` > 0 local trailing rows (a rank without any still
  /// updates its U rows).
  double update_seconds(double m, double cols) const {
    if (cols <= 0) return 0.0;
    const double gemm =
        m > 0 ? node_.gcd.gemm_seconds(static_cast<long>(m),
                                       static_cast<long>(cols), cfg_.nb, prec_)
              : 0.0;
    return (1.0 + node_.gpu_sync_overhead) *
           (gemm +
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
  /// each leg pays P-1 latency hops and moves its bytes once. A window
  /// with no local columns still runs the ring's P-1 empty hops, and has
  /// no displaced rows to scatter.
  double rs_comm_seconds(double cols) const {
    if (cfg_.p == 1) return 0.0;
    const double bw =
        (col_inter_ ? node_.net.inter_bw_gbs : node_.net.intra_bw_gbs) * 1e9;
    const double lat =
        col_inter_ ? node_.net.inter_lat_s : node_.net.intra_lat_s;
    const double ubytes = static_cast<double>(cfg_.nb) * cols * eb_;
    const double frac = static_cast<double>(cfg_.p - 1) / cfg_.p;
    const double leg = (cfg_.p - 1) * lat + ubytes * frac / bw;
    return cols > 0 ? 2.0 * leg : leg;
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

/// Bar-label names of the sections, in core::Section order.
constexpr const char* kSectionNames[core::kSections] = {
    "look-ahead", "rest", "left", "right", "next right"};

/// The modeled engine of the shared iteration schedule (core/schedule.hpp),
/// for one iteration. It lays each step's bars with the real runtime's
/// semantics: the GPU lane is one in-order stream (so UPDATE2 never starts
/// early), and a device step starts once the lane is free, the host has
/// enqueued it and its ready event has fired; the host blocks in
/// communicate (until its gather is done and the wire time has passed)
/// and in make_panel; events are times. Each drawn bar folds into the
/// record: the MPI, CPU and XFER lanes sum into mpi_s, fact_s and
/// transfer_s, the GPU lane into gpu_s, and total_s is max(span, gpu_s),
/// so the record is the fold of its own timeline.
class ModeledEngine {
 public:
  using Event = double;
  using Done = double;

  /// `m_tail`: the trailing rows, which the update touches and panel j+1
  /// is factored over; `next_tail`: the rows of panel j+1's L2 block.
  ModeledEngine(const IterationModel& m, const core::IterationPlan& p,
                double m_tail, double next_tail,
                std::vector<TimelineEvent>* events)
      : m_(m), p_(p), m_tail_(m_tail), next_tail_(next_tail),
        events_(events) {}

  int streams() const { return 1; }

  void gather(core::Section w) {
    gathered_[idx(w)] = gpu("RS gather", w, 0.0, rs_device(w));
  }

  /// The wire time, then the U unpack kernels enqueued once it returns.
  void communicate(core::Section w) {
    host_ = bar(kMpi, "RS comm", name(w), std::max(host_, gathered_[idx(w)]),
                m_.rs_comm_seconds(cols(w)));
    gpu("RS unpack", w, 0.0, rs_device(w));
  }

  void scatter(core::Section w) { gpu("RS scatter", w, 0.0, rs_device(w)); }

  Event record() const { return gpu_; }

  Done update(core::Section w, core::BandPlacement, Event ready) {
    if (cols(w) <= 0.0) return 0.0;  // no bands: nothing to wait for
    return gpu("UPDATE", w, ready, m_.update_seconds(m_tail_, cols(w)));
  }

  /// Panel j+1: stage it down, factor it, stage it back up and broadcast
  /// it along the row.
  void make_panel(Done written) {
    const double xfer = m_.transfer_seconds(m_tail_) / 2.0;  // each way
    double t = bar(kXfer, "panel D2H", nullptr, std::max(host_, written), xfer);
    t = bar(kCpu, "FACT", nullptr, t, m_.fact_compute_seconds(m_tail_));
    t = bar(kMpi, "FACT pivots", nullptr, t, m_.fact_comm_seconds());
    t = bar(kXfer, "panel H2D", nullptr, t, xfer);
    host_ = bar(kMpi, "LBCAST", nullptr, t, m_.lbcast_seconds(next_tail_));
  }

  void join(Done d) { gpu_ = std::max(gpu_, d); }
  void drain() { host_ = std::max(host_, gpu_); }

  trace::IterationRecord folded() const {
    trace::IterationRecord rec = rec_;
    rec.total_s = std::max(span_, rec.gpu_s);
    return rec;
  }

 private:
  static int idx(core::Section w) { return static_cast<int>(w); }
  static const char* name(core::Section w) { return kSectionNames[idx(w)]; }
  double cols(core::Section w) const {
    return static_cast<double>(p_[w].count);
  }
  double rs_device(core::Section w) const {
    return m_.rs_device_seconds(cols(w));
  }

  /// A device bar in stream order; returns the lane's new end.
  double gpu(const char* step, core::Section w, double ready, double dur) {
    gpu_ = bar(kGpu, step, name(w), std::max({gpu_, host_, ready}), dur);
    return gpu_;
  }

  /// Place a `dur`-second bar on `lane` at `start`, labelled
  /// "step(section)", or "step" without a section. Returns the bar's end;
  /// empty bars are not drawn.
  double bar(const char* lane, const char* step, const char* section,
             double start, double dur) {
    const double end = start + dur;
    if (end <= start) return end;
    span_ = std::max(span_, end);
    if (lane == kGpu) rec_.gpu_s += dur;
    if (lane == kCpu) rec_.fact_s += dur;
    if (lane == kMpi) rec_.mpi_s += dur;
    if (lane == kXfer) rec_.transfer_s += dur;
    if (events_ != nullptr) {
      std::string label = step;
      if (section != nullptr) label = label + "(" + section + ")";
      events_->push_back(TimelineEvent{lane, label, start, end});
    }
    return end;
  }

  const IterationModel& m_;
  const core::IterationPlan& p_;
  double m_tail_;
  double next_tail_;
  std::vector<TimelineEvent>* events_;
  trace::IterationRecord rec_;
  double span_ = 0.0;
  double gpu_ = 0.0;   ///< when the GPU lane drains
  double host_ = 0.0;  ///< the host's clock
  double gathered_[core::kSections] = {};
};

/// Runs iteration `iter` of the shared schedule on the modeled engine and
/// returns the folded record; `events`, when non-null, receives the bars.
trace::IterationRecord build_iteration(const IterationModel& m,
                                       const ClusterConfig& cfg, int iter,
                                       std::vector<TimelineEvent>* events) {
  const long j = static_cast<long>(iter) * cfg.nb;
  HPLX_CHECK(j >= 0 && j < cfg.n);

  // Exact block-cyclic geometry of the rank recording this iteration —
  // the diagonal-panel owner, as in the paper's Fig. 7 instrumentation.
  // Its local row/column counts vary iteration to iteration, which is
  // what gives the published curves their jagged texture. The modeled
  // rank also factors panel j+1, so it holds that panel's columns.
  const long next = j + std::min<long>(cfg.nb, cfg.n - j);
  const int prow = grid::indxg2p(j, cfg.nb, cfg.p);
  const int pcol = grid::indxg2p(j, cfg.nb, cfg.q);
  auto rows_from = [&](long g) {
    return static_cast<double>(grid::numroc(cfg.n, cfg.nb, prow, cfg.p) -
                               grid::numroc(g, cfg.nb, prow, cfg.p));
  };
  auto col_of = [&](long g) { return grid::numroc(g, cfg.nb, pcol, cfg.q); };
  core::IterationGeometry g;
  g.first = iter == 0;
  g.panel_col = col_of(j);
  g.jl0 = col_of(next);
  g.nloc = col_of(cfg.n + 1);
  g.has_next = next < cfg.n;
  g.next_cols =
      g.has_next ? std::min(g.nloc - g.jl0, std::min<long>(cfg.nb, cfg.n - next))
                 : 0;
  const core::IterationPlan plan =
      core::IterationSchedule(cfg.pipeline, g.nloc, cfg.split_fraction, cfg.nb)
          .plan(g);

  ModeledEngine e(m, plan, rows_from(next),
                  rows_from(std::min<long>(cfg.n, next + cfg.nb)), events);
  core::run_iteration(e, plan);

  trace::IterationRecord rec = e.folded();
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
