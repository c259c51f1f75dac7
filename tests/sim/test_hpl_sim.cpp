/// The simulator must reproduce the paper's §IV.A observations for the
/// single-node Crusher run (N = 256,000, NB = 512, 4×2, 50/50 split):
/// two regimes with a crossover near iteration 250 of 500, a hidden-regime
/// running throughput near 90% of the 4×49 TFLOP/s limit, an overall score
/// near 153 TFLOPS, and communication hidden for ~75% of the runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "sim/hpl_sim.hpp"
#include "sim/scaling.hpp"
#include "util/error.hpp"

namespace hplx::sim {
namespace {

SimResult single_node(core::PipelineMode mode,
                      double split = 0.5) {
  const NodeModel node = NodeModel::crusher();
  ClusterConfig cfg = crusher_config(node, 1);
  cfg.pipeline = mode;
  cfg.split_fraction = split;
  return simulate_hpl(node, cfg);
}

TEST(HplSim, SingleNodeScoreNearPaper) {
  // Paper: 153 TFLOPS average. Shape tolerance: within ±20%.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  EXPECT_GT(r.gflops, 0.8 * 153000.0);
  EXPECT_LT(r.gflops, 1.2 * 153000.0);
}

TEST(HplSim, HiddenRegimeThroughputNear90PercentOfLimit) {
  // Paper: ~175 TFLOPS = 90% of 4×49 in the fully hidden regime.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  EXPECT_GT(r.hidden_regime_gflops, 0.85 * 196000.0);
  EXPECT_LT(r.hidden_regime_gflops, 0.97 * 196000.0);
}

TEST(HplSim, CrossoverNearIteration250) {
  // Paper Fig. 7: "Around iteration 250, the left section ... is too
  // small" — exposure starts near the middle of the 500 iterations.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  ASSERT_EQ(r.trace.iterations.size(), 500u);
  int crossover = -1;
  for (const auto& it : r.trace.iterations) {
    if (it.total_s > it.gpu_s * 1.05) {
      crossover = it.iteration;
      break;
    }
  }
  EXPECT_GT(crossover, 180);
  EXPECT_LT(crossover, 320);
}

TEST(HplSim, EarlyIterationsFullyHidden) {
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  for (int i : {0, 50, 100, 150}) {
    const auto& it = r.trace.iterations[static_cast<std::size_t>(i)];
    EXPECT_LE(it.total_s, it.gpu_s * 1.05) << "iteration " << i;
  }
}

TEST(HplSim, TailIsLatencyAndCommunicationBound) {
  // Fig. 7's tail: FACT + MPI + transfer stack becomes the critical path
  // and GPU activity leaves it entirely.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  const auto& last = r.trace.iterations.back();
  EXPECT_GT(last.total_s, 2.0 * last.gpu_s);
  EXPECT_GT(last.fact_s + last.mpi_s + last.transfer_s, last.gpu_s);
}

TEST(HplSim, CommunicationHiddenForMostOfRuntime) {
  // Paper §III.C: "hide all MPI communication ... for approximately 75% of
  // the execution time".
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  EXPECT_GT(r.trace.hidden_time_fraction(0.05), 0.65);
  // And about half the iterations (§V: "first 50% of the iterations").
  EXPECT_GT(r.trace.hidden_fraction(0.05), 0.40);
  EXPECT_LT(r.trace.hidden_fraction(0.05), 0.60);
}

TEST(HplSim, PipelineOrderingMatchesDesign) {
  // Each optimization must help: simple < lookahead < lookahead+split.
  const double simple = single_node(core::PipelineMode::Simple).gflops;
  const double la = single_node(core::PipelineMode::Lookahead).gflops;
  const double split = single_node(core::PipelineMode::LookaheadSplit).gflops;
  EXPECT_LT(simple, la);
  EXPECT_LT(la, split);
}

TEST(HplSim, FiftyFiftySplitNearOptimal) {
  // Paper §III.C: "splitting the local A matrix in half ... works
  // optimally" on a single node. 0.5 must beat the extremes.
  const double at25 = single_node(core::PipelineMode::LookaheadSplit, 0.25).gflops;
  const double at50 = single_node(core::PipelineMode::LookaheadSplit, 0.5).gflops;
  const double at90 = single_node(core::PipelineMode::LookaheadSplit, 0.9).gflops;
  EXPECT_GE(at50, at25);
  EXPECT_GE(at50, at90 * 0.999);
}

TEST(HplSim, GpuTimeDominatedByUpdate) {
  // §IV.A: ~95% of GPU active time is DGEMM in the hidden regime. Check
  // the update share of modeled GPU time early on.
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  const auto& it0 = r.trace.iterations.front();
  // fact/transfer happen off-GPU; gpu_s is all kernels. The first
  // iteration's GPU time should be close to its total (fully hidden).
  EXPECT_NEAR(it0.gpu_s / it0.total_s, 1.0, 0.05);
}

TEST(HplSim, PhaseTotalsAccumulate) {
  const SimResult r = single_node(core::PipelineMode::LookaheadSplit);
  EXPECT_GT(r.fact_seconds, 0.0);
  EXPECT_GT(r.mpi_seconds, 0.0);
  EXPECT_GT(r.transfer_seconds, 0.0);
  EXPECT_GT(r.gpu_seconds, 0.0);
  EXPECT_LT(r.gpu_seconds, r.seconds * 1.01);
}

/// Summed length of the iteration's MPI-lane row-swap bars.
double rs_wire_seconds(const NodeModel& node, const ClusterConfig& cfg,
                       int iter) {
  double sum = 0.0;
  for (const auto& e : iteration_timeline(node, cfg, iter))
    if (std::string(e.lane) == "MPI" &&
        std::string(e.label).rfind("RS", 0) == 0)
      sum += e.end - e.start;
  return sum;
}

TEST(HplSim, SingleProcessRowHasNoRowSwapWire) {
  // With P = 1 every pivot row is local: the row swap is device work
  // only, so every mode lays its row-swap wire bars at zero length.
  const NodeModel node = NodeModel::crusher();
  for (const auto mode :
       {core::PipelineMode::Simple, core::PipelineMode::Lookahead,
        core::PipelineMode::LookaheadSplit}) {
    ClusterConfig cfg = crusher_config(node, 1);
    cfg.pipeline = mode;
    cfg.p = cfg.p_node = 1;
    cfg.q = cfg.q_node = node.gcds;
    for (const int iter : {0, 10, 250, 499})
      EXPECT_EQ(rs_wire_seconds(node, cfg, iter), 0.0)
          << to_string(mode) << " iter=" << iter;
  }
}

TEST(HplSim, RowSwapWireIsPricedAsTwoRingLegs) {
  // The row swap is one scatterv plus one ring allgatherv of the U block
  // along the process column, each priced as a ring leg: P - 1 message
  // latencies plus (P - 1) / P of the U bytes. With Q fixed the U block
  // is the same for every P, so P = 2 fixes its wire time and P = 4 and 8
  // must follow the ring's formula; mxp32 halves the bytes, not the hops.
  const NodeModel node = NodeModel::crusher();
  const double lat = node.net.intra_lat_s;
  const int iter = 10;
  auto cfg_for = [&](int p, core::PrecisionMode prec) {
    ClusterConfig cfg = crusher_config(node, 1);
    cfg.pipeline = core::PipelineMode::Lookahead;
    cfg.precision = prec;
    cfg.p = cfg.p_node = p;
    cfg.q = cfg.q_node = 2;
    return cfg;
  };
  const double two =
      rs_wire_seconds(node, cfg_for(2, core::PrecisionMode::FP64), iter);
  // two = 2 (lat + U / (2 bw)), so U / bw = two - 2 lat.
  const double u_over_bw = two - 2.0 * lat;
  ASSERT_GT(u_over_bw, 0.0);
  auto ring = [&](int p, double bytes_scale) {
    return 2.0 * ((p - 1) * lat + bytes_scale * u_over_bw * (p - 1) / p);
  };
  for (const int p : {4, 8}) {
    const double got =
        rs_wire_seconds(node, cfg_for(p, core::PrecisionMode::FP64), iter);
    EXPECT_NEAR(got, ring(p, 1.0), ring(p, 1.0) * 1e-12) << "P=" << p;
  }
  const double mxp =
      rs_wire_seconds(node, cfg_for(4, core::PrecisionMode::MXP32), iter);
  EXPECT_NEAR(mxp, ring(4, 0.5), ring(4, 0.5) * 1e-12);
}

TEST(HplSim, PrecisionModesOrderModeledSpeedup) {
  // The MxP modes must order strictly at paper scale: mxp32 halves every
  // byte on the wire and in HBM and bills the fp32 curve; mxp16-sim moves
  // the same bytes but bills the (faster everywhere) fp16 curve. So the
  // modeled speedup over fp64 is monotone: mxp16-sim > mxp32 > 1.
  const NodeModel node = NodeModel::crusher();
  for (const auto mode :
       {core::PipelineMode::Simple, core::PipelineMode::Lookahead,
        core::PipelineMode::LookaheadSplit}) {
    ClusterConfig cfg = crusher_config(node, 1);
    cfg.pipeline = mode;
    const SimResult f64 = simulate_hpl(node, cfg);
    cfg.precision = core::PrecisionMode::MXP32;
    const SimResult f32 = simulate_hpl(node, cfg);
    cfg.precision = core::PrecisionMode::MXP16Sim;
    const SimResult f16 = simulate_hpl(node, cfg);
    EXPECT_LT(f32.seconds, f64.seconds) << "mode=" << static_cast<int>(mode);
    EXPECT_LT(f16.seconds, f32.seconds) << "mode=" << static_cast<int>(mode);
    // Device busy time orders the same way (compute billing), and the
    // narrower elements shrink the modeled wire and staging time too.
    EXPECT_LT(f32.gpu_seconds, f64.gpu_seconds);
    EXPECT_LT(f16.gpu_seconds, f32.gpu_seconds);
    EXPECT_LT(f32.transfer_seconds, f64.transfer_seconds);
    EXPECT_EQ(f16.transfer_seconds, f32.transfer_seconds);
  }
}

TEST(HplSim, SplitTailUsesThePendingRightSwap) {
  // Every Fig. 6 iteration communicates the next panel's right-section
  // swap, so when a rank's left section runs out its first Fig. 3
  // iteration only scatters that swap: no row-swap wire time is exposed.
  // Its next Fig. 3 iteration (two panels on, with Q = 2) swaps the whole
  // window again.
  const NodeModel node = NodeModel::crusher();
  const ClusterConfig cfg = crusher_config(node, 1);
  ASSERT_EQ(cfg.q, 2);
  auto split_shaped = [&](int iter) {
    for (const auto& e : iteration_timeline(node, cfg, iter))
      if (e.label.find("left") != std::string::npos) return true;
    return false;
  };
  int first_tail = 0;
  while (split_shaped(first_tail)) ++first_tail;
  ASSERT_GT(first_tail, 100);
  ASSERT_FALSE(split_shaped(first_tail + 2));
  EXPECT_EQ(rs_wire_seconds(node, cfg, first_tail), 0.0);
  EXPECT_GT(rs_wire_seconds(node, cfg, first_tail + 2), 0.0);
}

TEST(HplSim, RecordIsTheFoldOfItsTimeline) {
  // simulate_hpl and iteration_timeline share one per-iteration builder,
  // so every record field is a fold of that iteration's bars: mpi_s,
  // fact_s and transfer_s sum the MPI, CPU and XFER lanes, gpu_s the GPU
  // lane, and total_s = max(span, gpu_s).
  const NodeModel node = NodeModel::crusher();
  auto expect_rel = [](double want, double got, const std::string& what) {
    EXPECT_NEAR(got, want,
                1e-12 * std::max(std::abs(want), std::abs(got)))
        << what;
  };
  for (const auto mode :
       {core::PipelineMode::Simple, core::PipelineMode::Lookahead,
        core::PipelineMode::LookaheadSplit}) {
    ClusterConfig cfg = crusher_config(node, 1);
    cfg.pipeline = mode;
    const SimResult r = simulate_hpl(node, cfg);
    for (const int iter : {10, 250, 400, 499}) {
      const std::string what = "mode=" + std::string(to_string(mode)) +
                               " iter=" + std::to_string(iter);
      double span = 0.0, gpu = 0.0, cpu = 0.0, mpi = 0.0, xfer = 0.0;
      for (const auto& e : iteration_timeline(node, cfg, iter)) {
        const std::string lane = e.lane;
        const double len = e.end - e.start;
        span = std::max(span, e.end);
        if (lane == "GPU") gpu += len;
        if (lane == "CPU") cpu += len;
        if (lane == "MPI") mpi += len;
        if (lane == "XFER") xfer += len;
      }
      const auto& rec = r.trace.iterations[static_cast<std::size_t>(iter)];
      EXPECT_EQ(rec.iteration, iter) << what;
      expect_rel(mpi, rec.mpi_s, what + " mpi_s");
      expect_rel(cpu, rec.fact_s, what + " fact_s");
      expect_rel(xfer, rec.transfer_s, what + " transfer_s");
      expect_rel(gpu, rec.gpu_s, what + " gpu_s");
      expect_rel(std::max(span, gpu), rec.total_s, what + " total_s");
    }
  }
}

TEST(HplSim, SimpleFactorsTheNextPanelAfterTheUpdate) {
  // The driver's Simple is look-ahead depth 0: iteration j updates the
  // whole window, then factors panel j+1. The last iteration has no next
  // panel, so it lays no host-chain bar at all.
  const NodeModel node = NodeModel::crusher();
  ClusterConfig cfg = crusher_config(node, 1);
  cfg.pipeline = core::PipelineMode::Simple;
  const int last = static_cast<int>((cfg.n + cfg.nb - 1) / cfg.nb) - 1;
  auto bar = [](const std::vector<TimelineEvent>& ev, const char* label) {
    const auto it = std::find_if(ev.begin(), ev.end(), [&](const auto& e) {
      return e.label == label;
    });
    return it == ev.end() ? nullptr : &*it;
  };
  for (const int iter : {0, 100, 400}) {
    SCOPED_TRACE(iter);
    const auto ev = iteration_timeline(node, cfg, iter);
    const TimelineEvent* update = bar(ev, "UPDATE(rest)");
    const TimelineEvent* fact = bar(ev, "FACT");
    ASSERT_NE(update, nullptr);
    ASSERT_NE(fact, nullptr);
    EXPECT_GE(fact->start, update->end);
  }
  const auto tail = iteration_timeline(node, cfg, last);
  for (const char* label :
       {"panel D2H", "FACT", "FACT pivots", "panel H2D", "LBCAST"})
    EXPECT_EQ(bar(tail, label), nullptr) << label;
  const SimResult r = simulate_hpl(node, cfg);
  EXPECT_EQ(r.trace.iterations.back().fact_s, 0.0);
}

TEST(HplSim, BadSplitFractionIsRejected) {
  const NodeModel node = NodeModel::crusher();
  for (const double bad : {std::nan(""), 1.5}) {
    ClusterConfig cfg = crusher_config(node, 1);
    cfg.split_fraction = bad;
    try {
      simulate_hpl(node, cfg);
      ADD_FAILURE() << "split_fraction " << bad << " was accepted";
    } catch (const Error& e) {
      std::ostringstream want;
      want << bad;
      EXPECT_NE(std::string(e.what()).find(want.str()), std::string::npos)
          << e.what();
    }
  }
  // Both ends of [0, 1] stay valid.
  for (const double ok : {0.0, 1.0}) {
    ClusterConfig cfg = crusher_config(node, 1);
    cfg.split_fraction = ok;
    EXPECT_GT(simulate_hpl(node, cfg).gflops, 0.0) << ok;
  }
}

}  // namespace
}  // namespace hplx::sim
