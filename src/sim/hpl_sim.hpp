#pragma once
/// \file hpl_sim.hpp
/// \brief Event-based replay of the HPL iteration schedule at paper scale.
///
/// The simulator prices the same per-iteration shapes the real driver
/// executes — Simple, Fig. 3 (look-ahead) and Fig. 6 (split update) — with
/// phase durations from the calibrated NodeModel instead of executing
/// them: both run the shapes of core/schedule.hpp, and a modeled engine
/// here lays each step's bars on a timeline. iteration_timeline returns
/// those bars, and simulate_hpl keeps only each iteration's record, which
/// is the fold of its bars. The records have the real driver's trace
/// layout, which is how Figs. 7 and 8 are regenerated.
///
/// Each iteration models the diagonal panel's owner, with its exact
/// block-cyclic rows, columns and split column, as if it also owned panel
/// j+1 (panel 0's FACT is the driver's prologue, outside every iteration).
/// With Q > 1 the real owner of panel j+1 is the next process column;
/// that per-rank ownership is not modeled.

#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/fact_model.hpp"
#include "sim/machine.hpp"
#include "trace/records.hpp"

namespace hplx::sim {

struct ClusterConfig {
  int nodes = 1;
  int p = 4;        ///< global grid rows P
  int q = 2;        ///< global grid columns Q
  int p_node = 4;   ///< node-local grid rows
  int q_node = 2;   ///< node-local grid columns
  long n = 256000;
  int nb = 512;
  double split_fraction = 0.5;
  core::PipelineMode pipeline = core::PipelineMode::LookaheadSplit;
  int fact_threads = 15;  ///< T per FACT (from the core-sharing plan)
  /// Working precision of the modeled run. mxp32 stores, moves and swaps
  /// 4-byte elements and bills device kernels at the fp32 curve;
  /// mxp16-sim, a precision only the simulator prices, moves the same
  /// 4-byte elements but bills compute at the fp16 curve. Pivot messages
  /// keep their 8-byte slots in all modes (the wire format does not
  /// narrow).
  core::PrecisionMode precision = core::PrecisionMode::FP64;
};

struct SimResult {
  trace::RunTrace trace;
  double seconds = 0.0;
  double gflops = 0.0;      ///< whole-run HPL score
  double gpu_seconds = 0.0;
  double fact_seconds = 0.0;
  double mpi_seconds = 0.0;
  double transfer_seconds = 0.0;

  /// Running throughput while all non-GPU phases are hidden (the paper's
  /// "175 TFLOPS in this regime" metric): flops executed during hidden
  /// iterations divided by their wall time.
  double hidden_regime_gflops = 0.0;
};

/// Replay one HPL run on `nodes` × NodeModel hardware.
SimResult simulate_hpl(const NodeModel& node, const ClusterConfig& cfg);

/// One bar of an execution-timeline diagram (Figs. 3 and 6 of the paper).
struct TimelineEvent {
  const char* lane = "";   ///< "GPU", "CPU", "MPI", "XFER"
  std::string label;
  double start = 0.0;      ///< seconds from iteration start
  double end = 0.0;
};

/// The modeled schedule of one iteration — the data behind the paper's
/// Fig. 3 (look-ahead) and Fig. 6 (split update) diagrams. `iteration`
/// indexes the N/NB panels.
std::vector<TimelineEvent> iteration_timeline(const NodeModel& node,
                                              const ClusterConfig& cfg,
                                              int iteration);

}  // namespace hplx::sim
