/// \file fig3_fig6_timelines.cpp
/// \brief Regenerates the paper's *design diagrams* as modeled execution
/// timelines:
///   - Fig. 3: one iteration with look-ahead — FACT/LBCAST hidden behind
///     the trailing update, row-swap communication exposed;
///   - Fig. 6: one iteration with the split update — UPDATE2 hides
///     transfers/FACT/LBCAST/RS1, UPDATE1 hides the next panel's RS2;
///   - Fig. 4: the FACT tile round-robin (rendered as the thread/tile
///     assignment map).
///
/// Timelines are Gantt-style: one lane per resource (GPU stream, CPU,
/// MPI, host link), bars to scale from the calibrated single-node model
/// in the fully hidden regime (iteration 100 of 500 by default).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/scaling.hpp"
#include "util/options.hpp"

namespace {

using hplx::sim::TimelineEvent;

void render(const std::vector<TimelineEvent>& events, int width) {
  if (events.empty()) return;
  double tmax = 0.0;
  for (const auto& e : events) tmax = std::max(tmax, e.end);
  const double scale = width / tmax;

  const char* lanes[] = {"GPU", "CPU", "MPI", "XFER"};
  for (const char* lane : lanes) {
    bool first = true;
    for (const auto& e : events) {
      if (std::string(e.lane) != lane) continue;
      const int s = static_cast<int>(e.start * scale);
      const int w = std::max(1, static_cast<int>((e.end - e.start) * scale));
      std::string bar(static_cast<std::size_t>(s), ' ');
      bar += '[';
      std::string fill = e.label;
      if (static_cast<int>(fill.size()) > w - 2)
        fill = fill.substr(0, std::max(0, w - 2));
      fill.resize(static_cast<std::size_t>(std::max(0, w - 2)), '=');
      bar += fill;
      bar += ']';
      std::printf("  %-4s |%s  (%.1f..%.1f ms: %s)\n", first ? lane : "",
                  bar.c_str(), e.start * 1e3, e.end * 1e3, e.label.c_str());
      first = false;
    }
  }
  std::printf("  time axis: 0 .. %.1f ms\n", tmax * 1e3);
}

void fig4_tile_map(int tiles, int threads) {
  std::printf(
      "\nFIG4: FACT tile round-robin — M x NB panel blocked into NB-row "
      "tiles,\nassigned to T=%d threads (tile 0, holding the top block and "
      "all pivot\nsource rows, always belongs to the main thread):\n\n",
      threads);
  for (int t = 0; t < tiles; ++t) {
    std::printf("  tile %2d (rows %5d..%5d)  ->  thread %d%s\n", t, t * 512,
                (t + 1) * 512 - 1, t % threads,
                t % threads == 0 ? "  (main)" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hplx;
  Options opt(argc, argv);
  const int iter = static_cast<int>(opt.get_int("iteration", 100));
  const int width = static_cast<int>(opt.get_int("width", 90));

  const sim::NodeModel node = sim::NodeModel::crusher();
  sim::ClusterConfig cfg = sim::crusher_config(node, 1);

  std::printf(
      "FIG3: look-ahead iteration timeline (iteration %d of %ld, single "
      "node)\n\n",
      iter, cfg.n / cfg.nb);
  cfg.pipeline = core::PipelineMode::Lookahead;
  render(sim::iteration_timeline(node, cfg, iter), width);

  std::printf(
      "\nFIG6: split-update iteration timeline (same iteration) — note the "
      "RS\ncommunications now sit under UPDATE2/UPDATE1 (UPDATE(right) / "
      "UPDATE(left))\ninstead of the critical path\n\n");
  cfg.pipeline = core::PipelineMode::LookaheadSplit;
  render(sim::iteration_timeline(node, cfg, iter), width);

  fig4_tile_map(static_cast<int>(opt.get_int("tiles", 12)),
                static_cast<int>(opt.get_int("threads", 4)));
  return 0;
}
