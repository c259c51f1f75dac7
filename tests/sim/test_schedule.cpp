/// The iteration schedule is written once (core/schedule.hpp) and run by
/// two engines: the driver's Solver and the simulator. A logging engine
/// records the steps each shape issues; the simulator's timeline must lay
/// its bars in exactly that order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/schedule.hpp"
#include "grid/block_cyclic.hpp"
#include "sim/hpl_sim.hpp"
#include "sim/scaling.hpp"

namespace hplx::core {
namespace {

const char* name(Section s) {
  switch (s) {
    case Section::LookAhead: return "look-ahead";
    case Section::Rest: return "rest";
    case Section::Left: return "left";
    case Section::Right: return "right";
    case Section::NextRight: return "next right";
  }
  return "?";
}

/// Records every step as "<step> <section>".
struct LoggingEngine {
  using Event = int;
  using Done = int;

  int nstreams = 1;
  std::vector<std::string> log;

  int streams() const { return nstreams; }
  void gather(Section s) { log.push_back(std::string("gather ") + name(s)); }
  void communicate(Section s) {
    log.push_back(std::string("communicate ") + name(s));
  }
  void scatter(Section s) { log.push_back(std::string("scatter ") + name(s)); }
  Event record() {
    log.push_back("record");
    return 0;
  }
  Done update(Section s, BandPlacement, Event) {
    log.push_back(std::string("update ") + name(s));
    return 0;
  }
  void make_panel(Done) { log.push_back("make_panel"); }
  void join(Done) { log.push_back("join"); }
  void drain() { log.push_back("drain"); }
};

std::vector<std::string> steps_of(const IterationPlan& p, int streams) {
  LoggingEngine e;
  e.nstreams = streams;
  run_iteration(e, p);
  return e.log;
}

/// The simulator's geometry for iteration `iter`: the diagonal-panel
/// owner, which also holds and factors panel j+1.
IterationGeometry sim_geometry(const sim::ClusterConfig& cfg, int iter) {
  const long j = static_cast<long>(iter) * cfg.nb;
  const long next = j + std::min<long>(cfg.nb, cfg.n - j);
  const int pcol = grid::indxg2p(j, cfg.nb, cfg.q);
  auto col_of = [&](long g) { return grid::numroc(g, cfg.nb, pcol, cfg.q); };
  IterationGeometry g;
  g.first = iter == 0;
  g.panel_col = col_of(j);
  g.jl0 = col_of(next);
  g.nloc = col_of(cfg.n + 1);
  g.has_next = next < cfg.n;
  g.next_cols = g.has_next ? std::min(g.nloc - g.jl0,
                                      std::min<long>(cfg.nb, cfg.n - next))
                           : 0;
  return g;
}

/// The step a simulator bar belongs to: "<kernel>(<section>)" for the
/// row-swap and update bars (the U unpack is enqueued by communicate), the
/// host chain's bars for make_panel.
std::string step_of_bar(const std::string& label) {
  const auto open = label.find('(');
  if (open == std::string::npos) return "make_panel";
  static const std::map<std::string, std::string> kSteps = {
      {"RS gather", "gather"},   {"RS comm", "communicate"},
      {"RS unpack", "communicate"}, {"RS scatter", "scatter"},
      {"UPDATE", "update"}};
  return kSteps.at(label.substr(0, open)) + " " +
         label.substr(open + 1, label.size() - open - 2);
}

TEST(Schedule, SplitShapeIssuesTheDriversEnqueueOrder) {
  IterationGeometry g;
  g.panel_col = 0;
  g.jl0 = 8;
  g.next_cols = 8;
  g.nloc = 80;
  g.has_next = true;
  const IterationSchedule sched(PipelineMode::LookaheadSplit, g.nloc, 0.5, 8);
  EXPECT_EQ(sched.csplit(), 40);
  const IterationPlan p = sched.plan(g);
  ASSERT_EQ(p.shape, Shape::Split);
  EXPECT_TRUE(p.pending);
  const std::vector<std::string> one = {
      "gather look-ahead", "gather left", "scatter right", "record",
      "communicate look-ahead", "scatter look-ahead", "record",
      "update look-ahead", "update right", "make_panel", "communicate left",
      "join", "gather next right", "scatter left", "record", "update left",
      "communicate next right", "join"};
  EXPECT_EQ(steps_of(p, 1), one);
  // With spare streams UPDATE2 launches before the look-ahead swap's
  // communication; nothing else moves.
  std::vector<std::string> two = one;
  two.erase(std::find(two.begin(), two.end(), "update right"));
  two.insert(two.begin() + 4, "update right");
  EXPECT_EQ(steps_of(p, 2), two);
}

TEST(Schedule, WindowsMatchTheDriversSplitGeometry) {
  IterationGeometry g;
  g.panel_col = 0;
  g.jl0 = 8;
  g.next_cols = 8;
  g.nloc = 83;
  g.has_next = true;
  // The left share floors to whole blocks: 83 * 0.4 = 33.2 -> 32.
  const IterationSchedule sched(PipelineMode::LookaheadSplit, g.nloc, 0.6, 8);
  ASSERT_EQ(sched.csplit(), 32);
  const IterationPlan p = sched.plan(g);
  auto cols = [&](Section s) {
    return std::make_pair(p[s].start, p[s].count);
  };
  EXPECT_EQ(cols(Section::LookAhead), std::make_pair(8L, 8L));
  EXPECT_EQ(cols(Section::Left), std::make_pair(16L, 16L));
  EXPECT_EQ(cols(Section::Right), std::make_pair(32L, 51L));
  EXPECT_EQ(cols(Section::NextRight), std::make_pair(32L, 51L));
  EXPECT_EQ(p.u_of(Section::Left), Section::Left);

  // Past the split column: Fig. 3 on the pending right swap, once.
  g.panel_col = 24;
  g.jl0 = 32;
  const IterationPlan tail = sched.plan(g);
  EXPECT_EQ(tail.shape, Shape::Lookahead);
  EXPECT_TRUE(tail.pending);
  EXPECT_EQ(tail.u_of(Section::Rest), Section::Right);
  EXPECT_EQ(tail[Section::Right].start, g.jl0);
  g.panel_col = 32;
  g.jl0 = 40;
  EXPECT_FALSE(sched.plan(g).pending);
}

TEST(Schedule, SimulatorLaysItsBarsInTheLoggedStepOrder) {
  // Every iteration of the single-node paper run, in every mode, at the
  // paper's split and at a split that lasts to the end of the run: the
  // simulator's bars must follow the logged steps, and every step that
  // prices work must lay a bar.
  const sim::NodeModel node = sim::NodeModel::crusher();
  std::set<std::tuple<Shape, bool, bool>> covered;
  for (const PipelineMode mode :
       {PipelineMode::Simple, PipelineMode::Lookahead,
        PipelineMode::LookaheadSplit}) {
    for (const double split : {0.5, 0.0}) {
      sim::ClusterConfig cfg = sim::crusher_config(node, 1);
      cfg.pipeline = mode;
      cfg.split_fraction = split;
      const int iters = static_cast<int>((cfg.n + cfg.nb - 1) / cfg.nb);
      for (int iter = 0; iter < iters; ++iter) {
        const IterationGeometry g = sim_geometry(cfg, iter);
        const IterationPlan p =
            IterationSchedule(mode, g.nloc, split, cfg.nb).plan(g);
        covered.insert({p.shape, p.pending, !p.has_next});
        const std::vector<std::string> log = steps_of(p, 1);
        // Two streams move only UPDATE2 (the simulator has one stream).
        std::vector<std::string> two = steps_of(p, 2);
        if (p.shape == Shape::Split) {
          EXPECT_NE(two, log);
          two.erase(std::find(two.begin(), two.end(), "update right"));
          two.insert(
              std::find(two.begin(), two.end(), "update look-ahead") + 1,
              "update right");
        }
        EXPECT_EQ(two, log) << "iter=" << iter;

        std::vector<std::string> bars;
        for (const auto& e : sim::iteration_timeline(node, cfg, iter))
          bars.push_back(step_of_bar(e.label));
        // Subsequence match: each bar's step at or after the previous one.
        std::size_t at = 0;
        std::set<std::string> laid;
        for (const std::string& b : bars) {
          while (at < log.size() && log[at] != b) ++at;
          ASSERT_LT(at, log.size())
              << "mode=" << to_string(mode) << " split=" << split
              << " iter=" << iter << ": bar step '" << b
              << "' out of the logged order";
          laid.insert(b);
        }
        // Steps that always lay a bar at paper scale (P = 4): every
        // communicate (the ring runs even for an empty window), every
        // make_panel, every gather/scatter of a non-empty section, and
        // every update of one while the modeled rank has trailing rows.
        const long j = static_cast<long>(iter) * cfg.nb;
        const int prow = grid::indxg2p(j, cfg.nb, cfg.p);
        const bool rows = grid::numroc(cfg.n, cfg.nb, prow, cfg.p) >
                          grid::numroc(std::min<long>(cfg.n, j + cfg.nb),
                                       cfg.nb, prow, cfg.p);
        for (const std::string& step : log) {
          const bool comm = step.rfind("communicate", 0) == 0;
          bool sized = false;
          for (int s = 0; s < kSections; ++s) {
            const auto sec = static_cast<Section>(s);
            if (p[sec].count == 0) continue;
            for (const char* kind : {"gather ", "scatter ", "update "}) {
              if (step == std::string(kind) + name(sec) &&
                  (rows || std::string(kind) != "update "))
                sized = true;
            }
          }
          if (comm || sized || step == "make_panel") {
            EXPECT_EQ(laid.count(step), 1u)
                << "mode=" << to_string(mode) << " split=" << split
                << " iter=" << iter << ": no bar for '" << step << "'";
          }
        }
      }
    }
  }
  // Every shape, with and without a pending swap where the mode has one,
  // in the last iteration and before it.
  for (const auto& want : std::vector<std::tuple<Shape, bool, bool>>{
           {Shape::Simple, false, false},
           {Shape::Simple, false, true},
           {Shape::Lookahead, false, false},
           {Shape::Lookahead, false, true},
           {Shape::Lookahead, true, false},
           {Shape::Lookahead, true, true},
           {Shape::Split, true, false}})
    EXPECT_EQ(covered.count(want), 1u)
        << "shape " << static_cast<int>(std::get<0>(want)) << " pending "
        << std::get<1>(want) << " last " << std::get<2>(want);
}

}  // namespace
}  // namespace hplx::core
