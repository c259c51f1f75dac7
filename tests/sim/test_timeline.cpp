/// The modeled iteration timelines must encode the papers' Fig. 3 / Fig. 6
/// overlap structure: what is hidden, what is exposed, and in which order.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/hpl_sim.hpp"
#include "sim/scaling.hpp"

namespace hplx::sim {
namespace {

std::vector<TimelineEvent> timeline(core::PipelineMode mode, int iter = 100) {
  const NodeModel node = NodeModel::crusher();
  ClusterConfig cfg = crusher_config(node, 1);
  cfg.pipeline = mode;
  return iteration_timeline(node, cfg, iter);
}

const TimelineEvent* find(const std::vector<TimelineEvent>& ev,
                          const std::string& needle) {
  for (const auto& e : ev)
    if (e.label.find(needle) != std::string::npos) return &e;
  return nullptr;
}

double lane_end(const std::vector<TimelineEvent>& ev, const char* lane) {
  double end = 0.0;
  for (const auto& e : ev)
    if (std::string(e.lane) == lane) end = std::max(end, e.end);
  return end;
}

TEST(Timeline, Fig3FactHiddenUnderUpdate) {
  const auto ev = timeline(core::PipelineMode::Lookahead);
  const auto* fact = find(ev, "FACT");
  const auto* rest = find(ev, "UPDATE(rest)");
  ASSERT_NE(fact, nullptr);
  ASSERT_NE(rest, nullptr);
  // FACT runs strictly inside the big update window (Fig. 3).
  EXPECT_GE(fact->start, rest->start);
  EXPECT_LE(fact->end, rest->end);
  // ... and so do the panel transfers and LBCAST.
  for (const char* label : {"panel D2H", "panel H2D", "LBCAST"}) {
    const auto* e = find(ev, label);
    ASSERT_NE(e, nullptr) << label;
    EXPECT_LE(e->end, rest->end) << label;
  }
}

TEST(Timeline, Fig3RowSwapIsExposed) {
  const auto ev = timeline(core::PipelineMode::Lookahead);
  const auto* rs = find(ev, "RS comm");
  const auto* la = find(ev, "UPDATE(look-ahead)");
  ASSERT_NE(rs, nullptr);
  ASSERT_NE(la, nullptr);
  // RS communication precedes all update work: nothing hides it (Fig. 3's
  // one remaining exposure).
  EXPECT_LE(rs->end, la->start + 1e-12);
}

TEST(Timeline, Fig6RowSwapsHiddenUnderUpdates) {
  const auto ev = timeline(core::PipelineMode::LookaheadSplit);
  const auto* up2 = find(ev, "UPDATE(right)");
  const auto* left = find(ev, "RS scatter(left)");
  const auto* up1 = find(ev, "UPDATE(left)");
  const auto* rs1 = find(ev, "RS comm(left)");
  const auto* rs2 = find(ev, "RS comm(next right)");
  ASSERT_NE(up2, nullptr);
  ASSERT_NE(left, nullptr);
  ASSERT_NE(up1, nullptr);
  ASSERT_NE(rs1, nullptr);
  ASSERT_NE(rs2, nullptr);
  // RS1 hides under UPDATE2; RS2 hides under UPDATE1, whose device work
  // begins with the left section's displaced-row scatter (Fig. 6).
  EXPECT_GE(rs1->start, up2->start);
  EXPECT_LE(rs1->end, up2->end);
  EXPECT_GE(rs2->start, left->start - 1e-12);
  EXPECT_LE(left->end, up1->start + 1e-12);
  EXPECT_LE(rs2->end, up1->end);
}

TEST(Timeline, Fig6BeatsFig3InTheHiddenRegime) {
  const double t3 = lane_end(timeline(core::PipelineMode::Lookahead), "GPU");
  const auto ev6 = timeline(core::PipelineMode::LookaheadSplit);
  double t6 = 0.0;
  for (const auto& e : ev6) t6 = std::max(t6, e.end);
  EXPECT_LT(t6, t3);
}

TEST(Timeline, SimpleModeIsFullySequential) {
  const auto ev = timeline(core::PipelineMode::Simple);
  // No two events overlap: each starts where some other ends or later.
  for (std::size_t i = 0; i < ev.size(); ++i)
    for (std::size_t k = i + 1; k < ev.size(); ++k) {
      const bool disjoint =
          ev[i].end <= ev[k].start + 1e-12 || ev[k].end <= ev[i].start + 1e-12;
      EXPECT_TRUE(disjoint) << ev[i].label << " vs " << ev[k].label;
    }
}

TEST(Timeline, TailIterationExposesTheFactChain) {
  // Near the end of the run the split's left section is exhausted (the
  // schedule falls back to the Fig. 3 shape) and the trailing update is
  // too small to hide FACT: the CPU lane extends past the GPU's window.
  const auto ev = timeline(core::PipelineMode::LookaheadSplit, 460);
  const auto* fact = find(ev, "FACT");
  const auto* rest = find(ev, "UPDATE(rest)");
  ASSERT_NE(fact, nullptr);
  ASSERT_NE(rest, nullptr) << "iteration 460 should be past the split";
  EXPECT_GT(fact->end, rest->end);
}

TEST(Timeline, EventsAreWellFormed) {
  for (auto mode : {core::PipelineMode::Simple, core::PipelineMode::Lookahead,
                    core::PipelineMode::LookaheadSplit}) {
    const auto ev = timeline(mode);
    ASSERT_FALSE(ev.empty());
    for (const auto& e : ev) {
      EXPECT_LT(e.start, e.end) << e.label;
      EXPECT_GE(e.start, 0.0) << e.label;
      EXPECT_FALSE(e.label.empty());
    }
  }
}

}  // namespace
}  // namespace hplx::sim
