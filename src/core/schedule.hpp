#pragma once
/// \file schedule.hpp
/// \brief The iteration schedule (§III, Figs. 3 and 6), written once.
///
/// Each shape is one function template over an engine: the driver's
/// Solver enqueues the real work, the simulator lays modeled bars. An
/// engine provides `Event`, `Done` (a finished update section),
/// `streams()`, the row-swap stages `gather`/`communicate`/`scatter`,
/// `record()`, `update(Section, BandPlacement, ready)`,
/// `make_panel(written)` (factor and broadcast panel j+1), `join(Done)`
/// and `drain()`, and resolves each Section through the IterationPlan.

#include <algorithm>

#include "core/config.hpp"

namespace hplx::core {

/// Which pool streams a banded section may use. The look-ahead band stays
/// on the primary so its event releases FACT the moment it finishes; the
/// right-section bands avoid the primary so the row-swap chain queued
/// there is never stuck behind them.
enum class BandPlacement {
  Spread,        ///< round-robin over every pool stream
  SparePrimary,  ///< streams 1..N-1 only (primary if the pool has one stream)
  PrimaryOnly,   ///< primary stream only (the seed single-stream schedule)
};

/// The column windows of one iteration.
enum class Section {
  LookAhead,  ///< panel j+1's own columns on this rank
  Rest,       ///< the trailing columns after the look-ahead band
  Left,       ///< Fig. 6: look-ahead band end to the split column
  /// Split column on, swapped one iteration ahead by Fig. 6; every
  /// trailing column for Simple and Fig. 3.
  Right,
  NextRight,  ///< panel j+1's right window, swapped in iteration j
};
inline constexpr int kSections = 5;

enum class Shape { Simple, Lookahead, Split };

/// Local columns [start, start + count).
struct Cols {
  long start = 0;
  long count = 0;
};

/// Where iteration j sits in this rank's local columns.
struct IterationGeometry {
  bool first = false;  ///< iteration 0, right after the prologue
  long panel_col = 0;  ///< first local column at or after panel j
  long jl0 = 0;        ///< first trailing local column (panel j+1 on)
  long next_cols = 0;  ///< panel j+1's local columns (0: none, or not ours)
  long nloc = 0;       ///< local columns of the whole matrix (incl. RHS)
  bool has_next = false;
};

struct IterationPlan {
  Shape shape = Shape::Simple;
  /// The right window's swap was communicated one iteration ahead (or by
  /// the prologue); this iteration only scatters it.
  bool pending = false;
  bool has_next = false;
  Cols cols[kSections] = {};

  const Cols& operator[](Section s) const {
    return cols[static_cast<int>(s)];
  }
  /// The swap window whose U an update reads: Fig. 6 sections their own,
  /// Simple and Fig. 3 bands the whole (right) window's.
  Section u_of(Section s) const {
    return shape == Shape::Split ? s : Section::Right;
  }
};

/// One rank's pipeline mode and split column, fixed for the run.
class IterationSchedule {
 public:
  /// The split column: the left share of this rank's `nloc` columns,
  /// floored to a multiple of nb.
  IterationSchedule(PipelineMode mode, long nloc, double split_fraction,
                    int nb)
      : mode_(mode) {
    if (mode != PipelineMode::LookaheadSplit) return;
    const long want_left =
        static_cast<long>(static_cast<double>(nloc) * (1.0 - split_fraction));
    csplit_ = std::clamp<long>((want_left / nb) * nb, 0, nloc);
  }

  long csplit() const { return csplit_; }

  /// Fig. 6 while the trailing window starts left of the split column,
  /// then Fig. 3. The previous iteration's window started at panel_col,
  /// so it was a Fig. 6 one (which starts the next right swap) exactly
  /// when panel_col < csplit.
  IterationPlan plan(const IterationGeometry& g) const {
    const bool split = mode_ == PipelineMode::LookaheadSplit;
    IterationPlan p;
    p.has_next = g.has_next;
    p.shape = mode_ == PipelineMode::Simple ? Shape::Simple
              : split && g.jl0 < csplit_    ? Shape::Split
                                            : Shape::Lookahead;
    p.pending = split && (g.first || g.panel_col < csplit_);
    const long la = mode_ == PipelineMode::Simple ? 0 : g.next_cols;
    const long right = std::max(csplit_, g.jl0);
    auto set = [&](Section s, long from, long to) {
      p.cols[static_cast<int>(s)] = Cols{from, std::max(0L, to - from)};
    };
    set(Section::LookAhead, g.jl0, g.jl0 + la);
    set(Section::Rest, g.jl0 + la, g.nloc);
    set(Section::Left, g.jl0 + la, right);
    set(Section::Right, right, g.nloc);
    if (g.has_next)
      set(Section::NextRight, std::max(csplit_, g.jl0 + g.next_cols), g.nloc);
    return p;
  }

 private:
  PipelineMode mode_;
  long csplit_ = 0;
};

/// Before iteration 0 (`p` is its plan): factor and broadcast panel 0,
/// and under the split update start the right swap iteration 0 scatters.
template <typename Engine>
void run_prologue(Engine& e, const IterationPlan& p) {
  e.make_panel(typename Engine::Done{});
  if (p.pending) {
    e.gather(Section::Right);
    e.communicate(Section::Right);
  }
}

/// Iteration j, in the driver's enqueue order.
template <typename Engine>
void run_iteration(Engine& e, const IterationPlan& p) {
  using Event = typename Engine::Event;
  using Done = typename Engine::Done;
  if (p.shape == Shape::Split) {
    // Fig. 6. The right rows were communicated last iteration.
    e.gather(Section::LookAhead);
    e.gather(Section::Left);
    e.scatter(Section::Right);
    const Event right_ready = e.record();
    // UPDATE2 (right) hides what follows. A single stream runs the
    // look-ahead band first, or FACT would wait behind the right section.
    const bool early_right = e.streams() > 1;
    Done right{};
    if (early_right)
      right = e.update(Section::Right, BandPlacement::SparePrimary,
                       right_ready);
    e.communicate(Section::LookAhead);
    e.scatter(Section::LookAhead);
    const Event la_ready = e.record();
    const Done la =
        e.update(Section::LookAhead, BandPlacement::PrimaryOnly, la_ready);
    if (!early_right)
      right = e.update(Section::Right, BandPlacement::SparePrimary,
                       right_ready);
    if (p.has_next) e.make_panel(la);
    e.communicate(Section::Left);  // RS1, hidden by UPDATE2
    e.join(right);  // the next right swap gathers columns UPDATE2 writes
    if (p.has_next) e.gather(Section::NextRight);
    e.scatter(Section::Left);
    const Event left_ready = e.record();
    const Done left = e.update(Section::Left, BandPlacement::Spread, left_ready);
    if (p.has_next) e.communicate(Section::NextRight);  // RS2, under UPDATE1
    e.join(left);
    return;
  }

  // Simple and Fig. 3: the whole window's swap is exposed, unless the split
  // update already communicated it.
  if (!p.pending) {
    e.gather(Section::Right);
    e.communicate(Section::Right);
  }
  e.scatter(Section::Right);
  const Event ready = e.record();
  // The look-ahead band's event releases FACT while the rest computes;
  // Simple has no band, so FACT follows the whole update.
  const Done la = e.update(Section::LookAhead, BandPlacement::PrimaryOnly, ready);
  const Done rest = e.update(Section::Rest, BandPlacement::Spread, ready);
  if (p.has_next) e.make_panel(p[Section::LookAhead].count > 0 ? la : rest);
  e.join(rest);
  if (p.shape == Shape::Simple) e.drain();  // no overlap across iterations
}

}  // namespace hplx::core
