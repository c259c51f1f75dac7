/// End-to-end solves: every grid shape × pipeline mode must produce a
/// solution passing HPL's residual criterion, and all pipeline modes must
/// agree bitwise (they reorder work across phases but never within a
/// column of the matrix).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "comm/world.hpp"
#include "core/driver.hpp"
#include "util/error.hpp"

namespace hplx::core {
namespace {

HplConfig base_cfg(long n, int nb, int p, int q) {
  HplConfig cfg;
  cfg.n = n;
  cfg.nb = nb;
  cfg.p = p;
  cfg.q = q;
  cfg.seed = 20230601;
  cfg.fact_threads = 2;
  cfg.rfact_nbmin = 8;
  cfg.verify = true;
  return cfg;
}

HplResult run(const HplConfig& cfg) {
  HplResult out;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    HplResult r = run_hpl(world, cfg);
    if (world.rank() == 0) out = std::move(r);
  });
  return out;
}

using Param = std::tuple<int /*p*/, int /*q*/, long /*n*/, int /*nb*/,
                         PipelineMode>;

class HplSolveSweep : public ::testing::TestWithParam<Param> {};

TEST_P(HplSolveSweep, ResidualPasses) {
  const auto [p, q, n, nb, mode] = GetParam();
  HplConfig cfg = base_cfg(n, nb, p, q);
  cfg.pipeline = mode;
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed)
      << "residual=" << r.verify.residual << " for " << p << "x" << q
      << " n=" << n << " nb=" << nb << " mode=" << to_string(mode);
  EXPECT_LT(r.verify.residual, 16.0);
  EXPECT_GT(r.gflops, 0.0);
  EXPECT_EQ(static_cast<long>(r.trace.iterations.size()), (n + nb - 1) / nb);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModes, HplSolveSweep,
    ::testing::Values(
        // Single rank, every mode.
        Param{1, 1, 96, 16, PipelineMode::Simple},
        Param{1, 1, 96, 16, PipelineMode::Lookahead},
        Param{1, 1, 96, 16, PipelineMode::LookaheadSplit},
        // Row of processes (maximum core sharing shape).
        Param{1, 2, 128, 16, PipelineMode::LookaheadSplit},
        Param{1, 4, 128, 16, PipelineMode::Lookahead},
        // Column of processes.
        Param{2, 1, 128, 16, PipelineMode::LookaheadSplit},
        Param{4, 1, 96, 16, PipelineMode::Simple},
        // 2D grids, including the paper's 4×2 single-node shape.
        Param{2, 2, 128, 16, PipelineMode::Simple},
        Param{2, 2, 128, 16, PipelineMode::Lookahead},
        Param{2, 2, 128, 16, PipelineMode::LookaheadSplit},
        Param{2, 3, 144, 16, PipelineMode::LookaheadSplit},
        Param{4, 2, 128, 16, PipelineMode::LookaheadSplit},
        // N not a multiple of NB (ragged last panel).
        Param{2, 2, 100, 16, PipelineMode::Simple},
        Param{2, 2, 100, 16, PipelineMode::LookaheadSplit},
        Param{1, 1, 37, 8, PipelineMode::LookaheadSplit},
        // NB == N (single panel).
        Param{2, 2, 32, 32, PipelineMode::Lookahead}));

TEST(HplSolve, PipelineModesAgreeBitwise) {
  // 2x2 is the classic grid. 1x4 makes every iteration's next panel live
  // on another process column, so non-owner ranks receive it while their
  // own bands run; 1x1 with four update streams fans the bands out over
  // the whole pool.
  struct Shape {
    int p, q, streams;
  };
  for (const Shape shape : {Shape{2, 2, 1}, Shape{1, 4, 1}, Shape{1, 1, 4}}) {
    std::vector<double> residuals;
    for (PipelineMode mode : {PipelineMode::Simple, PipelineMode::Lookahead,
                              PipelineMode::LookaheadSplit}) {
      HplConfig cfg = base_cfg(128, 16, shape.p, shape.q);
      cfg.pipeline = mode;
      cfg.update_streams = shape.streams;
      const HplResult r = run(cfg);
      EXPECT_TRUE(r.verify.passed) << to_string(mode);
      residuals.push_back(r.verify.residual);
    }
    // The scaled residual is a deterministic function of x: identical x
    // across modes → identical residual.
    EXPECT_EQ(residuals[0], residuals[1])
        << shape.p << "x" << shape.q << " streams=" << shape.streams;
    EXPECT_EQ(residuals[0], residuals[2])
        << shape.p << "x" << shape.q << " streams=" << shape.streams;
  }
}

TEST(HplSolve, BadSplitFractionIsRejectedOnEveryRank) {
  for (const double bad : {std::nan(""), 1.5}) {
    HplConfig cfg = base_cfg(64, 16, 2, 2);
    cfg.pipeline = PipelineMode::LookaheadSplit;
    cfg.split_fraction = bad;
    std::ostringstream want;
    want << bad;
    std::atomic<int> rejected{0};
    comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
      try {
        run_hpl(world, cfg);
      } catch (const Error& e) {
        if (std::string(e.what()).find(want.str()) != std::string::npos)
          ++rejected;
      }
    });
    EXPECT_EQ(rejected.load(), cfg.p * cfg.q) << "split_fraction " << bad;
  }
}

TEST(HplSolve, BadKnobsAreRejectedOnEveryRank) {
  // Each knob outside its range is rejected before any communication, so
  // every rank throws, and the message names the field and the value.
  struct Bad {
    const char* field;
    void (*set)(HplConfig&);
    const char* value;
  };
  const Bad bads[] = {
      {"update_streams", [](HplConfig& c) { c.update_streams = 0; }, "0"},
      {"update_streams", [](HplConfig& c) { c.update_streams = 9; }, "9"},
      {"fact_threads", [](HplConfig& c) { c.fact_threads = 0; }, "0"},
      {"rfact_nbmin", [](HplConfig& c) { c.rfact_nbmin = 0; }, "0"},
      {"rfact_ndiv", [](HplConfig& c) { c.rfact_ndiv = 1; }, "1"},
      {"blas_threads", [](HplConfig& c) { c.blas_threads = -1; }, "-1"},
      {"ir_max_iters", [](HplConfig& c) { c.ir_max_iters = -1; }, "-1"},
      {"ir_tol", [](HplConfig& c) { c.ir_tol = 0.0; }, "0"},
      {"ir_tol", [](HplConfig& c) { c.ir_tol = -2.0; }, "-2"},
      {"ir_tol", [](HplConfig& c) { c.ir_tol = std::nan(""); }, "nan"},
      {"ir_tol",
       [](HplConfig& c) { c.ir_tol = std::numeric_limits<double>::infinity(); },
       "inf"},
      {"precision",
       [](HplConfig& c) { c.precision = PrecisionMode::MXP16Sim; },
       "mxp16-sim"},
  };
  for (const Bad& bad : bads) {
    HplConfig cfg = base_cfg(64, 16, 2, 2);
    bad.set(cfg);
    std::atomic<int> rejected{0};
    comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
      try {
        run_hpl(world, cfg);
      } catch (const Error& e) {
        const std::string what = e.what();
        if (what.find(bad.field) != std::string::npos &&
            what.find(std::string("got ") + bad.value) != std::string::npos)
          ++rejected;
      }
    });
    EXPECT_EQ(rejected.load(), cfg.p * cfg.q)
        << bad.field << " = " << bad.value;
  }
}

TEST(HplSolve, SplitFractionSweepStaysCorrect) {
  for (double f : {0.25, 0.5, 0.75, 1.0}) {
    HplConfig cfg = base_cfg(128, 16, 2, 2);
    cfg.pipeline = PipelineMode::LookaheadSplit;
    cfg.split_fraction = f;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << "split=" << f;
  }
}

TEST(HplSolve, BcastVariantsStayCorrect) {
  for (comm::BcastAlgo algo :
       {comm::BcastAlgo::Binomial, comm::BcastAlgo::Ring1,
        comm::BcastAlgo::Ring1Mod, comm::BcastAlgo::Ring2,
        comm::BcastAlgo::Ring2Mod, comm::BcastAlgo::Long,
        comm::BcastAlgo::LongMod}) {
    HplConfig cfg = base_cfg(96, 16, 1, 4);
    cfg.bcast = algo;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << comm::to_string(algo);
  }
}

TEST(HplSolve, RowSwapOnFourRankColumnAgreesAcrossModes) {
  // Four process rows: every U assembly is a three-hop ring, and the
  // displaced-row scatterv reaches three other ranks. Each pipeline mode
  // moves the same rows to the same places and must agree bitwise.
  std::vector<double> residuals;
  for (PipelineMode mode : {PipelineMode::Simple, PipelineMode::Lookahead,
                            PipelineMode::LookaheadSplit}) {
    HplConfig cfg = base_cfg(128, 16, 4, 1);
    cfg.pipeline = mode;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << to_string(mode);
    residuals.push_back(r.verify.residual);
  }
  EXPECT_EQ(residuals[0], residuals[1]);
  EXPECT_EQ(residuals[0], residuals[2]);
}

TEST(HplSolve, RowSwapOnOddColumnStaysCorrect) {
  // P = 3 is not a power of two and N / NB = 6 rows of blocks fall
  // unevenly on it late in the run: the ring U assembly must stay correct
  // in every mode.
  for (PipelineMode mode : {PipelineMode::Simple, PipelineMode::Lookahead,
                            PipelineMode::LookaheadSplit}) {
    HplConfig cfg = base_cfg(96, 16, 3, 1);
    cfg.pipeline = mode;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed)
        << to_string(mode) << " residual=" << r.verify.residual;
  }
}

TEST(HplSolve, FactVariantsStayCorrect) {
  for (FactVariant v : {FactVariant::Left, FactVariant::Right,
                        FactVariant::Crout, FactVariant::RecursiveRight}) {
    HplConfig cfg = base_cfg(96, 16, 2, 2);
    cfg.fact = v;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << to_string(v);
  }
  // Recursion over each base variant (HPL's PFACT under RFACT).
  for (FactVariant base : {FactVariant::Left, FactVariant::Crout,
                           FactVariant::Right}) {
    HplConfig cfg = base_cfg(96, 16, 2, 2);
    cfg.fact = FactVariant::RecursiveRight;
    cfg.rfact_base = base;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << "recursive over " << to_string(base);
  }
}

TEST(HplSolve, ThreadTeamSizesStayCorrect) {
  for (int t : {1, 3, 5}) {
    HplConfig cfg = base_cfg(96, 16, 2, 2);
    cfg.fact_threads = t;
    const HplResult r = run(cfg);
    EXPECT_TRUE(r.verify.passed) << "threads=" << t;
  }
}

TEST(HplSolve, TraceTimersAreConsistent) {
  HplConfig cfg = base_cfg(128, 16, 2, 2);
  const HplResult r = run(cfg);
  double sum = 0.0;
  for (const auto& it : r.trace.iterations) {
    EXPECT_GE(it.total_s, 0.0);
    EXPECT_GE(it.gpu_s, 0.0);
    sum += it.total_s;
  }
  // Iterations are timed within the overall run.
  EXPECT_LE(sum, r.seconds * 1.5 + 1.0);
  EXPECT_GT(r.gpu_seconds, 0.0);
  EXPECT_GT(r.transfer_seconds, 0.0);
  EXPECT_GT(r.fact_seconds, 0.0);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, EveryMatrixSolves) {
  HplConfig cfg = base_cfg(96, 16, 2, 2);
  cfg.seed = GetParam();
  const HplResult r = run(cfg);
  EXPECT_TRUE(r.verify.passed) << "seed=" << cfg.seed
                               << " residual=" << r.verify.residual;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ull, 2ull, 31337ull,
                                           0xdeadbeefull, 1ull << 62,
                                           987654321ull));

TEST(HplSolve, GridOrderIsARelabelingOnly) {
  // PMAP row- vs column-major must not change the solution.
  HplConfig cfg = base_cfg(96, 16, 2, 2);
  cfg.row_major_grid = false;
  const double col = run(cfg).verify.residual;
  cfg.row_major_grid = true;
  const double row = run(cfg).verify.residual;
  EXPECT_EQ(col, row);
}

TEST(HplSolve, HbmExhaustionSurfacesAsError) {
  HplConfig cfg = base_cfg(256, 16, 1, 1);
  cfg.hbm_bytes = 100 * sizeof(double);  // far too small
  EXPECT_THROW(run(cfg), Error);
}

TEST(HplSolve, WrongRankCountRejected) {
  HplConfig cfg = base_cfg(64, 16, 2, 2);
  EXPECT_THROW(comm::World::run(3, [&](comm::Communicator& world) {
    run_hpl(world, cfg);
  }), Error);
}

}  // namespace
}  // namespace hplx::core
