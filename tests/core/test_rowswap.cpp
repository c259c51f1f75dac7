#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "comm/world.hpp"
#include "core/driver.hpp"
#include "core/rowswap.hpp"

namespace hplx::core {
namespace {

TEST(RowSwapPlan, IdentityPivotsProduceNoTraffic) {
  const long j = 8;
  const int jb = 4;
  const long ipiv[] = {8, 9, 10, 11};
  const auto plan = build_rowswap_plan(j, jb, ipiv);
  EXPECT_TRUE(plan.displaced.empty());
  for (int k = 0; k < jb; ++k)
    EXPECT_EQ(plan.u_source[static_cast<std::size_t>(k)], j + k);
}

TEST(RowSwapPlan, SimpleDistinctPivots) {
  // Rows 20, 31, 17 swap into slots 8, 9, 10.
  const long j = 8;
  const int jb = 3;
  const long ipiv[] = {20, 31, 17};
  const auto plan = build_rowswap_plan(j, jb, ipiv);
  EXPECT_EQ(plan.u_source[0], 20);
  EXPECT_EQ(plan.u_source[1], 31);
  EXPECT_EQ(plan.u_source[2], 17);
  // Each pivot slot receives the displaced top row.
  ASSERT_EQ(plan.displaced.size(), 3u);
  // sorted by destination slot: 17 < 20 < 31
  EXPECT_EQ(plan.displaced[0].first, 17);
  EXPECT_EQ(plan.displaced[0].second, 10);
  EXPECT_EQ(plan.displaced[1].first, 20);
  EXPECT_EQ(plan.displaced[1].second, 8);
  EXPECT_EQ(plan.displaced[2].first, 31);
  EXPECT_EQ(plan.displaced[2].second, 9);
}

TEST(RowSwapPlan, ChainedSwapsWithinTopBlock) {
  // k=0 picks row 2 (inside the top block), k=1 picks row 10, k=2 self.
  const long j = 0;
  const int jb = 3;
  const long ipiv[] = {2, 10, 2};
  // Replay: swap(0,2): content 0<->2. swap(1,10): 1<->10.
  // swap(2,2): nothing — slot 2 holds original row 0.
  const auto plan = build_rowswap_plan(j, jb, ipiv);
  EXPECT_EQ(plan.u_source[0], 2);
  EXPECT_EQ(plan.u_source[1], 10);
  EXPECT_EQ(plan.u_source[2], 0);
  ASSERT_EQ(plan.displaced.size(), 1u);
  EXPECT_EQ(plan.displaced[0].first, 10);   // slot 10 gets
  EXPECT_EQ(plan.displaced[0].second, 1);   // original row 1
}

TEST(RowSwapPlan, SwapsMatchSequentialApplication) {
  // Property: applying the plan must equal applying swaps sequentially.
  const long j = 4;
  const int jb = 5;
  const long n = 24;
  const long ipiv[] = {9, 5, 23, 9, 8};
  const auto plan = build_rowswap_plan(j, jb, ipiv);

  // Sequential: rows as single values.
  std::vector<long> seq(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) seq[static_cast<std::size_t>(i)] = i;
  for (int k = 0; k < jb; ++k)
    std::swap(seq[static_cast<std::size_t>(j + k)],
              seq[static_cast<std::size_t>(ipiv[k])]);

  // Plan-based: U rows + displaced.
  for (int k = 0; k < jb; ++k)
    EXPECT_EQ(plan.u_source[static_cast<std::size_t>(k)],
              seq[static_cast<std::size_t>(j + k)]);
  std::vector<long> rebuilt(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) rebuilt[static_cast<std::size_t>(i)] = i;
  for (const auto& [dest, src] : plan.displaced)
    rebuilt[static_cast<std::size_t>(dest)] = src;
  for (long i = 0; i < n; ++i) {
    if (i >= j && i < j + jb) continue;
    EXPECT_EQ(rebuilt[static_cast<std::size_t>(i)],
              seq[static_cast<std::size_t>(i)])
        << "slot " << i;
  }
}

TEST(RowSwapPlan, PivotAboveCurrentRowRejected) {
  const long ipiv[] = {3};
  EXPECT_THROW(build_rowswap_plan(8, 1, ipiv), Error);
}

// ---------------------------------------------------------------------------
// Stream-count equivalence: the update-stream count chooses where the
// trailing update runs and when the U unpacks are enqueued relative to
// it, never the arithmetic. Every count must reproduce the default
// configuration's factorization bit for bit.

HplConfig sweep_cfg(long n, int nb, int p, int q) {
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

HplResult run_cfg(const HplConfig& cfg) {
  HplResult out;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    HplResult r = run_hpl(world, cfg);
    if (world.rank() == 0) out = std::move(r);
  });
  return out;
}

using PipeShape = std::tuple<int /*p*/, int /*q*/, PipelineMode>;

class RowSwapPipelineSweep : public ::testing::TestWithParam<PipeShape> {};

TEST_P(RowSwapPipelineSweep, StreamCountsAgreeBitwise) {
  const auto [p, q, mode] = GetParam();

  // Reference: the shipping default (one update stream).
  HplConfig ref = sweep_cfg(96, 16, p, q);
  ref.pipeline = mode;
  const HplResult r0 = run_cfg(ref);
  ASSERT_TRUE(r0.verify.passed) << "reference residual=" << r0.verify.residual;

  for (const int streams : {2, 3}) {
    HplConfig cfg = ref;
    cfg.update_streams = streams;
    const HplResult r = run_cfg(cfg);
    EXPECT_TRUE(r.verify.passed)
        << "streams=" << streams << " residual=" << r.verify.residual;
    // The scaled residual is a deterministic function of x: identical
    // factors → identical residual.
    EXPECT_EQ(r0.verify.residual, r.verify.residual) << "streams=" << streams;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModes, RowSwapPipelineSweep,
    ::testing::Values(PipeShape{1, 2, PipelineMode::Lookahead},
                      PipeShape{2, 1, PipelineMode::Lookahead},
                      PipeShape{2, 2, PipelineMode::LookaheadSplit},
                      PipeShape{2, 1, PipelineMode::Simple}));

}  // namespace
}  // namespace hplx::core
