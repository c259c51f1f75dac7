#include <gtest/gtest.h>

#include <sstream>

#include "core/report.hpp"

namespace hplx::core {
namespace {

HplConfig sample_cfg() {
  HplConfig cfg;
  cfg.n = 35840;
  cfg.nb = 384;
  cfg.p = 2;
  cfg.q = 2;
  cfg.row_major_grid = true;
  cfg.pipeline = PipelineMode::LookaheadSplit;
  cfg.bcast = comm::BcastAlgo::Ring1Mod;
  cfg.fact = FactVariant::RecursiveRight;
  cfg.rfact_nbmin = 16;
  cfg.rfact_ndiv = 2;
  return cfg;
}

TEST(Report, EncodeTvMatchesClassicShape) {
  // W + mapping + depth + bcast + rfact + NDIV + pfact + NBMIN. The
  // recursive variant gets its own letter ('V') so the encoding is
  // lossless: every FactVariant maps to a distinct T/V character.
  EXPECT_EQ(encode_tv(sample_cfg()), "WR11V2R16");
  HplConfig cfg = sample_cfg();
  cfg.row_major_grid = false;
  cfg.pipeline = PipelineMode::Simple;
  cfg.fact = FactVariant::Crout;
  EXPECT_EQ(encode_tv(cfg), "WC01C2C16");
  cfg = sample_cfg();
  cfg.rfact_base = FactVariant::Left;
  EXPECT_EQ(encode_tv(cfg), "WR11V2L16");
  // Non-recursive top-level variants echo themselves in the pfact slot.
  cfg = sample_cfg();
  cfg.fact = FactVariant::Left;
  EXPECT_EQ(encode_tv(cfg), "WR11L2L16");
  cfg.fact = FactVariant::Right;
  EXPECT_EQ(encode_tv(cfg), "WR11R2R16");
}

TEST(Report, ResultLineContainsAllColumns) {
  HplResult r;
  r.seconds = 203.49;
  r.gflops = 14.408;
  r.verify.residual = 0.0051862;
  r.verify.passed = true;
  r.blas = "x86-64-v4 (f64 4x24, f32 4x32)";

  std::ostringstream os;
  print_hpl_result(os, sample_cfg(), r);
  const std::string s = os.str();
  EXPECT_NE(s.find("blas: x86-64-v4 (f64 4x24, f32 4x32)\n"),
            std::string::npos);
  EXPECT_NE(s.find("WR11V2R16"), std::string::npos);
  EXPECT_NE(s.find("35840"), std::string::npos);
  EXPECT_NE(s.find("384"), std::string::npos);
  EXPECT_NE(s.find("203.49"), std::string::npos);
  EXPECT_NE(s.find("1.4408e+01"), std::string::npos);
  EXPECT_NE(s.find("PASSED"), std::string::npos);
  EXPECT_NE(s.find("||Ax-b||_oo"), std::string::npos);
}

TEST(Report, FailedRunSaysFailed) {
  HplResult r;
  r.verify.passed = false;
  r.verify.residual = 123.0;
  std::ostringstream os;
  print_hpl_result(os, sample_cfg(), r);
  EXPECT_NE(os.str().find("FAILED"), std::string::npos);
}

TEST(Report, BannerAndHeaderAndFooter) {
  std::ostringstream os;
  print_hpl_banner(os);
  print_hpl_header(os);
  print_hpl_footer(os, 8, 8);
  const std::string s = os.str();
  EXPECT_NE(s.find("HPLinpack"), std::string::npos);
  EXPECT_NE(s.find("T/V"), std::string::npos);
  EXPECT_NE(s.find("Gflops"), std::string::npos);
  EXPECT_NE(s.find("8 tests completed and passed"), std::string::npos);
  EXPECT_NE(s.find("End of Tests."), std::string::npos);
}

TEST(Report, PhaseBreakdownShowsAllPhases) {
  HplResult r;
  r.seconds = 10.0;
  r.gpu_seconds = 8.0;
  r.fact_seconds = 3.0;
  r.mpi_seconds = 2.0;
  r.transfer_seconds = 1.0;
  std::ostringstream os;
  print_phase_breakdown(os, r);
  const std::string s = os.str();
  EXPECT_NE(s.find("GPU kernels"), std::string::npos);
  EXPECT_NE(s.find("CPU panel factorization"), std::string::npos);
  EXPECT_NE(s.find("80.0 %"), std::string::npos);   // 8/10
  EXPECT_NE(s.find("30.0 %"), std::string::npos);   // 3/10
}

TEST(Report, GpuShareIsOfEveryUpdateStream) {
  // Four streams each busy 9 of the 10 wall seconds: the pool's summed
  // busy time is 36 s, which is 90% of the four streams' capacity.
  HplResult r;
  r.seconds = 10.0;
  r.gpu_seconds = 36.0;
  r.stream_busy_seconds.assign(4, 9.0);
  r.stream_real_seconds.assign(4, 9.0);
  std::ostringstream os;
  print_phase_breakdown(os, r);
  const std::string s = os.str();
  const auto row = s.find("GPU kernels (4 streams)");
  ASSERT_NE(row, std::string::npos) << s;
  const std::string line = s.substr(row, s.find('\n', row) - row);
  EXPECT_NE(line.find("36.000 s"), std::string::npos) << line;
  EXPECT_NE(line.find(" 90.0 %"), std::string::npos) << line;
}

TEST(Report, FooterCountsFailures) {
  std::ostringstream os;
  print_hpl_footer(os, 5, 3);
  EXPECT_NE(os.str().find("2 tests completed and failed"),
            std::string::npos);
}

}  // namespace
}  // namespace hplx::core
