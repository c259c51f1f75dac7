#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/hpldat.hpp"
#include "util/error.hpp"

namespace hplx::core {
namespace {

const char kClassic[] =
    "HPLinpack benchmark input file\n"
    "Innovative Computing Laboratory, University of Tennessee\n"
    "HPL.out      output file name (if any)\n"
    "6            device out (6=stdout,7=stderr,file)\n"
    "4            # of problems sizes (N)\n"
    "29 30 34 35  Ns\n"
    "4            # of NBs\n"
    "1 2 3 4      NBs\n"
    "0            PMAP process mapping (0=Row-,1=Column-major)\n"
    "3            # of process grids (P x Q)\n"
    "2 1 4        Ps\n"
    "2 4 1        Qs\n"
    "16.0         threshold\n"
    "3            # of panel fact\n"
    "0 1 2        PFACTs (0=left, 1=Crout, 2=Right)\n"
    "2            # of recursive stopping criterium\n"
    "2 4          NBMINs (>= 1)\n"
    "1            # of panels in recursion\n"
    "2            NDIVs\n"
    "3            # of recursive panel fact.\n"
    "0 1 2        RFACTs (0=left, 1=Crout, 2=Right)\n"
    "1            # of lookahead depth\n"
    "1            DEPTHs (>=0)\n"
    "2            # of broadcast\n"
    "1 3          BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)\n"
    "1            SWAP (0=bin-exch,1=long,2=mix)\n"
    "64           swapping threshold\n"
    "0            L1 in (0=transposed,1=no-transposed) form\n"
    "0            U  in (0=transposed,1=no-transposed) form\n"
    "1            Equilibration (0=no,1=yes)\n"
    "8            memory alignment in double (> 0)\n";

TEST(HplDat, ParsesTheCanonicalNetlibFile) {
  const HplDat dat = parse_hpldat_string(kClassic);
  EXPECT_EQ(dat.output_file, "HPL.out");
  EXPECT_EQ(dat.device_out, 6);
  EXPECT_EQ(dat.ns, (std::vector<long>{29, 30, 34, 35}));
  EXPECT_EQ(dat.nbs, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_TRUE(dat.base.row_major_grid);
  EXPECT_EQ(dat.ps, (std::vector<int>{2, 1, 4}));
  EXPECT_EQ(dat.qs, (std::vector<int>{2, 4, 1}));
  EXPECT_DOUBLE_EQ(dat.threshold, 16.0);
  ASSERT_EQ(dat.pfacts.size(), 3u);
  EXPECT_EQ(dat.pfacts[0], FactVariant::Left);
  EXPECT_EQ(dat.pfacts[1], FactVariant::Crout);
  EXPECT_EQ(dat.pfacts[2], FactVariant::Right);
  EXPECT_EQ(dat.nbmins, (std::vector<int>{2, 4}));
  EXPECT_EQ(dat.ndivs, (std::vector<int>{2}));
  EXPECT_EQ(dat.depths, (std::vector<int>{1}));
  ASSERT_EQ(dat.bcasts.size(), 2u);
  EXPECT_EQ(dat.bcasts[0], comm::BcastAlgo::Ring1Mod);
  EXPECT_EQ(dat.bcasts[1], comm::BcastAlgo::Ring2Mod);
  EXPECT_EQ(dat.swap, 1);
  EXPECT_EQ(dat.swap_threshold, 64);
  EXPECT_TRUE(dat.l1_transposed);
  EXPECT_TRUE(dat.equilibration);
  EXPECT_EQ(dat.alignment, 8);
  // Extension lines absent -> defaults.
  EXPECT_DOUBLE_EQ(dat.base.split_fraction, 0.5);
  EXPECT_EQ(dat.base.fact_threads, 1);
}

TEST(HplDat, ParsesRocHplExtensionLines) {
  std::string text = kClassic;
  text += "0.625        split fraction\n4            FACT threads\n";
  const HplDat dat = parse_hpldat_string(text);
  EXPECT_DOUBLE_EQ(dat.base.split_fraction, 0.625);
  EXPECT_EQ(dat.base.fact_threads, 4);
}

TEST(HplDat, ExpandEnumeratesTheCartesianSweep) {
  const HplDat dat = parse_hpldat_string(kClassic);
  const auto cfgs = expand_configs(dat);
  // grids(3) × N(4) × NB(4) × pfact(3) × rfact(3) × nbmin(2) × ndiv(1)
  // × depth(1) × bcast(2) — PFACTs and RFACTs each sweep independently:
  // RFACT is the top-level variant, PFACT the recursion-leaf base.
  EXPECT_EQ(cfgs.size(), 3u * 4 * 4 * 3 * 3 * 2 * 1 * 1 * 2);
  // Spot-check the first config.
  const HplConfig& c = cfgs.front();
  EXPECT_EQ(c.n, 29);
  EXPECT_EQ(c.nb, 1);
  EXPECT_EQ(c.p, 2);
  EXPECT_EQ(c.q, 2);
  EXPECT_TRUE(c.row_major_grid);
  EXPECT_EQ(c.pipeline, PipelineMode::LookaheadSplit);
  EXPECT_EQ(c.fact, FactVariant::Left);
  EXPECT_EQ(c.rfact_base, FactVariant::Left);
  EXPECT_EQ(c.pivoting, PivotMode::Full);
  EXPECT_FALSE(c.diag_dominant);
  EXPECT_EQ(c.nrhs, 1);
}

TEST(HplDat, FactCodeRoundTripsEveryVariant) {
  // Code 3 (the hplx recursive extension) must survive parse → format →
  // parse like the three classic codes — fact_to_code used to fold it
  // into 2, silently rewriting recursive sweeps as Right-looking ones.
  std::string text = kClassic;
  auto pos = text.find("3            # of panel fact");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 1, "4");
  pos = text.find("0 1 2        PFACTs");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "0 1 2 3");
  pos = text.find("3            # of recursive panel fact.");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 1, "4");
  pos = text.find("0 1 2        RFACTs");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "3 2 1 0");

  const HplDat dat = parse_hpldat_string(text);
  const std::vector<FactVariant> all = {
      FactVariant::Left, FactVariant::Crout, FactVariant::Right,
      FactVariant::RecursiveRight};
  EXPECT_EQ(dat.pfacts, all);
  EXPECT_EQ(dat.rfacts,
            (std::vector<FactVariant>{
                FactVariant::RecursiveRight, FactVariant::Right,
                FactVariant::Crout, FactVariant::Left}));

  const HplDat again = parse_hpldat_string(format_hpldat(dat));
  EXPECT_EQ(again.pfacts, dat.pfacts);
  EXPECT_EQ(again.rfacts, dat.rfacts);
}

TEST(HplDat, BadFactCodeThrows) {
  std::string text = kClassic;
  const auto pos = text.find("0 1 2        PFACTs");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "0 1 4");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, DepthZeroMapsToSimplePipeline) {
  std::string text = kClassic;
  const auto pos = text.find("1            DEPTHs");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '0';
  const auto cfgs = expand_configs(parse_hpldat_string(text));
  for (const auto& c : cfgs) EXPECT_EQ(c.pipeline, PipelineMode::Simple);
}

TEST(HplDat, RoundTripsThroughFormat) {
  const HplDat dat = parse_hpldat_string(kClassic);
  const std::string text = format_hpldat(dat);
  const HplDat again = parse_hpldat_string(text);
  EXPECT_EQ(again.ns, dat.ns);
  EXPECT_EQ(again.nbs, dat.nbs);
  EXPECT_EQ(again.ps, dat.ps);
  EXPECT_EQ(again.qs, dat.qs);
  EXPECT_EQ(again.nbmins, dat.nbmins);
  EXPECT_EQ(again.pfacts, dat.pfacts);
  EXPECT_EQ(again.rfacts, dat.rfacts);
  EXPECT_EQ(again.bcasts, dat.bcasts);
  EXPECT_EQ(again.depths, dat.depths);
  EXPECT_EQ(again.swap, dat.swap);
  EXPECT_EQ(again.swap_threshold, dat.swap_threshold);
  EXPECT_DOUBLE_EQ(again.threshold, dat.threshold);
}

// Every extension line, in order: each live knob set to a non-default
// value, each retired line at the only value it accepts.
const char kAllExtensions[] =
    "0.625        split fraction\n"
    "4            FACT threads\n"
    "3            BLAS threads\n"
    "32768        eager threshold bytes\n"
    "256          swap tile cols\n"
    "0            kernel threads\n"
    "3            update streams\n"
    "0            update band cols\n"
    "1            hazard check\n"
    "1            swap wire format\n"
    "262144       swap chunk bytes\n"
    "mxp32        precision\n"
    "12           IR max iters\n"
    "8.0          IR tolerance\n"
    "1            pivoting\n"
    "1            diag dominant\n"
    "4            RHS count\n"
    "1            alloc pool\n"
    "-1           alloc cache bytes\n"
    "1            comm check\n";

/// Every HplConfig field except custom_bcast and dev_model, which an
/// HPL.dat cannot set.
void expect_same_config(const HplConfig& a, const HplConfig& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.nb, b.nb);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.row_major_grid, b.row_major_grid);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.pipeline, b.pipeline);
  EXPECT_DOUBLE_EQ(a.split_fraction, b.split_fraction);
  EXPECT_EQ(a.bcast, b.bcast);
  EXPECT_EQ(a.pivoting, b.pivoting);
  EXPECT_EQ(a.nrhs, b.nrhs);
  EXPECT_EQ(a.diag_dominant, b.diag_dominant);
  EXPECT_EQ(a.fact, b.fact);
  EXPECT_EQ(a.rfact_base, b.rfact_base);
  EXPECT_EQ(a.rfact_nbmin, b.rfact_nbmin);
  EXPECT_EQ(a.rfact_ndiv, b.rfact_ndiv);
  EXPECT_EQ(a.fact_threads, b.fact_threads);
  EXPECT_EQ(a.blas_threads, b.blas_threads);
  EXPECT_EQ(a.update_streams, b.update_streams);
  EXPECT_EQ(a.hbm_bytes, b.hbm_bytes);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.ir_max_iters, b.ir_max_iters);
  EXPECT_DOUBLE_EQ(a.ir_tol, b.ir_tol);
  EXPECT_EQ(a.verify, b.verify);
  EXPECT_EQ(a.hazard_check, b.hazard_check);
  EXPECT_EQ(a.comm_check, b.comm_check);
}

TEST(HplDat, ParsesEveryExtensionKnob) {
  const HplDat dat = parse_hpldat_string(std::string(kClassic) +
                                         kAllExtensions);
  const HplConfig& c = dat.base;
  EXPECT_DOUBLE_EQ(c.split_fraction, 0.625);
  EXPECT_EQ(c.fact_threads, 4);
  EXPECT_EQ(c.blas_threads, 3);
  EXPECT_EQ(c.update_streams, 3);
  EXPECT_TRUE(c.hazard_check);
  EXPECT_EQ(c.precision, PrecisionMode::MXP32);
  EXPECT_EQ(c.ir_max_iters, 12);
  EXPECT_DOUBLE_EQ(c.ir_tol, 8.0);
  EXPECT_EQ(c.pivoting, PivotMode::None);
  EXPECT_TRUE(c.diag_dominant);
  EXPECT_EQ(c.nrhs, 4);
  EXPECT_TRUE(c.comm_check);
}

TEST(HplDat, EveryKnobRoundTripsThroughFormat) {
  const HplDat dat = parse_hpldat_string(std::string(kClassic) +
                                         kAllExtensions);
  const HplDat again = parse_hpldat_string(format_hpldat(dat));
  // Classic fields.
  EXPECT_EQ(again.output_file, dat.output_file);
  EXPECT_EQ(again.device_out, dat.device_out);
  EXPECT_EQ(again.ns, dat.ns);
  EXPECT_EQ(again.nbs, dat.nbs);
  EXPECT_EQ(again.ps, dat.ps);
  EXPECT_EQ(again.qs, dat.qs);
  EXPECT_DOUBLE_EQ(again.threshold, dat.threshold);
  EXPECT_EQ(again.swap, dat.swap);
  EXPECT_EQ(again.swap_threshold, dat.swap_threshold);
  EXPECT_EQ(again.pfacts, dat.pfacts);
  EXPECT_EQ(again.nbmins, dat.nbmins);
  EXPECT_EQ(again.ndivs, dat.ndivs);
  EXPECT_EQ(again.rfacts, dat.rfacts);
  EXPECT_EQ(again.depths, dat.depths);
  EXPECT_EQ(again.bcasts, dat.bcasts);
  EXPECT_EQ(again.l1_transposed, dat.l1_transposed);
  EXPECT_EQ(again.u_transposed, dat.u_transposed);
  EXPECT_EQ(again.equilibration, dat.equilibration);
  EXPECT_EQ(again.alignment, dat.alignment);
  // Everything else lives in the base config.
  expect_same_config(again.base, dat.base);
}

TEST(HplDat, CommCheckExpandsIntoConfigs) {
  const HplDat dat = parse_hpldat_string(std::string(kClassic) +
                                         kAllExtensions);
  for (const HplConfig& cfg : expand_configs(dat)) {
    EXPECT_TRUE(cfg.comm_check);
  }
}

TEST(HplDat, BadCommCheckThrows) {
  std::string text = std::string(kClassic) + kAllExtensions;
  text.replace(text.rfind("1            comm check"), 1, "7");
  EXPECT_THROW(parse_hpldat_string(text), hplx::Error);
}

TEST(HplDat, PrecisionExpandsIntoConfigs) {
  const auto cfgs = expand_configs(parse_hpldat_string(
      std::string(kClassic) + kAllExtensions));
  for (const auto& c : cfgs) {
    EXPECT_EQ(c.precision, PrecisionMode::MXP32);
    EXPECT_EQ(c.ir_max_iters, 12);
    EXPECT_DOUBLE_EQ(c.ir_tol, 8.0);
    EXPECT_EQ(c.pivoting, PivotMode::None);
    EXPECT_TRUE(c.diag_dominant);
    EXPECT_EQ(c.nrhs, 4);
  }
}

TEST(HplDat, RemovedSwapChoicesThrow) {
  // Both lines stay in the positional format, but only wire format 1
  // (col-major) and the 262144-byte chunk line parse.
  std::string wire = std::string(kClassic) + kAllExtensions;
  const auto wpos = wire.find("1            swap wire format");
  ASSERT_NE(wpos, std::string::npos);
  wire[wpos] = '0';
  EXPECT_THROW(parse_hpldat_string(wire), Error);

  for (const char* bad : {"-1    ", "0     "}) {
    std::string chunk = std::string(kClassic) + kAllExtensions;
    const auto cpos = chunk.find("262144       swap chunk bytes");
    ASSERT_NE(cpos, std::string::npos);
    chunk.replace(cpos, 6, bad);
    EXPECT_THROW(parse_hpldat_string(chunk), Error) << bad;
  }
}

TEST(HplDat, FormatWritesRetiredLinesAtTheirValues) {
  const HplDat dat = parse_hpldat_string(kClassic);
  const std::string out = format_hpldat(dat);
  for (const char* line :
       {"32768  eager threshold bytes", "256  swap tile cols",
        "\n0  kernel threads", "\n0  update band cols",
        "1  swap wire format", "262144  swap chunk bytes", "1  alloc pool",
        "-1  alloc cache bytes"})
    EXPECT_NE(out.find(line), std::string::npos) << line;
  // ...so the formatter's output parses again.
  EXPECT_EQ(expand_configs(parse_hpldat_string(out)).size(),
            expand_configs(dat).size());
}

// What format_hpldat wrote, before the retired lines were retired, for a
// file with no extension lines: every extension line at its default.
const char kOldFormatDefaults[] =
    "HPLinpack benchmark input file\n"
    "hplx reproduction of rocHPL (SC 2023)\n"
    "HPL.out  output file name (if any)\n"
    "6  device out (6=stdout,7=stderr,file)\n"
    "1  # of problems sizes (N)\n"
    "96  Ns\n"
    "2  # of NBs\n"
    "16 32  NBs\n"
    "1  PMAP process mapping (0=Row-,1=Column-major)\n"
    "2  # of process grids (P x Q)\n"
    "2 1  Ps\n"
    "2 4  Qs\n"
    "16  threshold\n"
    "1  # of panel fact\n"
    "2  PFACTs (0=left, 1=Crout, 2=Right, 3=recursive)\n"
    "1  # of recursive stopping criterium\n"
    "8  NBMINs (>= 1)\n"
    "1  # of panels in recursion\n"
    "2  NDIVs\n"
    "1  # of recursive panel fact.\n"
    "3  RFACTs (0=left, 1=Crout, 2=Right, 3=recursive)\n"
    "2  # of lookahead depth\n"
    "0 1  DEPTHs (>=0)\n"
    "1  # of broadcast\n"
    "1  BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)\n"
    "2  SWAP (0=bin-exch,1=long,2=mix)\n"
    "64  swapping threshold\n"
    "0  L1 in (0=transposed,1=no) form\n"
    "0  U  in (0=transposed,1=no) form\n"
    "1  Equilibration (0=no,1=yes)\n"
    "8  memory alignment in double (> 0)\n"
    "0.5  split fraction (rocHPL extension)\n"
    "1  FACT threads (rocHPL extension)\n"
    "0  BLAS threads (hplx extension, 0=inherit)\n"
    "32768  eager threshold bytes (hplx extension)\n"
    "256  swap tile cols (hplx extension, 0=autotune)\n"
    "0  kernel threads (hplx extension, 0=whole team)\n"
    "1  update streams (hplx extension, >=1)\n"
    "0  update band cols (hplx extension, 0=even split)\n"
    "0  hazard check (hplx extension, 0=off,1=on)\n"
    "1  swap wire format (hplx extension, 1=col-major)\n"
    "262144  swap chunk bytes (hplx extension, 0=autotune)\n"
    "fp64  precision (hplx extension, fp64|mxp32|mxp16-sim)\n"
    "30  IR max iters (hplx extension, mxp modes)\n"
    "16  IR tolerance (hplx extension, scaled residual)\n"
    "0  pivoting (hplx extension, 0=full,1=none)\n"
    "0  diag dominant (hplx extension, 0=no,1=yes)\n"
    "1  RHS count (hplx extension, >=1)\n"
    "1  alloc pool (hplx extension, 0=passthrough,1=pooled)\n"
    "-1  alloc cache bytes (hplx extension, <0=unbounded)\n"
    "0  comm check (hplx extension, 0=off,1=on)\n";

// What format_hpldat wrote, while SWAP, the swapping threshold and the
// swap chunk bytes were still HplConfig knobs, for the same sweep at
// default settings.
const char kSwapKnobFormatDefaults[] =
    "HPLinpack benchmark input file\n"
    "hplx reproduction of rocHPL (SC 2023)\n"
    "HPL.out  output file name (if any)\n"
    "6  device out (6=stdout,7=stderr,file)\n"
    "1  # of problems sizes (N)\n"
    "96  Ns\n"
    "2  # of NBs\n"
    "16 32  NBs\n"
    "1  PMAP process mapping (0=Row-,1=Column-major)\n"
    "2  # of process grids (P x Q)\n"
    "2 1  Ps\n"
    "2 4  Qs\n"
    "16  threshold\n"
    "1  # of panel fact\n"
    "2  PFACTs (0=left, 1=Crout, 2=Right, 3=recursive)\n"
    "1  # of recursive stopping criterium\n"
    "8  NBMINs (>= 1)\n"
    "1  # of panels in recursion\n"
    "2  NDIVs\n"
    "1  # of recursive panel fact.\n"
    "3  RFACTs (0=left, 1=Crout, 2=Right, 3=recursive)\n"
    "2  # of lookahead depth\n"
    "0 1  DEPTHs (>=0)\n"
    "1  # of broadcast\n"
    "1  BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)\n"
    "1  SWAP (0=bin-exch,1=long,2=mix)\n"
    "64  swapping threshold\n"
    "0  L1 in (0=transposed,1=no) form\n"
    "0  U  in (0=transposed,1=no) form\n"
    "1  Equilibration (0=no,1=yes)\n"
    "8  memory alignment in double (> 0)\n"
    "0.5  split fraction (rocHPL extension)\n"
    "1  FACT threads (rocHPL extension)\n"
    "0  BLAS threads (hplx extension, 0=inherit)\n"
    "32768  eager threshold bytes (retired, must be 32768)\n"
    "256  swap tile cols (retired, must be 256)\n"
    "0  kernel threads (retired, must be 0)\n"
    "1  update streams (hplx extension, 1-8)\n"
    "0  update band cols (hplx extension, 0=even split)\n"
    "0  hazard check (hplx extension, 0=off,1=on)\n"
    "1  swap wire format (retired, must be 1)\n"
    "262144  swap chunk bytes (hplx extension, >=1)\n"
    "fp64  precision (hplx extension, fp64|mxp32|mxp16-sim)\n"
    "30  IR max iters (hplx extension, mxp modes)\n"
    "16  IR tolerance (hplx extension, scaled residual)\n"
    "0  pivoting (hplx extension, 0=full,1=none)\n"
    "0  diag dominant (hplx extension, 0=no,1=yes)\n"
    "1  RHS count (hplx extension, >=1)\n"
    "1  alloc pool (retired, must be 1)\n"
    "-1  alloc cache bytes (retired, must be -1)\n"
    "0  comm check (hplx extension, 0=off,1=on)\n";

TEST(HplDat, OldFormatWithDefaultExtensionsParsesToTheSameConfigs) {
  for (const char* old : {kOldFormatDefaults, kSwapKnobFormatDefaults}) {
    // The same sweep with every extension line absent (all defaults).
    std::string classic_only = old;
    classic_only.resize(classic_only.find("0.5  split fraction"));
    const auto want = expand_configs(parse_hpldat_string(classic_only));
    const auto got = expand_configs(parse_hpldat_string(old));
    ASSERT_EQ(got.size(), 8u);  // 2 grids x 2 NBs x 2 depths
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_config(got[i], want[i]);
    }
    const HplConfig& c = got.front();
    EXPECT_FALSE(c.row_major_grid);
    EXPECT_EQ(c.fact, FactVariant::RecursiveRight);
    EXPECT_EQ(c.rfact_base, FactVariant::Right);
    EXPECT_EQ(c.rfact_nbmin, 8);
    EXPECT_EQ(c.pipeline, PipelineMode::Simple);
    EXPECT_EQ(got[1].pipeline, PipelineMode::LookaheadSplit);
  }
  EXPECT_EQ(parse_hpldat_string(kOldFormatDefaults).swap, 2);
  EXPECT_EQ(parse_hpldat_string(kSwapKnobFormatDefaults).swap, 1);
}

TEST(HplDat, SwapCodesExpandToIdenticalConfigs) {
  // SWAP and the swapping threshold are parsed, range-checked and written
  // back, but every code runs the same row swap.
  const auto with_swap = [](const char* code, const char* threshold) {
    std::string text = kClassic;
    text.replace(text.find("1            SWAP"), 1, code);
    text.replace(text.find("64           swapping"), 2, threshold);
    return text;
  };
  const auto want = expand_configs(parse_hpldat_string(kClassic));
  for (const char* code : {"0", "1", "2"}) {
    const HplDat dat = parse_hpldat_string(with_swap(code, "40"));
    EXPECT_EQ(dat.swap, code[0] - '0');
    EXPECT_EQ(dat.swap_threshold, 40);
    const HplDat again = parse_hpldat_string(format_hpldat(dat));
    EXPECT_EQ(again.swap, dat.swap);
    EXPECT_EQ(again.swap_threshold, 40);
    const auto got = expand_configs(dat);
    ASSERT_EQ(got.size(), want.size()) << "SWAP " << code;
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_config(got[i], want[i]);
    }
  }
  for (const char* bad : {"3", "x"})
    EXPECT_THROW(parse_hpldat_string(with_swap(bad, "64")), Error) << bad;
}

TEST(HplDat, RetiredLineWithAnotherValueThrowsNamingTheLine) {
  struct Retired {
    const char* line;  // as written in kAllExtensions
    const char* other;
    const char* name;
  };
  const Retired retired[] = {
      {"32768        eager threshold bytes", "65536", "eager threshold"},
      {"256          swap tile cols", "0  ", "swap tile cols"},
      {"0            kernel threads", "2", "kernel threads"},
      {"0            update band cols", "48", "update band cols"},
      {"1            swap wire format", "0", "swap wire format"},
      {"262144       swap chunk bytes", "131072", "swap chunk bytes"},
      {"1            alloc pool", "0", "alloc pool"},
      {"-1           alloc cache bytes", "1048576", "alloc cache bytes"},
  };
  for (const Retired& r : retired) {
    std::string text = std::string(kClassic) + kAllExtensions;
    const auto pos = text.find(r.line);
    ASSERT_NE(pos, std::string::npos) << r.line;
    const std::string value(r.line, std::string(r.line).find(' '));
    text.replace(pos, value.size(), r.other);
    try {
      parse_hpldat_string(text);
      ADD_FAILURE() << r.name << " = " << r.other << " parsed";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(r.name), std::string::npos) << what;
      EXPECT_NE(what.find("retired"), std::string::npos) << what;
    }
  }
}

TEST(HplDat, BadPivotingThrows) {
  std::string text = std::string(kClassic) + kAllExtensions;
  const auto pos = text.find("1            pivoting");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '2';
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, BadNrhsThrows) {
  std::string text = std::string(kClassic) + kAllExtensions;
  const auto pos = text.find("4            RHS count");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '0';
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, BadPrecisionThrows) {
  std::string text = kClassic;
  text += "0.5 split\n1 fact\n0 blas\n32768 eager\n256 tile\n0 kthreads\n"
          "1 streams\n0 band\n0 hazard\n1 wire\n262144 chunk\n"
          "fp42 precision\n";
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, SimulatorOnlyPrecisionThrowsSayingSo) {
  std::string text = std::string(kClassic) + kAllExtensions;
  const auto pos = text.find("mxp32        precision");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "mxp16-sim");
  try {
    parse_hpldat_string(text);
    ADD_FAILURE() << "precision mxp16-sim parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("simulator-only"), std::string::npos)
        << e.what();
  }
}

TEST(HplDat, TruncatedFileThrows) {
  const std::string text(kClassic, kClassic + 200);
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, MalformedCountThrows) {
  std::string text = kClassic;
  const auto pos = text.find("4            # of problems");
  text.replace(pos, 1, "x");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, ShortListThrows) {
  std::string text = kClassic;
  const auto pos = text.find("29 30 34 35");
  text.replace(pos, 11, "29 30      ");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, BadBcastCodeThrows) {
  std::string text = kClassic;
  const auto pos = text.find("1 3          BCASTs");
  text.replace(pos, 3, "1 9");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, UnsupportedDepthThrows) {
  std::string text = kClassic;
  const auto pos = text.find("1            DEPTHs");
  text[pos] = '3';
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

// ---------------------------------------------------------------- tokens

TEST(HplDat, NbBeyondIntRangeThrows) {
  // 2^32 fits a `long` but not NB's int; it must not narrow to NB = 0.
  std::string text = kClassic;
  const auto pos = text.find("1 2 3 4      NBs");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 7, "1 2 3 4294967296");
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, FactThreadsBeyondIntRangeThrows) {
  // 2^32 + 1 must not narrow to 1 FACT thread.
  std::string text = kClassic;
  text += "0.5          split fraction\n4294967297   FACT threads\n";
  EXPECT_THROW(parse_hpldat_string(text), Error);
}

TEST(HplDat, PartiallyNumericTokenThrows) {
  // `3x` is not 3: the whole token must be the number.
  EXPECT_THROW(parse_hpldat_string(std::string(kClassic) +
                                   "0.5  split fraction\n3x  FACT threads\n"),
               Error);
  EXPECT_THROW(
      parse_hpldat_string(std::string(kClassic) + "0.5x  split fraction\n"),
      Error);
  std::string list = kClassic;
  const auto pos = list.find("29 30 34 35");
  ASSERT_NE(pos, std::string::npos);
  list.replace(pos, 11, "29 30 3x 35");
  EXPECT_THROW(parse_hpldat_string(list), Error);
}

TEST(HplDat, UpdateStreamsAboveRecordCapacityThrows) {
  for (const char* bad : {"9  ", "100", "0  "}) {
    std::string text = std::string(kClassic) + kAllExtensions;
    const auto pos = text.find("3            update streams");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 3, bad);
    EXPECT_THROW(parse_hpldat_string(text), Error) << bad;
  }
}

TEST(HplDat, NonFiniteIrToleranceThrows) {
  for (const char* bad : {"inf", "nan"}) {
    std::string text = std::string(kClassic) + kAllExtensions;
    const auto pos = text.find("8.0          IR tolerance");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 3, bad);
    EXPECT_THROW(parse_hpldat_string(text), Error) << bad;
  }
}

// ------------------------------------------------------------- mutation

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  return lines;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string t; in >> t;) tokens.push_back(t);
  return tokens;
}

TEST(HplDat, SeededMutantsThrowOrExpandToValidConfigs) {
  // A first step towards fuzzing the parser: every mutant of a valid file
  // must either be rejected by the parser or yield only configs that
  // validate_config accepts. (Whether nrhs fits the trailing block of an
  // N x NB pair is a shape check run_hpl makes on top of it.)
  const std::vector<std::string> lines = split_lines(format_hpldat(
      parse_hpldat_string(std::string(kClassic) + kAllExtensions)));
  const char* const kTokens[] = {"-1",  "0",     "nan",
                                 "inf", "1e308", "9223372036854775808",
                                 "abc", ""};
  std::mt19937_64 rng(20231113);
  int threw = 0, parsed = 0;
  for (int m = 0; m < 2000; ++m) {
    std::vector<std::string> mutant = lines;
    const std::size_t at = rng() % mutant.size();
    switch (rng() % 4) {
      case 0:  // drop a line
        mutant.erase(mutant.begin() + static_cast<long>(at));
        break;
      case 1:  // duplicate a line
        mutant.insert(mutant.begin() + static_cast<long>(at), mutant[at]);
        break;
      case 2:  // truncate the file after this line
        mutant.resize(at + 1);
        break;
      default: {  // replace one token of the line
        std::vector<std::string> tokens = split_tokens(mutant[at]);
        if (tokens.empty()) break;
        tokens[rng() % tokens.size()] = kTokens[rng() % std::size(kTokens)];
        std::string joined;
        for (const std::string& t : tokens) joined += t + " ";
        mutant[at] = joined;
        break;
      }
    }
    std::string text;
    for (const std::string& l : mutant) text += l + "\n";
    std::vector<HplConfig> cfgs;
    try {
      cfgs = expand_configs(parse_hpldat_string(text));
    } catch (const Error&) {
      ++threw;
      continue;
    }
    ++parsed;
    for (const HplConfig& c : cfgs) {
      try {
        validate_config(c);
      } catch (const Error& e) {
        ADD_FAILURE() << "mutant " << m << " parsed to a config run_hpl "
                      << "rejects: " << e.what() << "\n" << text;
        return;
      }
    }
  }
  // Both outcomes occur, so the mutations reach past the first line.
  EXPECT_GT(threw, 0);
  EXPECT_GT(parsed, 0);
}

}  // namespace
}  // namespace hplx::core
