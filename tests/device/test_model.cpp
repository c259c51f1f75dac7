#include <gtest/gtest.h>

#include "device/model.hpp"

namespace hplx::device {
namespace {

TEST(DeviceModel, Nb512HitsPaperDgemmRate) {
  // §IV.A: "At NB = 512 the DGEMMs ... achieve 49 TFLOPS ... on each
  // MI250X", i.e. 24.5 per GCD.
  const DeviceModel m = DeviceModel::mi250x_gcd();
  EXPECT_NEAR(m.gemm_tflops(512), 24.5, 0.3);
}

TEST(DeviceModel, RampIsMonotone) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  double prev = 0.0;
  for (long k : {16L, 32L, 64L, 128L, 256L, 512L, 1024L, 4096L}) {
    const double r = m.gemm_tflops(k);
    EXPECT_GT(r, prev);
    prev = r;
  }
  EXPECT_LT(prev, m.gemm_peak_tflops);
}

TEST(DeviceModel, SmallNbFarFromPeak) {
  // The paper's rationale for NB >= 512: small blocks starve the MFMA
  // units. At NB = 64 the model must sit well below the plateau.
  const DeviceModel m = DeviceModel::mi250x_gcd();
  EXPECT_LT(m.gemm_tflops(64), 0.75 * m.gemm_tflops(512));
}

TEST(DeviceModel, GemmSecondsScalesWithWork) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  // Net of the kernel-launch floor, doubling m doubles the time.
  const double t1 = m.gemm_seconds(1000, 1000, 512) - m.kernel_latency_s;
  const double t2 = m.gemm_seconds(2000, 1000, 512) - m.kernel_latency_s;
  EXPECT_GT(t2, 1.99 * t1);
  EXPECT_LT(t2, 2.01 * t1);
}

TEST(DeviceModel, GemmLatencyFloors) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  EXPECT_GE(m.gemm_seconds(1, 1, 1), m.kernel_latency_s);
}

TEST(DeviceModel, SkinnyGemmPenalized) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  // Same FLOPs, but one has a starved m dimension.
  const double fat = m.gemm_seconds(512, 512, 512);
  const double skinny = m.gemm_seconds(16, 512 * 32, 512);
  EXPECT_GT(skinny, fat);
}

TEST(DeviceModel, TransfersScaleWithBytes) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  const double t1 = m.hcopy_seconds(1 << 20) - m.h2d_latency_s;
  const double t4 = m.hcopy_seconds(4 << 20) - m.h2d_latency_s;
  EXPECT_GT(t4, 3.9 * t1);
  EXPECT_GT(m.dmove_seconds(1 << 20), 0.0);
  // HBM is far faster than the host link.
  EXPECT_LT(m.dmove_seconds(1 << 26), m.hcopy_seconds(1 << 26));
}

TEST(DeviceModel, RowswapChargesStridedBandwidth) {
  // Two touches per element at the strided fraction of HBM bandwidth:
  // strictly more expensive than a streaming move of the same bytes.
  const DeviceModel m = DeviceModel::mi250x_gcd();
  const double t = m.rowswap_seconds(512, 1000);
  const std::size_t bytes = 2ul * 512 * 1000 * sizeof(double);
  EXPECT_GT(t, m.dmove_seconds(bytes));
  EXPECT_NEAR(t - m.kernel_latency_s,
              static_cast<double>(bytes) /
                  (m.rowswap_bw_factor * m.hbm_bw_gbs * 1e9),
              1e-9);
}

TEST(DeviceModel, ZeroWorkIsFree) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  EXPECT_DOUBLE_EQ(m.gemm_seconds(0, 10, 10), 0.0);
  EXPECT_DOUBLE_EQ(m.rowswap_seconds(5, 0), 0.0);
}

// ----------------------------------------------- per-precision throughput

TEST(ThroughputCurve, ClampsBeyondLastAnchor) {
  // The fix under test: a rate is never extrapolated past the last
  // calibration point. Before the clamp, a query beyond the final anchor
  // continued the last segment's slope and credited rates the hardware was
  // never measured at.
  const ThroughputCurve c = {3, {64, 256, 1024}, {10.0, 30.0, 40.0}};
  EXPECT_DOUBLE_EQ(c.at(1024.0), 40.0);   // exactly at the boundary
  EXPECT_DOUBLE_EQ(c.at(1025.0), 40.0);   // one past
  EXPECT_DOUBLE_EQ(c.at(1e9), 40.0);      // far past
}

TEST(ThroughputCurve, RampsThroughOriginBelowFirstAnchor) {
  const ThroughputCurve c = {3, {64, 256, 1024}, {10.0, 30.0, 40.0}};
  EXPECT_DOUBLE_EQ(c.at(32.0), 5.0);  // half the first anchor: half its rate
  EXPECT_DOUBLE_EQ(c.at(64.0), 10.0);
  EXPECT_DOUBLE_EQ(c.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.at(-5.0), 0.0);
}

TEST(ThroughputCurve, InterpolatesBetweenAnchors) {
  const ThroughputCurve c = {3, {64, 256, 1024}, {10.0, 30.0, 40.0}};
  EXPECT_DOUBLE_EQ(c.at(160.0), 20.0);  // midpoint of [64, 256]
  EXPECT_DOUBLE_EQ(c.at(640.0), 35.0);  // midpoint of [256, 1024]
}

TEST(ThroughputCurve, InvalidCurvesReportZero) {
  // Non-increasing k.
  const ThroughputCurve bad_order = {2, {256, 64}, {10.0, 20.0}};
  EXPECT_FALSE(bad_order.valid());
  EXPECT_DOUBLE_EQ(bad_order.at(128.0), 0.0);
  // Non-positive rate.
  const ThroughputCurve bad_rate = {2, {64, 256}, {10.0, 0.0}};
  EXPECT_FALSE(bad_rate.valid());
  EXPECT_DOUBLE_EQ(bad_rate.at(128.0), 0.0);
  // Empty.
  const ThroughputCurve empty = {};
  EXPECT_FALSE(empty.valid());
  EXPECT_DOUBLE_EQ(empty.at(128.0), 0.0);
}

TEST(DeviceModel, DefaultCurvesAreValidAndOrdered) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  EXPECT_TRUE(m.fp32_curve.valid());
  EXPECT_TRUE(m.fp16_curve.valid());
  // fp16 > fp32 > fp64 at every blocking — the ordering that makes the
  // simulated MxP speedups monotone in precision.
  for (long k : {16L, 32L, 64L, 128L, 256L, 512L, 1024L, 2048L, 8192L}) {
    EXPECT_GT(m.gemm_tflops(k, Precision::FP16),
              m.gemm_tflops(k, Precision::FP32))
        << "k=" << k;
    EXPECT_GT(m.gemm_tflops(k, Precision::FP32),
              m.gemm_tflops(k, Precision::FP64))
        << "k=" << k;
  }
}

TEST(DeviceModel, LowPrecisionGemmIsFaster) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  const double t64 = m.gemm_seconds(2048, 2048, 256, Precision::FP64);
  const double t32 = m.gemm_seconds(2048, 2048, 256, Precision::FP32);
  const double t16 = m.gemm_seconds(2048, 2048, 256, Precision::FP16);
  EXPECT_LT(t32, t64);
  EXPECT_LT(t16, t32);
}

TEST(DeviceModel, PrecisionForElemMapsBytes) {
  EXPECT_EQ(DeviceModel::precision_for_elem(sizeof(double)), Precision::FP64);
  EXPECT_EQ(DeviceModel::precision_for_elem(sizeof(float)), Precision::FP32);
}

TEST(DeviceModel, FloatRowswapChargesHalfTheBytes) {
  const DeviceModel m = DeviceModel::mi250x_gcd();
  const double t64 = m.rowswap_seconds(64, 1000);
  const double t32 = m.rowswap_seconds(64, 1000, sizeof(float));
  EXPECT_NEAR(t32 - m.kernel_latency_s, (t64 - m.kernel_latency_s) / 2.0,
              1e-12);
}

}  // namespace
}  // namespace hplx::device
