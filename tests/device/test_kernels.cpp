#include <gtest/gtest.h>

#include <vector>

#include "device/kernels.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::device {
namespace {

Device& test_device() {
  static Device dev("gcd0", 1ull << 30);
  return dev;
}

TEST(Kernels, GemmComputesAndChargesTime) {
  Stream s(test_device());
  const long m = 17, n = 13, k = 9;
  testref::Rand rng;
  auto a = rng.matrix(static_cast<int>(m), static_cast<int>(k), static_cast<int>(m));
  auto b = rng.matrix(static_cast<int>(k), static_cast<int>(n), static_cast<int>(k));
  std::vector<double> c(static_cast<std::size_t>(m * n), 1.0);
  auto want = c;

  gemm(s, m, n, k, -1.0, a.data(), m, b.data(), k, 1.0, c.data(), m);
  s.synchronize();

  testref::ref_gemm(blas::Trans::No, blas::Trans::No, static_cast<int>(m),
                    static_cast<int>(n), static_cast<int>(k), -1.0, a.data(),
                    static_cast<int>(m), b.data(), static_cast<int>(k), 1.0,
                    want.data(), static_cast<int>(m));
  EXPECT_LT(testref::max_diff(static_cast<int>(m), static_cast<int>(n),
                              c.data(), static_cast<int>(m), want.data(),
                              static_cast<int>(m)),
            1e-12 * k);
  EXPECT_GT(s.busy_seconds(), 0.0);
}

TEST(Kernels, TrsmLeftLowerUnit) {
  Stream s(test_device());
  const long nb = 12, n = 7;
  testref::Rand rng(77);
  auto l = rng.matrix(static_cast<int>(nb), static_cast<int>(nb),
                      static_cast<int>(nb));
  auto u0 = rng.matrix(static_cast<int>(nb), static_cast<int>(n),
                       static_cast<int>(nb));
  auto u = u0;
  trsm_left_lower_unit(s, nb, n, l.data(), nb, u.data(), nb);
  s.synchronize();

  // Multiply back with the unit-lower triangle.
  std::vector<double> y(static_cast<std::size_t>(nb * n), 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < nb; ++i) {
      double acc = u[static_cast<std::size_t>(j * nb + i)];  // diagonal 1
      for (int p = 0; p < i; ++p)
        acc += l[static_cast<std::size_t>(p * nb + i)] *
               u[static_cast<std::size_t>(j * nb + p)];
      y[static_cast<std::size_t>(j * nb + i)] = acc;
    }
  EXPECT_LT(testref::max_diff(static_cast<int>(nb), static_cast<int>(n),
                              y.data(), static_cast<int>(nb), u0.data(),
                              static_cast<int>(nb)),
            1e-9);
}

TEST(Kernels, HostDeviceCopies) {
  Stream s(test_device());
  Buffer dev_buf = test_device().alloc(64);
  std::vector<double> host(64);
  for (int i = 0; i < 64; ++i) host[static_cast<std::size_t>(i)] = i * 1.5;
  std::vector<double> back(64, 0.0);

  copy_h2d(s, dev_buf.data(), host.data(), 64);
  copy_d2h(s, back.data(), dev_buf.data(), 64);
  s.synchronize();
  for (int i = 0; i < 64; ++i)
    EXPECT_DOUBLE_EQ(back[static_cast<std::size_t>(i)], i * 1.5);
  EXPECT_GT(s.busy_seconds(), 0.0);
}

TEST(Kernels, CopyMatrixStrided) {
  Stream s(test_device());
  // 3x2 source in ld=4, dest ld=3.
  std::vector<double> src{1, 2, 3, 99, 4, 5, 6, 99};
  std::vector<double> dst(6, 0.0);
  copy_matrix(s, 3, 2, src.data(), 4, dst.data(), 3);
  s.synchronize();
  EXPECT_DOUBLE_EQ(dst[0], 1.0);
  EXPECT_DOUBLE_EQ(dst[2], 3.0);
  EXPECT_DOUBLE_EQ(dst[3], 4.0);
  EXPECT_DOUBLE_EQ(dst[5], 6.0);
}

TEST(Kernels, RowGatherScatterRoundTrip) {
  Stream s(test_device());
  const long m = 10, n = 4;
  testref::Rand rng(5);
  auto a = rng.matrix(static_cast<int>(m), static_cast<int>(n),
                      static_cast<int>(m));
  auto orig = a;
  const std::vector<long> rows{7, 2, 9};

  std::vector<double> packed(static_cast<std::size_t>(rows.size()) * n, 0.0);
  row_gather(s, a.data(), m, rows, n, packed.data(),
             static_cast<long>(rows.size()));
  s.synchronize();
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (long j = 0; j < n; ++j)
      EXPECT_DOUBLE_EQ(packed[r + static_cast<std::size_t>(j) * rows.size()],
                       orig[static_cast<std::size_t>(rows[r] + j * m)]);

  // Scatter doubled values back.
  for (auto& v : packed) v *= 2.0;
  row_scatter(s, a.data(), m, rows, n, packed.data(),
              static_cast<long>(rows.size()));
  s.synchronize();
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (long j = 0; j < n; ++j)
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(rows[r] + j * m)],
                       2.0 * orig[static_cast<std::size_t>(rows[r] + j * m)]);
  // Untouched rows intact.
  EXPECT_DOUBLE_EQ(a[0], orig[0]);
  EXPECT_DOUBLE_EQ(a[5], orig[5]);
}

TEST(Kernels, RowGatherProducesColumnMajorWire) {
  Stream s(test_device());
  // 5x3 matrix; gather rows {4, 0, 2} into a 3x3 column-major wire block
  // (ld = number of packed rows): out[c*nr + i] = a(rows[i], c).
  std::vector<double> a(15);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 5; ++i)
      a[static_cast<std::size_t>(j * 5 + i)] = i * 10 + j;
  std::vector<double> out(9, -1.0);
  row_gather(s, a.data(), 5, {4, 0, 2}, 3, out.data(), 3);
  s.synchronize();
  // Column 0 of the wire = column 0 of rows {4, 0, 2}: 40, 0, 20.
  EXPECT_DOUBLE_EQ(out[0], 40.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 20.0);
  // Column 1: 41, 1, 21.
  EXPECT_DOUBLE_EQ(out[3], 41.0);
  EXPECT_DOUBLE_EQ(out[4], 1.0);
  EXPECT_DOUBLE_EQ(out[5], 21.0);
  // Column 2: 42, 2, 22.
  EXPECT_DOUBLE_EQ(out[6], 42.0);
  EXPECT_DOUBLE_EQ(out[8], 22.0);
}

TEST(Kernels, RowScatterScattersColumnSubranges) {
  Stream s(test_device());
  // Any column subrange of the wire block unpacks on its own: the caller
  // advances the input by c0*nr and the output by c0*lda.
  const long m = 6, n = 5;
  std::vector<double> a(static_cast<std::size_t>(m * n), 0.0);
  const std::vector<long> rows{4, 1};
  const auto nr = static_cast<long>(rows.size());
  std::vector<double> cm(static_cast<std::size_t>(nr * n));
  for (long c = 0; c < n; ++c)
    for (long i = 0; i < nr; ++i)
      cm[static_cast<std::size_t>(c * nr + i)] = 100.0 * c + i;
  // Deliver columns [2, 5) only.
  const long c0 = 2, nc = n - c0;
  row_scatter(s, a.data() + c0 * m, m, rows, nc, cm.data() + c0 * nr, nr);
  s.synchronize();
  for (long c = 0; c < n; ++c)
    for (long i = 0; i < nr; ++i)
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(c * m + rows[static_cast<std::size_t>(i)])],
                       c < c0 ? 0.0 : 100.0 * c + i)
          << "i=" << i << " c=" << c;
}

TEST(Kernels, RowGatherScatterRestoresWipedRows) {
  Stream s(test_device());
  const long m = 12, n = 6;
  testref::Rand rng(22);
  auto a = rng.matrix(static_cast<int>(m), static_cast<int>(n),
                      static_cast<int>(m));
  const auto orig = a;
  const std::vector<long> rows{1, 7, 11, 3};
  const auto nr = static_cast<long>(rows.size());
  std::vector<double> packed(rows.size() * static_cast<std::size_t>(n));
  row_gather(s, a.data(), m, rows, n, packed.data(), nr);
  // Wipe the rows in stream order, then restore from the wire buffer.
  s.enqueue(0.0, [&] {
    for (long r : rows)
      for (long j = 0; j < n; ++j) a[static_cast<std::size_t>(j * m + r)] = -9.0;
  });
  row_scatter(s, a.data(), m, rows, n, packed.data(), nr);
  s.synchronize();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], orig[i]);
}

TEST(Kernels, RowScatterScattersToArbitraryTargets) {
  Stream s(test_device());
  // Column-major 2x3 wire block scattered to matrix rows 3, 0 of a 4x3.
  std::vector<double> cm{1, 4, 2, 5, 3, 6};
  std::vector<double> a(12, 0.0);
  row_scatter(s, a.data(), 4, {3, 0}, 3, cm.data(), 2);
  s.synchronize();
  EXPECT_DOUBLE_EQ(a[3], 1.0);   // (3,0)
  EXPECT_DOUBLE_EQ(a[7], 2.0);   // (3,1)
  EXPECT_DOUBLE_EQ(a[11], 3.0);  // (3,2)
  EXPECT_DOUBLE_EQ(a[0], 4.0);   // (0,0)
  EXPECT_DOUBLE_EQ(a[8], 6.0);   // (0,2)
  EXPECT_DOUBLE_EQ(a[1], 0.0);   // untouched
}

TEST(Kernels, RowGatherLeavesWirePaddingUntouched) {
  Stream s(test_device());
  // ldo > rows.size(): only the first nr entries of each wire column are
  // written.
  const long m = 7, n = 3, ldo = 5;
  std::vector<double> a(static_cast<std::size_t>(m * n));
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < m; ++i)
      a[static_cast<std::size_t>(j * m + i)] = 10.0 * i + j;
  const std::vector<long> rows{6, 2};
  std::vector<double> out(static_cast<std::size_t>(ldo * n), -1.0);
  row_gather(s, a.data(), m, rows, n, out.data(), ldo);
  s.synchronize();
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < ldo; ++i) {
      const double want =
          i < 2 ? 10.0 * rows[static_cast<std::size_t>(i)] + j : -1.0;
      EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(j * ldo + i)], want)
          << "i=" << i << " j=" << j;
    }
}

TEST(Kernels, RowScatterReadsStridedWire) {
  Stream s(test_device());
  // ldi > rows.size(): the padding rows of the input are never read.
  const long m = 5, n = 4, ldi = 4;
  const std::vector<long> rows{0, 3, 1};
  std::vector<double> in(static_cast<std::size_t>(ldi * n));
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < ldi; ++i)
      in[static_cast<std::size_t>(j * ldi + i)] = i < 3 ? 100.0 * i + j : -5.0;
  std::vector<double> a(static_cast<std::size_t>(m * n), 0.0);
  row_scatter(s, a.data(), m, rows, n, in.data(), ldi);
  s.synchronize();
  for (long j = 0; j < n; ++j) {
    for (std::size_t r = 0; r < rows.size(); ++r)
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(j * m + rows[r])],
                       100.0 * static_cast<double>(r) + j);
    EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(j * m + 2)], 0.0);
    EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(j * m + 4)], 0.0);
  }
}

TEST(Kernels, PerDestinationSegmentsRoundTrip) {
  Stream s(test_device());
  // The displaced-row scatterv layout: one column-major segment per
  // destination, packed back to back, each with ld = its own row count.
  // Every segment unpacks on its own.
  const long m = 11, n = 5;
  testref::Rand rng(24);
  const auto src = rng.matrix(static_cast<int>(m), static_cast<int>(n),
                              static_cast<int>(m));
  const std::vector<std::vector<long>> seg_rows{{9, 0, 4}, {}, {2, 10}};
  std::vector<double> wire;
  std::vector<std::size_t> offs;
  for (const auto& rows : seg_rows) {
    offs.push_back(wire.size());
    wire.resize(wire.size() + rows.size() * static_cast<std::size_t>(n));
  }
  for (std::size_t d = 0; d < seg_rows.size(); ++d)
    row_gather(s, src.data(), m, seg_rows[d], n, wire.data() + offs[d],
               static_cast<long>(seg_rows[d].size()));
  std::vector<double> dst(src.size(), 0.0);
  for (std::size_t d = seg_rows.size(); d-- > 0;)
    row_scatter(s, dst.data(), m, seg_rows[d], n, wire.data() + offs[d],
                static_cast<long>(seg_rows[d].size()));
  s.synchronize();
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < m; ++i) {
      bool moved = false;
      for (const auto& rows : seg_rows)
        for (long r : rows) moved = moved || r == i;
      const auto k = static_cast<std::size_t>(j * m + i);
      EXPECT_DOUBLE_EQ(dst[k], moved ? src[k] : 0.0)
          << "i=" << i << " j=" << j;
    }
}

TEST(Kernels, EmptyOpsAreNoops) {
  Stream s(test_device());
  gemm<double>(s, 0, 5, 5, 1.0, nullptr, 1, nullptr, 1, 0.0, nullptr, 1);
  row_gather<double>(s, nullptr, 1, {}, 5, nullptr, 1);
  row_scatter<double>(s, nullptr, 1, {1, 2}, 0, nullptr, 2);
  s.synchronize();
  EXPECT_DOUBLE_EQ(s.busy_seconds(), 0.0);
}

}  // namespace
}  // namespace hplx::device
