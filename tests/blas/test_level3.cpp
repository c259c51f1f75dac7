#include <gtest/gtest.h>
#include <cmath>
#include <ostream>

#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::blas {
namespace {

using testref::Rand;

/// dgemm vs the naive triple loop across shapes, transposes and scalings.
struct GemmCase {
  Trans ta, tb;
  int m, n, k;
  double alpha, beta;
};

void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << testref::flag_name(c.ta) << testref::flag_name(c.tb) << "_" << c.m
      << "x" << c.n << "x" << c.k << "_alpha" << c.alpha << "_beta" << c.beta;
}

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesReference) {
  const auto c = GetParam();
  Rand rng(static_cast<std::uint64_t>(c.m * 7919 + c.n * 104729 + c.k));
  const int lda = (c.ta == Trans::No ? c.m : c.k) + 3;
  const int ldb = (c.tb == Trans::No ? c.k : c.n) + 2;
  const int ldc = c.m + 1;
  auto a = rng.matrix(c.ta == Trans::No ? c.m : c.k,
                      c.ta == Trans::No ? c.k : c.m, lda);
  auto b = rng.matrix(c.tb == Trans::No ? c.k : c.n,
                      c.tb == Trans::No ? c.n : c.k, ldb);
  auto c0 = rng.matrix(c.m, c.n, ldc);
  auto got = c0;
  auto want = c0;

  dgemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda, b.data(), ldb,
        c.beta, got.data(), ldc);
  testref::ref_gemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), lda,
                    b.data(), ldb, c.beta, want.data(), ldc);

  EXPECT_LT(testref::max_diff(c.m, c.n, got.data(), ldc, want.data(), ldc),
            1e-10 * (c.k + 1));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndFlags, GemmSweep,
    ::testing::Values(
        GemmCase{Trans::No, Trans::No, 1, 1, 1, 1.0, 0.0},
        GemmCase{Trans::No, Trans::No, 5, 7, 3, 1.0, 0.0},
        GemmCase{Trans::No, Trans::No, 64, 64, 64, 1.0, 1.0},
        // Sizes straddling the blocking parameters (128/256/512).
        GemmCase{Trans::No, Trans::No, 130, 100, 300, 1.0, 1.0},
        GemmCase{Trans::No, Trans::No, 257, 33, 129, 1.0, 0.0},
        GemmCase{Trans::No, Trans::No, 40, 520, 17, 1.0, -1.0},
        // The trailing-update shape: C -= L * U.
        GemmCase{Trans::No, Trans::No, 96, 80, 32, -1.0, 1.0},
        GemmCase{Trans::Yes, Trans::No, 30, 40, 20, 1.0, 0.0},
        GemmCase{Trans::No, Trans::Yes, 30, 40, 20, 2.0, 0.5},
        GemmCase{Trans::Yes, Trans::Yes, 25, 25, 25, -0.5, 2.0},
        GemmCase{Trans::No, Trans::No, 8, 8, 0, 1.0, 2.0}));

TEST(Dgemm, BetaZeroOverwritesNans) {
  std::vector<double> a{1.0};
  std::vector<double> b{1.0};
  std::vector<double> c{std::nan("")};
  dgemm(Trans::No, Trans::No, 1, 1, 1, 1.0, a.data(), 1, b.data(), 1, 0.0,
        c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
}

TEST(Dgemm, AlphaZeroOnlyScalesC) {
  Rand rng;
  auto a = rng.matrix(4, 4, 4);
  auto b = rng.matrix(4, 4, 4);
  std::vector<double> c(16, 2.0);
  dgemm(Trans::No, Trans::No, 4, 4, 4, 0.0, a.data(), 4, b.data(), 4, 0.5,
        c.data(), 4);
  for (double v : c) EXPECT_DOUBLE_EQ(v, 1.0);
}

/// dtrsm: solve, multiply back, compare against the original RHS — covers
/// every side/uplo/trans/diag combination HPL touches and more.
struct TrsmCase {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
  int m, n;
  double alpha;
};

void PrintTo(const TrsmCase& c, std::ostream* os) {
  *os << testref::flag_name(c.side) << "_" << testref::flag_name(c.uplo)
      << "_" << testref::flag_name(c.trans) << "_"
      << testref::flag_name(c.diag) << "_" << c.m << "x" << c.n << "_alpha"
      << c.alpha;
}

class TrsmSweep : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmSweep, SolveThenMultiplyRoundTrips) {
  const auto c = GetParam();
  const int na = (c.side == Side::Left) ? c.m : c.n;
  Rand rng(static_cast<std::uint64_t>(na * 31 + c.m * 17 + c.n));
  auto a = rng.matrix(na, na, na);
  testref::dominate_diagonal(na, a.data(), na);
  auto b0 = rng.matrix(c.m, c.n, c.m);
  auto x = b0;

  dtrsm(c.side, c.uplo, c.trans, c.diag, c.m, c.n, c.alpha, a.data(), na,
        x.data(), c.m);

  // Reconstruct op(T) densely.
  std::vector<double> t(static_cast<std::size_t>(na) * na, 0.0);
  for (int j = 0; j < na; ++j)
    for (int i = 0; i < na; ++i) {
      const bool stored = (c.uplo == Uplo::Lower) ? i >= j : i <= j;
      if (!stored) continue;
      double v = a[static_cast<std::size_t>(j) * na + i];
      if (c.diag == Diag::Unit && i == j) v = 1.0;
      // op(T)(r, c') position depends on trans.
      const int r = (c.trans == Trans::No) ? i : j;
      const int cc = (c.trans == Trans::No) ? j : i;
      t[static_cast<std::size_t>(cc) * na + r] = v;
    }

  // y = op(T)*X (Left) or X*op(T) (Right); expect alpha * B0.
  std::vector<double> y(static_cast<std::size_t>(c.m) * c.n, 0.0);
  if (c.side == Side::Left) {
    testref::ref_gemm(Trans::No, Trans::No, c.m, c.n, c.m, 1.0, t.data(), na,
                      x.data(), c.m, 0.0, y.data(), c.m);
  } else {
    testref::ref_gemm(Trans::No, Trans::No, c.m, c.n, c.n, 1.0, x.data(), c.m,
                      t.data(), na, 0.0, y.data(), c.m);
  }
  for (auto& v : b0) v *= c.alpha;
  EXPECT_LT(testref::max_diff(c.m, c.n, y.data(), c.m, b0.data(), c.m),
            1e-9 * (na + 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, TrsmSweep,
    ::testing::Values(
        // The HPL U-update shape: Left/Lower/NoTrans/Unit.
        TrsmCase{Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 32, 100, 1.0},
        TrsmCase{Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 17, 9, 1.0},
        TrsmCase{Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit, 21, 13, 1.0},
        TrsmCase{Side::Left, Uplo::Upper, Trans::No, Diag::Unit, 8, 8, -2.0},
        TrsmCase{Side::Left, Uplo::Lower, Trans::Yes, Diag::NonUnit, 19, 5, 1.0},
        TrsmCase{Side::Left, Uplo::Upper, Trans::Yes, Diag::Unit, 11, 23, 0.5},
        TrsmCase{Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 9, 15, 1.0},
        TrsmCase{Side::Right, Uplo::Lower, Trans::No, Diag::Unit, 14, 6, 1.0},
        TrsmCase{Side::Right, Uplo::Upper, Trans::Yes, Diag::NonUnit, 7, 12, -1.0},
        TrsmCase{Side::Right, Uplo::Lower, Trans::Yes, Diag::NonUnit, 13, 13, 1.0},
        TrsmCase{Side::Left, Uplo::Lower, Trans::No, Diag::Unit, 1, 1, 1.0}));

}  // namespace
}  // namespace hplx::blas
