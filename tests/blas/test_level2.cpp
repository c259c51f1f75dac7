#include <gtest/gtest.h>
#include <cmath>
#include <ostream>

#include <vector>

#include "blas/blas.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::blas {
namespace {

using testref::Rand;

TEST(Dger, RankOneUpdate) {
  // A = zeros(2,3); A += 2 * x y^T.
  std::vector<double> a(6, 0.0);
  std::vector<double> x{1, 2};
  std::vector<double> y{3, 4, 5};
  dger(2, 3, 2.0, x.data(), 1, y.data(), 1, a.data(), 2);
  EXPECT_DOUBLE_EQ(a[0], 6.0);   // (0,0) = 2*1*3
  EXPECT_DOUBLE_EQ(a[1], 12.0);  // (1,0) = 2*2*3
  EXPECT_DOUBLE_EQ(a[4], 10.0);  // (0,2) = 2*1*5
  EXPECT_DOUBLE_EQ(a[5], 20.0);  // (1,2)
}

TEST(Dger, AlphaZeroNoop) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> x{9, 9};
  std::vector<double> y{9, 9};
  dger(2, 2, 0.0, x.data(), 1, y.data(), 1, a.data(), 2);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[3], 4.0);
}

TEST(Dgemv, NoTransMatchesManual) {
  // A = [1 3; 2 4] colmajor {1,2,3,4}; y = 1*A*x + 0*y.
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> x{5, 6};
  std::vector<double> y(2, -1.0);
  dgemv(Trans::No, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.0, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 1 * 5 + 3 * 6);
  EXPECT_DOUBLE_EQ(y[1], 2 * 5 + 4 * 6);
}

TEST(Dgemv, TransMatchesManual) {
  std::vector<double> a{1, 2, 3, 4};
  std::vector<double> x{5, 6};
  std::vector<double> y(2, 0.0);
  dgemv(Trans::Yes, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.0, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 1 * 5 + 2 * 6);
  EXPECT_DOUBLE_EQ(y[1], 3 * 5 + 4 * 6);
}

TEST(Dgemv, BetaScalesExisting) {
  std::vector<double> a{1, 0, 0, 1};  // identity
  std::vector<double> x{2, 3};
  std::vector<double> y{10, 20};
  dgemv(Trans::No, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.5, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 7.0);   // 2 + 5
  EXPECT_DOUBLE_EQ(y[1], 13.0);  // 3 + 10
}

TEST(Dgemv, BetaZeroOverwritesGarbage) {
  std::vector<double> a{1, 0, 0, 1};
  std::vector<double> x{1, 1};
  std::vector<double> y{std::nan(""), std::nan("")};
  dgemv(Trans::No, 2, 2, 1.0, a.data(), 2, x.data(), 1, 0.0, y.data(), 1);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

/// Property: dtrsv really inverts the triangular multiply, for all
/// uplo/trans/diag combinations.
struct TrsvCase {
  Uplo uplo;
  Trans trans;
  Diag diag;
  int n;
};

void PrintTo(const TrsvCase& c, std::ostream* os) {
  *os << testref::flag_name(c.uplo) << "_" << testref::flag_name(c.trans)
      << "_" << testref::flag_name(c.diag) << "_n" << c.n;
}

class TrsvSweep : public ::testing::TestWithParam<TrsvCase> {};

TEST_P(TrsvSweep, SolveThenMultiplyRoundTrips) {
  const auto c = GetParam();
  Rand rng(static_cast<std::uint64_t>(c.n) * 131 + 7);
  auto a = rng.matrix(c.n, c.n, c.n);
  testref::dominate_diagonal(c.n, a.data(), c.n);

  std::vector<double> x(static_cast<std::size_t>(c.n));
  for (auto& v : x) v = rng.next();
  std::vector<double> b = x;

  dtrsv(c.uplo, c.trans, c.diag, c.n, a.data(), c.n, b.data(), 1);

  // Multiply back: y = op(T) * b where T is the triangle actually used.
  std::vector<double> y(static_cast<std::size_t>(c.n), 0.0);
  for (int i = 0; i < c.n; ++i) {
    for (int j = 0; j < c.n; ++j) {
      const bool in_lower = i >= j;
      const bool stored = (c.uplo == Uplo::Lower) ? in_lower : i <= j;
      if (!stored) continue;
      double t = a[static_cast<std::size_t>(j) * c.n + i];
      if (c.diag == Diag::Unit && i == j) t = 1.0;
      if (c.trans == Trans::No) {
        y[static_cast<std::size_t>(i)] += t * b[static_cast<std::size_t>(j)];
      } else {
        y[static_cast<std::size_t>(j)] += t * b[static_cast<std::size_t>(i)];
      }
    }
  }
  for (int i = 0; i < c.n; ++i)
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)],
                1e-9)
        << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, TrsvSweep,
    ::testing::Values(
        TrsvCase{Uplo::Lower, Trans::No, Diag::NonUnit, 1},
        TrsvCase{Uplo::Lower, Trans::No, Diag::NonUnit, 17},
        TrsvCase{Uplo::Lower, Trans::No, Diag::Unit, 33},
        TrsvCase{Uplo::Upper, Trans::No, Diag::NonUnit, 17},
        TrsvCase{Uplo::Upper, Trans::No, Diag::Unit, 8},
        TrsvCase{Uplo::Lower, Trans::Yes, Diag::NonUnit, 17},
        TrsvCase{Uplo::Upper, Trans::Yes, Diag::NonUnit, 17},
        TrsvCase{Uplo::Upper, Trans::Yes, Diag::Unit, 21}));

}  // namespace
}  // namespace hplx::blas
