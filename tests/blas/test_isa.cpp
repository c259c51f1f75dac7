/// The ISA copies of the BLAS-3 engine (blas/isa.hpp) must agree to the
/// last bit: dgemm, sgemm, dtrsm and strsm called on the baseline and the
/// x86-64-v4 copy directly, over every Trans/Side/Uplo/Diag combination,
/// ragged shapes on both sides of each copy's register tile and of the
/// shared MC/KC/NC blocking, every beta class and team sizes 1 and 4; and
/// whole solves run under each copy print the same residual bits.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "blas/blas.hpp"
#include "blas/isa.hpp"
#include "blas/threading.hpp"
#include "comm/world.hpp"
#include "core/driver.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::blas {
namespace {

/// Restores sequential BLAS when a test exits, pass or fail.
struct TeamGuard {
  ~TeamGuard() { set_num_threads(1); }
};

const int kTeams[] = {1, 4};

/// Declares `copies` (baseline first) or skips when only one can run.
#define REQUIRE_BOTH_COPIES()                                   \
  const auto copies = runnable_level3_copies();                \
  if (copies.size() < 2)                                        \
    GTEST_SKIP() << "only the baseline BLAS-3 copy can run here: " \
                    "the build targets no x86-64 or the host "  \
                    "lacks x86-64-v4"

template <typename T>
std::vector<T> random_matrix(testref::Rand& rng, int rows, int cols, int ld) {
  std::vector<T> a(static_cast<std::size_t>(ld) * cols);
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < rows; ++i)
      a[static_cast<std::size_t>(j) * ld + i] = static_cast<T>(rng.next());
  return a;
}

/// Index of the first element whose bits differ, or -1. Compares whole
/// buffers, so padding rows past m must also be left untouched alike.
template <typename T>
long first_bit_diff(const std::vector<T>& x, const std::vector<T>& y) {
  for (std::size_t i = 0; i < x.size(); ++i)
    if (std::memcmp(&x[i], &y[i], sizeof(T)) != 0) return static_cast<long>(i);
  return -1;
}

struct Shape {
  int m, n, k;
};

/// Ragged m/n/k on both sides of the register tiles (mr 4; nr 8, 24 for
/// the v4 double tile and 32 for the v4 float tile) and of MC (128
/// double / 256 float), KC (256 / 512) and NC (512 / 1024). The first
/// shapes fall under the packing cutoff and run gemm_small; the last ones
/// cross the team cutoff.
template <typename T>
std::vector<Shape> gemm_shapes() {
  constexpr int s = sizeof(T) == sizeof(double) ? 1 : 2;
  return {{3, 5, 7},
          {5, 9, 33},
          {31, 33, 47},
          {4, 32, 300},
          {9, 23, 200},
          {6, 25, 129},
          {63, 31, 129},
          {128 * s - 1, 31, 256 * s - 1},
          {128 * s + 1, 33, 256 * s + 1},
          {128 * s, 64, 256 * s},
          {130, 512 * s + 7, 260},
          {257, 129, 300}};
}

template <typename T>
void check_gemm_copies_agree(const Level3Copy& base, const Level3Copy& v4,
                             GemmFn<T> Level3Copy::*fn) {
  TeamGuard guard;
  for (const Shape& sh : gemm_shapes<T>())
    for (Trans ta : {Trans::No, Trans::Yes})
      for (Trans tb : {Trans::No, Trans::Yes})
        for (T beta : {T(0), T(1), T(-0.5)})
          for (int team : kTeams) {
            testref::Rand rng(static_cast<std::uint64_t>(
                sh.m * 7919 + sh.n * 104729 + sh.k * 31 +
                (ta == Trans::Yes) * 11 + (tb == Trans::Yes) * 23));
            const int lda = (ta == Trans::No ? sh.m : sh.k) + 3;
            const int ldb = (tb == Trans::No ? sh.k : sh.n) + 2;
            const int ldc = sh.m + 1;
            const auto a = random_matrix<T>(rng, ta == Trans::No ? sh.m : sh.k,
                                            ta == Trans::No ? sh.k : sh.m,
                                            lda);
            const auto b = random_matrix<T>(rng, tb == Trans::No ? sh.k : sh.n,
                                            tb == Trans::No ? sh.n : sh.k,
                                            ldb);
            const auto c0 = random_matrix<T>(rng, ldc, sh.n, ldc);
            set_num_threads(team);
            auto got_base = c0;
            auto got_v4 = c0;
            const T alpha = T(-0.75);
            (base.*fn)(ta, tb, sh.m, sh.n, sh.k, alpha, a.data(), lda,
                       b.data(), ldb, beta, got_base.data(), ldc);
            (v4.*fn)(ta, tb, sh.m, sh.n, sh.k, alpha, a.data(), lda, b.data(),
                     ldb, beta, got_v4.data(), ldc);
            ASSERT_EQ(first_bit_diff(got_base, got_v4), -1)
                << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k
                << " ta=" << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes)
                << " beta=" << beta << " team=" << team;
          }
}

TEST(BlasIsa, DgemmCopiesAgreeBitwise) {
  REQUIRE_BOTH_COPIES();
  check_gemm_copies_agree<double>(*copies[0], *copies[1], &Level3Copy::dgemm);
}

TEST(BlasIsa, SgemmCopiesAgreeBitwise) {
  REQUIRE_BOTH_COPIES();
  check_gemm_copies_agree<float>(*copies[0], *copies[1], &Level3Copy::sgemm);
}

/// m×n right-hand sides around the trsm block (64) and across the team
/// cutoff; the last shape splits over a team of 4 on both sides.
const Shape kTrsmShapes[] = {{5, 7, 0}, {63, 65, 0}, {130, 67, 0},
                             {200, 160, 0}};

template <typename T>
void check_trsm_copies_agree(const Level3Copy& base, const Level3Copy& v4,
                             TrsmFn<T> Level3Copy::*fn) {
  TeamGuard guard;
  for (const Shape& sh : kTrsmShapes)
    for (Side side : {Side::Left, Side::Right})
      for (Uplo uplo : {Uplo::Upper, Uplo::Lower})
        for (Trans trans : {Trans::No, Trans::Yes})
          for (Diag diag : {Diag::NonUnit, Diag::Unit})
            for (int team : kTeams) {
              testref::Rand rng(static_cast<std::uint64_t>(
                  sh.m * 131 + sh.n * 17 + static_cast<int>(side) * 5 +
                  static_cast<int>(uplo) * 3 + static_cast<int>(trans)));
              const int na = side == Side::Left ? sh.m : sh.n;
              const int lda = na + 1;
              const int ldb = sh.m + 2;
              // Diagonally dominant, so the solve stays well scaled.
              auto a = random_matrix<T>(rng, na, na, lda);
              for (int i = 0; i < na; ++i)
                a[static_cast<std::size_t>(i) * lda + i] += static_cast<T>(na);
              const auto b0 = random_matrix<T>(rng, ldb, sh.n, ldb);
              set_num_threads(team);
              auto got_base = b0;
              auto got_v4 = b0;
              const T alpha = T(0.75);
              (base.*fn)(side, uplo, trans, diag, sh.m, sh.n, alpha, a.data(),
                         lda, got_base.data(), ldb);
              (v4.*fn)(side, uplo, trans, diag, sh.m, sh.n, alpha, a.data(),
                       lda, got_v4.data(), ldb);
              ASSERT_EQ(first_bit_diff(got_base, got_v4), -1)
                  << "m=" << sh.m << " n=" << sh.n
                  << " side=" << static_cast<int>(side)
                  << " uplo=" << static_cast<int>(uplo)
                  << " trans=" << static_cast<int>(trans)
                  << " diag=" << static_cast<int>(diag) << " team=" << team;
            }
}

TEST(BlasIsa, DtrsmCopiesAgreeBitwise) {
  REQUIRE_BOTH_COPIES();
  check_trsm_copies_agree<double>(*copies[0], *copies[1], &Level3Copy::dtrsm);
}

TEST(BlasIsa, StrsmCopiesAgreeBitwise) {
  REQUIRE_BOTH_COPIES();
  check_trsm_copies_agree<float>(*copies[0], *copies[1], &Level3Copy::strsm);
}

TEST(BlasIsa, StartupPicksTheWidestRunnableCopy) {
  const auto copies = runnable_level3_copies();
  ASSERT_GE(copies.size(), 1u);
  EXPECT_EQ(describe(*copies[0]), "baseline (f64 4x8, f32 4x8)");
  EXPECT_EQ(&active_level3_copy(), copies.back());
  if (copies.size() > 1) {
    EXPECT_EQ(describe(*copies[1]), "x86-64-v4 (f64 4x24, f32 4x32)");
  }
}

core::HplResult solve_under(const Level3Copy& copy, core::HplConfig cfg) {
  detail::ScopedLevel3Copy scoped(copy);
  core::HplResult out;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    core::HplResult r = core::run_hpl(world, cfg);
    if (world.rank() == 0) out = std::move(r);
  });
  return out;
}

/// Residual bits of one solve under each copy; the run report names the
/// copy that ran.
void check_solves_agree(const Level3Copy& base, const Level3Copy& v4,
                        const core::HplConfig& cfg) {
  TeamGuard guard;
  const core::HplResult rb = solve_under(base, cfg);
  const core::HplResult rv = solve_under(v4, cfg);
  EXPECT_TRUE(rb.verify.passed);
  EXPECT_TRUE(rv.verify.passed);
  EXPECT_EQ(rb.blas, describe(base));
  EXPECT_EQ(rv.blas, describe(v4));
  EXPECT_EQ(0, std::memcmp(&rb.verify.residual, &rv.verify.residual,
                           sizeof(double)))
      << std::hexfloat << rb.verify.residual << " vs " << rv.verify.residual;
  EXPECT_EQ(rb.ir_iters, rv.ir_iters);
}

TEST(BlasIsa, Fp64TwoByTwoSolveResidualBitsMatch) {
  REQUIRE_BOTH_COPIES();
  core::HplConfig cfg;
  cfg.n = 512;
  cfg.nb = 64;
  cfg.p = 2;
  cfg.q = 2;
  cfg.blas_threads = 2;
  cfg.update_streams = 2;
  check_solves_agree(*copies[0], *copies[1], cfg);
}

TEST(BlasIsa, Mxp32OneByOneSolveResidualBitsMatch) {
  REQUIRE_BOTH_COPIES();
  core::HplConfig cfg;
  cfg.n = 512;
  cfg.nb = 64;
  cfg.precision = core::PrecisionMode::MXP32;
  check_solves_agree(*copies[0], *copies[1], cfg);
}

}  // namespace
}  // namespace hplx::blas
