#include "blas/isa.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "util/error.hpp"

namespace hplx::blas {

namespace {

/// The copies the host can run, baseline first; fixed at first use.
struct Runnable {
  std::array<const Level3Copy*, 2> copies{&baseline::kLevel3, nullptr};
  std::size_t count = 1;

  Runnable() {
#if defined(HPLX_BLAS_HAVE_X86_64_V4)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4"))
      copies[count++] = &x86_64_v4::kLevel3;
#endif
  }
};

const Runnable& runnable() {
  static const Runnable r;
  return r;
}

std::atomic<const Level3Copy*>& active() {
  static std::atomic<const Level3Copy*> a{
      runnable().copies[runnable().count - 1]};
  return a;
}

void check_gemm_args(Trans ta, Trans tb, int m, int n, int k, int lda,
                     int ldb, int ldc) {
  HPLX_CHECK(ldc >= m);
  HPLX_CHECK(lda >= ((ta == Trans::No) ? std::max(1, m) : std::max(1, k)));
  HPLX_CHECK(ldb >= ((tb == Trans::No) ? std::max(1, k) : std::max(1, n)));
}

void check_trsm_args(Side side, int m, int n, int lda, int ldb) {
  HPLX_CHECK(ldb >= m);
  HPLX_CHECK(lda >= std::max(1, side == Side::Left ? m : n));
}

}  // namespace

std::span<const Level3Copy* const> runnable_level3_copies() {
  return {runnable().copies.data(), runnable().count};
}

const Level3Copy& active_level3_copy() {
  return *active().load(std::memory_order_acquire);
}

std::string describe(const Level3Copy& c) {
  return std::string(c.isa) + " (f64 " + std::to_string(c.f64_mr) + "x" +
         std::to_string(c.f64_nr) + ", f32 " + std::to_string(c.f32_mr) +
         "x" + std::to_string(c.f32_nr) + ")";
}

namespace detail {

ScopedLevel3Copy::ScopedLevel3Copy(const Level3Copy& c)
    : saved_(active().exchange(&c, std::memory_order_acq_rel)) {}

ScopedLevel3Copy::~ScopedLevel3Copy() {
  active().store(saved_, std::memory_order_release);
}

}  // namespace detail

void dgemm(Trans ta, Trans tb, int m, int n, int k, double alpha,
           const double* a, int lda, const double* b, int ldb, double beta,
           double* c, int ldc) {
  if (m <= 0 || n <= 0) return;
  check_gemm_args(ta, tb, m, n, k, lda, ldb, ldc);
  active_level3_copy().dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                             ldc);
}

void sgemm(Trans ta, Trans tb, int m, int n, int k, float alpha,
           const float* a, int lda, const float* b, int ldb, float beta,
           float* c, int ldc) {
  if (m <= 0 || n <= 0) return;
  check_gemm_args(ta, tb, m, n, k, lda, ldb, ldc);
  active_level3_copy().sgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c,
                             ldc);
}

void dtrsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
           double alpha, const double* a, int lda, double* b, int ldb) {
  if (m <= 0 || n <= 0) return;
  check_trsm_args(side, m, n, lda, ldb);
  active_level3_copy().dtrsm(side, uplo, trans, diag, m, n, alpha, a, lda, b,
                             ldb);
}

void strsm(Side side, Uplo uplo, Trans trans, Diag diag, int m, int n,
           float alpha, const float* a, int lda, float* b, int ldb) {
  if (m <= 0 || n <= 0) return;
  check_trsm_args(side, m, n, lda, ldb);
  active_level3_copy().strsm(side, uplo, trans, diag, m, n, alpha, a, lda, b,
                             ldb);
}

}  // namespace hplx::blas
