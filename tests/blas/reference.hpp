#pragma once
/// Naive reference implementations and random fixtures shared by the BLAS
/// tests. Deliberately written as triple loops with no blocking so they
/// cannot share bugs with the library under test.

#include <cstdint>
#include <vector>

#include "blas/blas.hpp"

namespace hplx::testref {

/// Test-name spellings of the BLAS flags. The parameterized suites print
/// their cases with these: gtest's default prints a struct as its raw
/// bytes, padding included, which changes the test names between builds.
inline const char* flag_name(blas::Trans t) {
  return t == blas::Trans::No ? "N" : "T";
}
inline const char* flag_name(blas::Side s) {
  return s == blas::Side::Left ? "Left" : "Right";
}
inline const char* flag_name(blas::Uplo u) {
  return u == blas::Uplo::Lower ? "Lower" : "Upper";
}
inline const char* flag_name(blas::Diag d) {
  return d == blas::Diag::Unit ? "Unit" : "NonUnit";
}

/// Deterministic pseudo-random doubles in [-1, 1) (xorshift; independent
/// of the library's LCG so rng bugs cannot mask blas bugs).
class Rand {
 public:
  explicit Rand(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : s_(seed) {}
  double next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return static_cast<double>(static_cast<std::int64_t>(s_)) * 0x1.0p-63;
  }
  std::vector<double> matrix(int rows, int cols, int ld) {
    std::vector<double> a(static_cast<std::size_t>(ld) * cols);
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < rows; ++i)
        a[static_cast<std::size_t>(j) * ld + i] = next();
    return a;
  }

 private:
  std::uint64_t s_;
};

inline void ref_gemm(hplx::blas::Trans ta, hplx::blas::Trans tb, int m, int n,
                     int k, double alpha, const double* a, int lda,
                     const double* b, int ldb, double beta, double* c,
                     int ldc) {
  using hplx::blas::Trans;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = (ta == Trans::No) ? a[p * lda + i] : a[i * lda + p];
        const double bv = (tb == Trans::No) ? b[j * ldb + p] : b[p * ldb + j];
        acc += av * bv;
      }
      c[j * ldc + i] = alpha * acc + beta * c[j * ldc + i];
    }
  }
}

/// Max elementwise |x - y| over an m×n pair of matrices.
inline double max_diff(int m, int n, const double* x, int ldx,
                       const double* y, int ldy) {
  double d = 0.0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      const double v = x[j * ldx + i] - y[j * ldy + i];
      d = std::max(d, v < 0 ? -v : v);
    }
  return d;
}

/// Make the diagonal dominant so triangular solves stay well conditioned.
inline void dominate_diagonal(int n, double* a, int lda) {
  for (int i = 0; i < n; ++i) a[i * lda + i] += (a[i * lda + i] < 0 ? -4.0 : 4.0);
}

}  // namespace hplx::testref
