/// \file blas_isa_gate.cpp
/// \brief Gate: every wider ISA copy of the BLAS-3 engine must beat the
/// baseline copy for both element types.
///
/// Times dgemm and sgemm at m = n = 1024, k = 256 (one thread) on each
/// copy the host can run (blas/isa.hpp), median of 5 after a warm-up
/// call, and exits 1 unless the x86-64-v4 copy is at least 1.2 times the
/// baseline copy's GF/s for double *and* float.
/// A wider ISA that slows either type — for instance a tile shape that
/// gcc's vectorizer leaves in memory — fails here. With only the
/// baseline copy runnable there is nothing to compare and it exits 0.
///
///   build/bench/blas_isa_gate

#include <algorithm>
#include <cstdio>
#include <vector>

#include "blas/isa.hpp"
#include "util/timer.hpp"

namespace {

using namespace hplx;

constexpr int kM = 1024, kN = 1024, kK = 256, kReps = 5;
constexpr double kMinRatio = 1.2;

template <typename T>
double median_gflops(blas::GemmFn<T> gemm) {
  std::vector<T> a(static_cast<std::size_t>(kM) * kK);
  std::vector<T> b(static_cast<std::size_t>(kK) * kN);
  std::vector<T> c(static_cast<std::size_t>(kM) * kN, T(0));
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<T>(static_cast<double>(i % 97) / 97.0 - 0.5);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<T>(static_cast<double>(i % 89) / 89.0 - 0.5);
  auto call = [&] {
    gemm(blas::Trans::No, blas::Trans::No, kM, kN, kK, T(1), a.data(), kM,
         b.data(), kK, T(0), c.data(), kM);
  };
  call();  // warm-up: page in the operands, grow the pack buffers
  std::vector<double> rates;
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    t.start();
    call();
    rates.push_back(2.0 * kM * kN * kK / t.stop() / 1e9);
  }
  std::nth_element(rates.begin(), rates.begin() + kReps / 2, rates.end());
  return rates[kReps / 2];
}

}  // namespace

int main() {
  const auto copies = blas::runnable_level3_copies();

  std::printf("BLAS ISA gate: %dx%dx%d, 1 thread, median of %d\n", kM, kN,
              kK, kReps);
  std::vector<double> f64, f32;
  for (const blas::Level3Copy* copy : copies) {
    f64.push_back(median_gflops<double>(copy->dgemm));
    f32.push_back(median_gflops<float>(copy->sgemm));
    std::printf("  %-32s dgemm %7.1f GF/s   sgemm %7.1f GF/s\n",
                blas::describe(*copy).c_str(), f64.back(), f32.back());
  }
  if (copies.size() < 2) {
    std::printf("only the baseline copy can run here: nothing to gate\n");
    return 0;
  }
  bool ok = true;
  for (std::size_t i = 1; i < copies.size(); ++i) {
    const double r64 = f64[i] / f64[0], r32 = f32[i] / f32[0];
    const bool pass = r64 >= kMinRatio && r32 >= kMinRatio;
    std::printf("  %s / baseline: dgemm %.2fx, sgemm %.2fx (need >= %.2fx "
                "for both) %s\n",
                copies[i]->isa, r64, r32, kMinRatio, pass ? "PASS" : "FAIL");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}
