/// \file bench_cpu_blas.cpp
/// \brief K-BLAS: google-benchmark timings of the level-1/2 BLAS kernels
/// the panel factorization leans on (dger, idamax, dgemv). The level-3
/// rates (dgemm, sgemm, dtrsm) are hplbench probes. Tracking numbers for
/// the functional engine, not a reproduction target.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "blas/blas.hpp"

namespace {

std::vector<double> random_matrix(int rows, int cols, std::uint64_t seed) {
  std::vector<double> a(static_cast<std::size_t>(rows) * cols);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (auto& v : a) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    v = static_cast<double>(static_cast<std::int64_t>(s)) * 0x1.0p-63;
  }
  return a;
}

void BM_Dger(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  auto a = random_matrix(m, n, 6);
  auto x = random_matrix(m, 1, 7);
  auto y = random_matrix(n, 1, 8);
  for (auto _ : state) {
    hplx::blas::dger(m, n, -1.0, x.data(), 1, y.data(), 1, a.data(), m);
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * m * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Dger)->Args({4096, 64})->Args({16384, 16});

void BM_Idamax(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto x = random_matrix(n, 1, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hplx::blas::idamax(n, x.data(), 1));
  }
}
BENCHMARK(BM_Idamax)->Arg(4096)->Arg(65536);

void BM_Dgemv(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  auto a = random_matrix(m, n, 10);
  auto x = random_matrix(n, 1, 11);
  std::vector<double> y(static_cast<std::size_t>(m), 0.0);
  for (auto _ : state) {
    hplx::blas::dgemv(hplx::blas::Trans::No, m, n, -1.0, a.data(), m,
                      x.data(), 1, 1.0, y.data(), 1);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Dgemv)->Args({8192, 64});

}  // namespace

BENCHMARK_MAIN();
