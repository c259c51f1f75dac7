/// \file bench_kernels.cpp
/// \brief K-KERN: google-benchmark timings of the device data-motion
/// kernels no hplbench probe measures — the row-swap scatter and the
/// strided matrix copy — on the column-tiled engine at its defaults. These
/// are the kernels that bound the solver's non-GEMM phases once the
/// trailing update is fast (§III; the Aurora HPL retrospective reports the
/// same shift). Shapes are HPL trailing-window shapes: jb = NB rows by
/// njl >= 2048 columns. The row gather is the hplbench probe
/// device.rowswap_kernel.gbps.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "device/device.hpp"
#include "device/kernels.hpp"
#include "device/stream.hpp"

namespace {

using namespace hplx;

device::Device& bench_device() {
  static device::Device dev("gcd0", 1ull << 31);
  return dev;
}

std::vector<double> random_matrix(long rows, long cols, std::uint64_t seed) {
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

/// HPL-like row lists: jb pivot rows scattered over the local row range.
std::vector<long> scattered_rows(long jb, long m, std::uint64_t seed) {
  std::vector<long> rows(static_cast<std::size_t>(jb));
  std::uint64_t s = seed * 0x2545f4914f6cdd1dull + 99;
  for (long k = 0; k < jb; ++k) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    rows[static_cast<std::size_t>(k)] = static_cast<long>(s % static_cast<std::uint64_t>(m));
  }
  return rows;
}

/// Moved bytes for the rate counter (read + write of every element).
void set_mbs(benchmark::State& state, long rows, long cols) {
  state.counters["MB/s"] = benchmark::Counter(
      2.0 * static_cast<double>(rows) * static_cast<double>(cols) *
          sizeof(double) * static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}

void BM_RowScatter(benchmark::State& state) {
  const long jb = state.range(0), njl = state.range(1);
  device::Stream s(bench_device());
  std::vector<double> a(static_cast<std::size_t>(njl + 64) * njl);
  const long lda = njl + 64;  // lda > rows: realistic window
  auto rows = scattered_rows(jb, lda, 8);
  auto in = random_matrix(jb, njl, 9);
  for (auto _ : state) {
    device::row_scatter(s, a.data(), lda, rows, njl, in.data(), jb);
    s.synchronize();
    benchmark::DoNotOptimize(a.data());
  }
  set_mbs(state, jb, njl);
}

void BM_CopyMatrix(benchmark::State& state) {
  const long m = state.range(0), n = state.range(1);
  device::Stream s(bench_device());
  auto src = random_matrix(m + 8, n, 7);
  std::vector<double> dst(static_cast<std::size_t>(m + 8) * n);
  for (auto _ : state) {
    device::copy_matrix(s, m, n, src.data(), m + 8, dst.data(), m + 8);
    s.synchronize();
    benchmark::DoNotOptimize(dst.data());
  }
  set_mbs(state, m, n);
}

// Args: {jb rows, njl cols}: jb = NB in {256, 512}, njl in {2048, 4096}.
// Real time: the kernels run on the stream's worker thread.
BENCHMARK(BM_RowScatter)
    ->Args({256, 2048})
    ->Args({256, 4096})
    ->Args({512, 2048})
    ->Args({512, 4096})
    ->UseRealTime();
BENCHMARK(BM_CopyMatrix)->Args({2048, 2048})->Args({4096, 2048})->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
