/// \file test_kernel_engine.cpp
/// \brief Property tests for the column-tiled kernel engine: every
/// row-swap/copy kernel must produce *bitwise identical* results to a
/// naive sequential reference for any tile width and team size, because a
/// tile covers whole columns and each output element is written by exactly
/// one tile. Also checks end to end that run_hpl residuals do not change
/// with the engine configuration testing::ScopedEngineConfig installs.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "blas/threading.hpp"
#include "comm/world.hpp"
#include "core/driver.hpp"
#include "device/engine.hpp"
#include "device/kernels.hpp"
#include "device/stream.hpp"
#include "util/error.hpp"

namespace hplx::device {
namespace {

Device& test_device() {
  static Device dev("gcd_engine", 1ull << 30);
  return dev;
}

/// Restores the process-global BLAS team the tests resize, so suites
/// sharing the binary see the default.
struct TeamState {
  ~TeamState() { blas::set_num_threads(1); }
};

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

std::vector<double> random_matrix(long rows, long cols, std::uint64_t seed) {
  std::vector<double> a(static_cast<std::size_t>(rows) * cols);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (auto& v : a)
    v = static_cast<double>(static_cast<std::int64_t>(xorshift(s))) * 0x1.0p-63;
  return a;
}

/// jb *distinct* rows out of [0, m) in shuffled order — the solver's
/// contract for gather/scatter destinations.
std::vector<long> distinct_rows(long jb, long m, std::uint64_t seed) {
  std::vector<long> all(static_cast<std::size_t>(m));
  std::iota(all.begin(), all.end(), 0L);
  std::uint64_t s = seed * 0x2545f4914f6cdd1dull + 5;
  for (long k = 0; k < jb; ++k) {
    const long j =
        k + static_cast<long>(xorshift(s) % static_cast<std::uint64_t>(m - k));
    std::swap(all[static_cast<std::size_t>(k)], all[static_cast<std::size_t>(j)]);
  }
  all.resize(static_cast<std::size_t>(jb));
  return all;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Naive sequential references: the seed's row-outer loops.

void ref_row_gather(const double* a, long lda, const std::vector<long>& rows,
                    long n, double* out, long ldo) {
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (long j = 0; j < n; ++j)
      out[static_cast<long>(r) + j * ldo] = a[rows[r] + j * lda];
}

void ref_row_scatter(double* a, long lda, const std::vector<long>& rows,
                     long n, const double* in, long ldi) {
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (long j = 0; j < n; ++j)
      a[rows[r] + j * lda] = in[static_cast<long>(r) + j * ldi];
}

const long kTileSizes[] = {1, 3, 16, 250};
const int kTeamSizes[] = {1, 2, 4};

struct Shape {
  long m, jb, n;
};
const Shape kShapes[] = {{37, 5, 23}, {128, 32, 96}, {301, 64, 257}};

TEST(KernelEngine, RowGatherScatterMatchNaive) {
  TeamState restore;
  for (const Shape& sh : kShapes) {
    const long lda = sh.m + 3;
    const auto a0 = random_matrix(lda, sh.n, 11 * sh.m);
    const auto rows = distinct_rows(sh.jb, sh.m, 13 * sh.jb);
    const auto wire0 = random_matrix(sh.jb, sh.n, 17 * sh.n);

    std::vector<double> want_gather(static_cast<std::size_t>(sh.jb) * sh.n);
    ref_row_gather(a0.data(), lda, rows, sh.n, want_gather.data(), sh.jb);
    auto want_scatter = a0;
    ref_row_scatter(want_scatter.data(), lda, rows, sh.n, wire0.data(), sh.jb);

    for (long tile : kTileSizes) {
      for (int team : kTeamSizes) {
        SCOPED_TRACE(::testing::Message() << "m=" << sh.m << " jb=" << sh.jb
                                          << " n=" << sh.n << " tile=" << tile
                                          << " team=" << team);
        blas::set_num_threads(team);
        testing::ScopedEngineConfig engine(tile, 0);
        Stream s(test_device());

        std::vector<double> gout(static_cast<std::size_t>(sh.jb) * sh.n, -7.0);
        row_gather(s, a0.data(), lda, rows, sh.n, gout.data(), sh.jb);
        s.synchronize();
        EXPECT_TRUE(bitwise_equal(gout, want_gather));

        auto sa = a0;
        row_scatter(s, sa.data(), lda, rows, sh.n, wire0.data(), sh.jb);
        s.synchronize();
        EXPECT_TRUE(bitwise_equal(sa, want_scatter));
      }
    }
  }
}

TEST(KernelEngine, RowGatherScatterStridedWireMatchNaive) {
  TeamState restore;
  // A wire leading dimension wider than the row count: the padding of the
  // gather output must stay untouched and the scatter must not read it.
  for (const Shape& sh : kShapes) {
    const long lda = sh.m + 1, ldw = sh.jb + 4;
    const auto a0 = random_matrix(lda, sh.n, 19 * sh.m);
    const auto rows = distinct_rows(sh.jb, sh.m, 23 * sh.jb);
    const auto wire0 = random_matrix(ldw, sh.n, 29 * sh.n);

    std::vector<double> want_gather(static_cast<std::size_t>(ldw) * sh.n, -7.0);
    ref_row_gather(a0.data(), lda, rows, sh.n, want_gather.data(), ldw);
    auto want_scatter = a0;
    ref_row_scatter(want_scatter.data(), lda, rows, sh.n, wire0.data(), ldw);

    for (long tile : kTileSizes) {
      for (int team : kTeamSizes) {
        SCOPED_TRACE(::testing::Message() << "m=" << sh.m << " jb=" << sh.jb
                                          << " n=" << sh.n << " tile=" << tile
                                          << " team=" << team);
        blas::set_num_threads(team);
        testing::ScopedEngineConfig engine(tile, 0);
        Stream s(test_device());

        std::vector<double> gout(static_cast<std::size_t>(ldw) * sh.n, -7.0);
        row_gather(s, a0.data(), lda, rows, sh.n, gout.data(), ldw);
        s.synchronize();
        EXPECT_TRUE(bitwise_equal(gout, want_gather));

        auto sa = a0;
        row_scatter(s, sa.data(), lda, rows, sh.n, wire0.data(), ldw);
        s.synchronize();
        EXPECT_TRUE(bitwise_equal(sa, want_scatter));
      }
    }
  }
}

TEST(KernelEngine, CopyKernelsMatchAcrossTilesAndTeams) {
  TeamState restore;
  const long m = 190, n = 170, lds = m + 5, ldd = m + 2;
  const auto src = random_matrix(lds, n, 41);
  std::vector<double> want(static_cast<std::size_t>(ldd) * n, 0.0);
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < m; ++i) want[i + j * ldd] = src[i + j * lds];

  for (long tile : kTileSizes) {
    for (int team : kTeamSizes) {
      SCOPED_TRACE(::testing::Message() << "tile=" << tile << " team=" << team);
      blas::set_num_threads(team);
      testing::ScopedEngineConfig engine(tile, 0);
      Stream s(test_device());
      std::vector<double> d1(static_cast<std::size_t>(ldd) * n, 0.0);
      copy_matrix(s, m, n, src.data(), lds, d1.data(), ldd);
      std::vector<double> d2(static_cast<std::size_t>(ldd) * n, 0.0);
      copy_matrix_h2d(s, m, n, src.data(), lds, d2.data(), ldd);
      // Gap-free fast path (lds == ldd == m).
      std::vector<double> packed(static_cast<std::size_t>(m) * n, 0.0);
      copy_matrix_d2h(s, m, n, want.data(), ldd, packed.data(), m);
      s.synchronize();
      EXPECT_TRUE(bitwise_equal(d1, want));
      EXPECT_TRUE(bitwise_equal(d2, want));
      for (long j = 0; j < n; ++j)
        ASSERT_EQ(std::memcmp(packed.data() + j * m, want.data() + j * ldd,
                              static_cast<std::size_t>(m) * sizeof(double)),
                  0);
    }
  }
}

TEST(KernelEngine, ScopedConfigRejectsBadValuesAndRestoresOnExit) {
  TeamState restore;
  blas::set_num_threads(2);
  const long n = 600;  // three default tiles, or a hundred 6-wide ones
  std::atomic<int> tiles{0};
  auto count_tiles = [&] {
    tiles = 0;
    run_column_tiles(n, [&](long, long) { ++tiles; });
    return tiles.load();
  };
  EXPECT_EQ(count_tiles(), 3);
  {
    testing::ScopedEngineConfig outer(6, 1);
    EXPECT_EQ(count_tiles(), 100);
    EXPECT_THROW(testing::ScopedEngineConfig(0, 0), Error);
    EXPECT_THROW(testing::ScopedEngineConfig(8, -1), Error);
    {
      testing::ScopedEngineConfig inner(300, 0);
      EXPECT_EQ(count_tiles(), 2);
    }
    EXPECT_EQ(count_tiles(), 100);
  }
  EXPECT_EQ(count_tiles(), 3);
}

TEST(KernelEngine, SolverResidualBitwiseIdenticalAcrossEngineConfigs) {
  TeamState restore;
  // The engine must never change the numerics, only the schedule: the same
  // solve under every tile/team configuration has to reproduce the exact
  // residual double of the sequential default.
  struct Combo {
    long tile;
    int threads;
  };
  const Combo combos[] = {{256, 1}, {1, 1}, {7, 0}, {64, 2}, {256, 4}};
  double want = 0.0;
  bool have_want = false;
  for (const Combo& c : combos) {
    core::HplConfig cfg;
    cfg.n = 160;
    cfg.nb = 32;
    cfg.p = 1;
    cfg.q = 1;
    cfg.pipeline = core::PipelineMode::LookaheadSplit;
    cfg.blas_threads = c.threads == 0 ? 2 : c.threads;
    testing::ScopedEngineConfig engine(c.tile, c.threads);
    core::HplResult result;
    comm::World::run(1, [&](comm::Communicator& world) {
      result = core::run_hpl(world, cfg);
    });
    EXPECT_TRUE(result.verify.passed);
    if (!have_want) {
      want = result.verify.residual;
      have_want = true;
    } else {
      SCOPED_TRACE(::testing::Message()
                   << "tile=" << c.tile << " threads=" << c.threads);
      EXPECT_EQ(std::memcmp(&result.verify.residual, &want, sizeof(double)),
                0);
    }
  }
}

}  // namespace
}  // namespace hplx::device
