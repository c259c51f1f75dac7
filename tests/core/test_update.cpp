#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "comm/world.hpp"
#include "core/update.hpp"
#include "tests/blas/reference.hpp"

namespace hplx::core {
namespace {

/// Build a 1×1-grid DistMatrix and exercise the trailing-update helpers
/// against dense reference arithmetic.
TEST(Update, TrsmGemmAndWritebackMatchReference) {
  const long n = 24;
  const int nb = 8;
  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 24);
    DistMatrix a(dev, g, n, nb, 3);
    device::Stream stream(dev);

    // Snapshot the original local matrix.
    std::vector<double> orig(static_cast<std::size_t>(a.lda() * a.nloc()));
    for (long jl = 0; jl < a.nloc(); ++jl)
      for (long il = 0; il < a.mloc(); ++il)
        orig[static_cast<std::size_t>(jl * a.lda() + il)] = *a.at(il, jl);

    // A synthetic factored panel at j=0: unit-lower L1 + L2 rows.
    testref::Rand rng(11);
    PanelData panel;
    panel.j = 0;
    panel.resize(nb, n - nb);
    for (auto& v : panel.top) v = rng.next();
    for (auto& v : panel.l2) v = rng.next();
    for (int k = 0; k < nb; ++k) panel.ipiv[static_cast<std::size_t>(k)] = k;

    // U window = trailing columns [nb, n+1).
    const long jl0 = nb;
    const long njl = a.nloc() - jl0;
    std::vector<double> u(static_cast<std::size_t>(nb) * njl);
    for (auto& v : u) v = rng.next();
    const auto u0 = u;

    enqueue_u_update(stream, a, panel, u.data(), nb, jl0, njl,
                     /*in_diag_row=*/true, /*u_row_off=*/0);
    enqueue_tail_gemm(stream, a, panel, u.data(), nb, jl0, njl,
                      /*tail_off=*/nb);
    stream.synchronize();

    // Reference: U' = L1^{-1} U0 (unit lower), then rows [0, nb) of the
    // window == U', and rows [nb, n) == orig - L2·U'.
    std::vector<double> uref = u0;
    blas::dtrsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
                blas::Diag::Unit, nb, static_cast<int>(njl), 1.0,
                panel.top.data(), nb, uref.data(), nb);
    for (long jl = 0; jl < njl; ++jl) {
      for (long i = 0; i < nb; ++i) {
        EXPECT_NEAR(*a.at(i, jl0 + jl),
                    uref[static_cast<std::size_t>(jl * nb + i)], 1e-10);
      }
    }
    std::vector<double> tail(static_cast<std::size_t>((n - nb)) * njl, 0.0);
    for (long jl = 0; jl < njl; ++jl)
      for (long i = 0; i < n - nb; ++i)
        tail[static_cast<std::size_t>(jl * (n - nb) + i)] =
            orig[static_cast<std::size_t>((jl0 + jl) * a.lda() + nb + i)];
    testref::ref_gemm(blas::Trans::No, blas::Trans::No,
                      static_cast<int>(n - nb), static_cast<int>(njl), nb,
                      -1.0, panel.l2.data(), static_cast<int>(n - nb),
                      uref.data(), nb, 1.0, tail.data(),
                      static_cast<int>(n - nb));
    for (long jl = 0; jl < njl; ++jl)
      for (long i = 0; i < n - nb; ++i)
        EXPECT_NEAR(*a.at(nb + i, jl0 + jl),
                    tail[static_cast<std::size_t>(jl * (n - nb) + i)], 1e-10);
  });
}

TEST(Update, EmptyWindowIsNoop) {
  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 22);
    DistMatrix a(dev, g, 16, 8, 1);
    device::Stream stream(dev);
    PanelData panel;
    panel.j = 0;
    panel.resize(8, 8);
    enqueue_u_update<double>(stream, a, panel, nullptr, 8, 0, 0, true, 0);
    enqueue_tail_gemm<double>(stream, a, panel, nullptr, 8, 0, 0, 8);
    stream.synchronize();
    EXPECT_DOUBLE_EQ(stream.busy_seconds(), 0.0);
  });
}

TEST(Update, MismatchedL2RowsDetected) {
  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 22);
    DistMatrix a(dev, g, 16, 8, 1);
    device::Stream stream(dev);
    PanelData panel;
    panel.j = 0;
    panel.resize(8, 4);  // wrong: trailing has 8 rows
    std::vector<double> u(8 * 9, 0.0);
    EXPECT_THROW(
        enqueue_tail_gemm(stream, a, panel, u.data(), 8, 8, 9, 8),
        Error);
  });
}

TEST(Update, BandsCutOneBandPerUsableStream) {
  // enqueue_update_bands splits the window evenly over the streams its
  // placement may use — one band, and one completion event, per stream
  // that receives columns — and every cut reproduces the single-stream
  // update bit for bit.
  const long n = 24;
  const int nb = 8;
  comm::World::run(1, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, 1, 1);
    device::Device dev("d", 1ull << 24);
    device::StreamPool pool(dev, 3, "band");
    testref::Rand rng(17);
    PanelData panel;
    panel.j = 0;
    panel.resize(nb, n - nb);
    for (auto& v : panel.top) v = rng.next();
    for (auto& v : panel.l2) v = rng.next();
    std::vector<double> u0(static_cast<std::size_t>(nb) * (n + 1 - nb));
    for (auto& v : u0) v = rng.next();

    // Updates local columns [nb, nb + njl) of a fresh matrix and returns
    // the whole local matrix and the number of completion events.
    auto update = [&](long njl, const BandPlacement* placement) {
      DistMatrix a(dev, g, n, nb, 3);
      std::vector<double> u = u0;
      std::size_t events = 0;
      if (placement == nullptr) {
        enqueue_u_update(pool.primary(), a, panel, u.data(), nb, nb, njl,
                         true, 0);
        enqueue_tail_gemm(pool.primary(), a, panel, u.data(), nb, nb, njl,
                          nb);
      } else {
        const device::Event ready = pool.primary().record();
        const BandSection sec =
            enqueue_update_bands(pool, ready, a, panel, u.data(), nb, nb,
                                 njl, true, 0, nb, *placement);
        sec.join(pool.primary());
        events = sec.done.size();
      }
      pool.synchronize();
      std::vector<double> out(static_cast<std::size_t>(a.lda() * a.nloc()));
      for (long jl = 0; jl < a.nloc(); ++jl)
        for (long il = 0; il < a.mloc(); ++il)
          out[static_cast<std::size_t>(jl * a.lda() + il)] = *a.at(il, jl);
      return std::make_pair(out, events);
    };

    struct Case {
      long njl;
      BandPlacement placement;
      std::size_t bands;
    };
    const Case cases[] = {
        {17, BandPlacement::Spread, 3},        // widths 6, 6, 5
        {17, BandPlacement::SparePrimary, 2},  // streams 1 and 2
        {17, BandPlacement::PrimaryOnly, 1},
        {2, BandPlacement::Spread, 2},  // fewer columns than streams
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message() << "njl=" << c.njl << " placement="
                                        << static_cast<int>(c.placement));
      const auto want = update(c.njl, nullptr).first;
      const auto [got, events] = update(c.njl, &c.placement);
      EXPECT_EQ(events, c.bands);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(double)),
                0);
    }
  });
}

}  // namespace
}  // namespace hplx::core
