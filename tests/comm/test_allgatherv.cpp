/// Coverage of comm::allgatherv_bytes — the ring collective that assembles
/// U in the row swap. Segments of any size (zero included), gapped
/// displacements and an in-place send must assemble exactly, and many
/// communicators hammering the transport concurrently must not interfere
/// (the suite runs under both TSan and ASan in scripts/check.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"

namespace hplx::comm {
namespace {

std::uint64_t mix(std::uint64_t s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// Deterministic byte for (segment rank, offset) — every rank can verify
/// every assembled byte without further communication.
char byte_at(int rank, std::size_t off) {
  return static_cast<char>(mix(0xC0FFEEull + static_cast<std::uint64_t>(rank) *
                                                 2654435761u +
                               off) &
                           0x7F);
}

struct Layout {
  std::vector<std::size_t> counts, displs;
  std::size_t total = 0;
};

/// Packed rank-order segments of pseudo-random length, occasionally zero
/// to cover empty contributions.
Layout make_layout(int ranks, std::uint64_t seed, std::size_t unit_base) {
  Layout l;
  for (int r = 0; r < ranks; ++r) {
    const std::uint64_t s = mix(seed + static_cast<std::uint64_t>(r) * 7919u);
    const std::size_t units = s % 9;
    const std::size_t unit = unit_base + (s >> 8) % 24;
    l.counts.push_back(units * unit);
    l.displs.push_back(l.total);
    l.total += l.counts.back();
  }
  return l;
}

/// Every segment of `out` holds its owner's bytes.
void expect_assembled(const Layout& l, const std::vector<char>& out,
                      const std::string& what) {
  for (std::size_t r = 0; r < l.counts.size(); ++r)
    for (std::size_t k = 0; k < l.counts[r]; ++k)
      ASSERT_EQ(out[l.displs[r] + k], byte_at(static_cast<int>(r), k))
          << what << " rank " << r << " byte " << k;
}

using Param = std::tuple<int /*ranks*/, int /*base size*/>;

class AllgatherSweep : public ::testing::TestWithParam<Param> {};

TEST_P(AllgatherSweep, SegmentsAssembleInRankOrder) {
  const auto [ranks, base] = GetParam();
  World::run(ranks, [&, base = base](Communicator& comm) {
    const int me = comm.rank();
    // Rank i contributes base + i doubles, value 100 + i.
    std::vector<std::size_t> counts, displs;
    std::size_t total = 0;
    for (int i = 0; i < comm.size(); ++i) {
      counts.push_back((static_cast<std::size_t>(base) +
                        static_cast<std::size_t>(i)) *
                       sizeof(double));
      displs.push_back(total);
      total += counts.back();
    }
    std::vector<double> mine(static_cast<std::size_t>(base + me),
                             100.0 + me);
    std::vector<double> all(total / sizeof(double), -1.0);
    allgatherv_bytes(comm, mine.data(), counts, displs, all.data());
    std::size_t off = 0;
    for (int i = 0; i < comm.size(); ++i) {
      for (int k = 0; k < base + i; ++k)
        ASSERT_DOUBLE_EQ(all[off + static_cast<std::size_t>(k)], 100.0 + i)
            << "rank " << me << " segment " << i;
      off += static_cast<std::size_t>(base + i);
    }
  });
}

// Odd and power-of-two rank counts; base 0 makes rank 0's segment empty.
INSTANTIATE_TEST_SUITE_P(RingShapes, AllgatherSweep,
                         ::testing::Values(Param{1, 3}, Param{3, 5},
                                           Param{8, 2}, Param{2, 4},
                                           Param{4, 1}, Param{8, 3},
                                           Param{6, 2}, Param{5, 0}));

TEST(AllgathervRing, RandomLayoutsAssembleExactly) {
  // Pseudo-random segment lengths (zero included) in units of 1 to 7
  // bytes, so segments start and end on arbitrary byte offsets: every
  // byte must land at its owner's displacement.
  const int ranks = 5;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    for (const std::size_t unit_base : {std::size_t{1}, std::size_t{7}}) {
      for (std::uint64_t seed = 0xA11ull; seed < 0xA11ull + 4; ++seed) {
        const Layout l = make_layout(ranks, seed, unit_base);
        std::vector<char> mine(l.counts[static_cast<std::size_t>(me)]);
        for (std::size_t i = 0; i < mine.size(); ++i)
          mine[i] = byte_at(me, i);
        std::vector<char> out(l.total, -1);
        allgatherv_bytes(comm, mine.data(), l.counts, l.displs, out.data());
        expect_assembled(l, out,
                         "unit " + std::to_string(unit_base) + " seed " +
                             std::to_string(seed));
      }
    }
  });
}

TEST(AllgathervRing, SegmentsBeyondEagerThresholdAssemble) {
  // A row-swap U segment is nb x nloc elements, hundreds of KiB: whole
  // segments of that size travel through pooled buffers like every
  // message and must assemble exactly next to small and empty ones.
  const int ranks = 4;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    Layout l;
    for (const std::size_t bytes :
         {std::size_t{40 * 1024}, std::size_t{0}, std::size_t{300 * 1024 + 3},
          std::size_t{17}}) {
      l.counts.push_back(bytes);
      l.displs.push_back(l.total);
      l.total += bytes;
    }
    std::vector<char> mine(l.counts[static_cast<std::size_t>(me)]);
    for (std::size_t i = 0; i < mine.size(); ++i) mine[i] = byte_at(me, i);
    std::vector<char> out(l.total, -1);
    allgatherv_bytes(comm, mine.data(), l.counts, l.displs, out.data());
    expect_assembled(l, out, "large segments");
  });
}

TEST(AllgathervRing, ZeroLengthSegments) {
  World::run(4, [](Communicator& comm) {
    // Rank 2 contributes nothing, and passes no buffer.
    std::vector<std::size_t> counts{8, 8, 0, 8};
    std::vector<std::size_t> displs{0, 8, 16, 16};
    double mine = static_cast<double>(comm.rank());
    std::vector<double> all(3, -1.0);
    allgatherv_bytes(comm, comm.rank() == 2 ? nullptr : &mine, counts,
                     displs, all.data());
    EXPECT_DOUBLE_EQ(all[0], 0.0);
    EXPECT_DOUBLE_EQ(all[1], 1.0);
    EXPECT_DOUBLE_EQ(all[2], 3.0);
  });
}

TEST(AllgathervRing, GappedDisplacementsAssemble) {
  // Displacements need not be packed: the holes between segments stay
  // untouched.
  World::run(4, [](Communicator& comm) {
    std::vector<std::size_t> counts{8, 8, 8, 8};
    std::vector<std::size_t> displs{0, 16, 32, 48};  // 8-byte holes
    double mine = 10.0 + comm.rank();
    std::vector<double> all(7, -1.0);
    allgatherv_bytes(comm, &mine, counts, displs, all.data());
    for (int i = 0; i < 4; ++i)
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * i)], 10.0 + i);
    for (int i = 0; i < 3; ++i)
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(2 * i + 1)], -1.0);
  });
}

TEST(AllgathervRing, InPlaceSendSkipsLocalCopy) {
  // The rank's own segment already sits in recvbuf and is passed as the
  // send buffer: the collective must not copy it onto itself.
  const int ranks = 3;
  World::run(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    const Layout l = make_layout(ranks, 0xC33ull, 8);
    std::vector<char> buf(l.total, -1);
    char* seg = buf.data() + l.displs[static_cast<std::size_t>(me)];
    for (std::size_t i = 0; i < l.counts[static_cast<std::size_t>(me)]; ++i)
      seg[i] = byte_at(me, i);
    allgatherv_bytes(comm, seg, l.counts, l.displs, buf.data());
    expect_assembled(l, buf, "in place");
  });
}

TEST(AllgathervStress, ManyConcurrentCommunicatorsAgree) {
  // The solver runs one U allgatherv per process column while row
  // broadcasts ride the same transport: split the world into columns and
  // run many rounds of allgatherv traffic on every column at once, with
  // round-varying segment sizes, checking assembly each time.
  const int p = 3, q = 2;
  World::run(p * q, [&](Communicator& world) {
    Communicator col = world.split(world.rank() % q, world.rank() / q);
    const int me = col.rank();
    for (int round = 0; round < 25; ++round) {
      const Layout l =
          make_layout(col.size(),
                      0xD44ull + static_cast<std::uint64_t>(round) * 131u +
                          static_cast<std::uint64_t>(world.rank() % q),
                      1 + static_cast<std::size_t>(round % 5) * 17);
      std::vector<char> mine(l.counts[static_cast<std::size_t>(me)]);
      for (std::size_t i = 0; i < mine.size(); ++i)
        mine[i] = byte_at(me, i);
      std::vector<char> out(l.total, -1);
      allgatherv_bytes(col, mine.data(), l.counts, l.displs, out.data());
      expect_assembled(l, out, "round " + std::to_string(round));
    }
  });
}

}  // namespace
}  // namespace hplx::comm
