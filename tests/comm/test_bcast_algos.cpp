/// Every broadcast variant must deliver identical bytes to every rank, for
/// every root, across communicator sizes — including the sizes where the
/// ring splits degenerate (n = 2, 3) and payloads smaller than the rank
/// count (the Long scatter fallback).

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"

namespace hplx::comm {
namespace {

using Shape = std::pair<int /*nranks*/, int /*root*/>;
using Param = std::tuple<BcastAlgo, Shape, std::size_t /*payload doubles*/>;

/// Every (nranks, root) pair of the sweep's sizes and roots with
/// root < nranks.
std::vector<Shape> rooted_shapes() {
  std::vector<Shape> out;
  for (int nranks : {1, 2, 3, 4, 7, 8})
    for (int root : {0, 1, 3})
      if (root < nranks) out.emplace_back(nranks, root);
  return out;
}

class BcastSweep : public ::testing::TestWithParam<Param> {};

TEST_P(BcastSweep, AllRanksReceiveRootData) {
  const auto [algo, shape, count] = GetParam();
  const auto [nranks, root] = shape;
  World::run(nranks, [&, algo = algo, root = root, count = count](Communicator& comm) {
    std::vector<double> buf(count, -1.0);
    if (comm.rank() == root) {
      for (std::size_t i = 0; i < count; ++i)
        buf[i] = static_cast<double>(i) * 0.5 + root;
    }
    bcast(comm, buf.data(), count, root, algo);
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_DOUBLE_EQ(buf[i], static_cast<double>(i) * 0.5 + root)
          << "rank " << comm.rank() << " index " << i;
  });
}

std::string bcast_param_name(const ::testing::TestParamInfo<Param>& info) {
  const BcastAlgo algo = std::get<0>(info.param);
  std::string name = to_string(algo);
  const Shape shape = std::get<1>(info.param);
  name += "_n" + std::to_string(shape.first) + "_r" +
          std::to_string(shape.second) + "_c" +
          std::to_string(std::get<2>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AlgosByShape, BcastSweep,
    ::testing::Combine(
        ::testing::Values(BcastAlgo::Binomial, BcastAlgo::Ring1,
                          BcastAlgo::Ring1Mod, BcastAlgo::Ring2,
                          BcastAlgo::Ring2Mod, BcastAlgo::Long,
                          BcastAlgo::LongMod),
        ::testing::ValuesIn(rooted_shapes()),
        ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{1000})),
    bcast_param_name);

TEST(Bcast, TinyPayloadWithLongAlgo) {
  // Payload of 3 bytes over 5 ranks: must take the chain fallback.
  World::run(5, [](Communicator& comm) {
    char data[3] = {0, 0, 0};
    if (comm.rank() == 0) {
      data[0] = 'a';
      data[1] = 'b';
      data[2] = 'c';
    }
    bcast_bytes(comm, data, 3, 0, BcastAlgo::Long);
    EXPECT_EQ(data[0], 'a');
    EXPECT_EQ(data[2], 'c');
  });
}

TEST(Bcast, SequentialBroadcastsKeepOrder) {
  World::run(4, [](Communicator& comm) {
    for (int round = 0; round < 10; ++round) {
      int v = (comm.rank() == round % 4) ? round * 11 : -1;
      bcast(comm, &v, 1, round % 4, BcastAlgo::Ring1Mod);
      EXPECT_EQ(v, round * 11);
    }
  });
}

class TwoLevelSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TwoLevelSweep, DeliversToEveryRank) {
  const auto [nranks, per_node, root] = GetParam();
  if (root >= nranks) GTEST_SKIP();
  World::run(nranks, [&, per_node = per_node, root = root](Communicator& comm) {
    std::vector<double> buf(257, -1.0);
    if (comm.rank() == root)
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<double>(i) + root;
    bcast_two_level(comm, buf.data(), buf.size() * sizeof(double), root,
                    per_node);
    for (std::size_t i = 0; i < buf.size(); ++i)
      ASSERT_DOUBLE_EQ(buf[i], static_cast<double>(i) + root)
          << "rank " << comm.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TwoLevelSweep,
    ::testing::Values(std::make_tuple(8, 2, 0), std::make_tuple(8, 4, 3),
                      std::make_tuple(8, 8, 5), std::make_tuple(6, 4, 1),
                      std::make_tuple(7, 3, 6), std::make_tuple(1, 2, 0),
                      std::make_tuple(9, 3, 4)));

TEST(BcastAlgoNames, Unique) {
  EXPECT_STREQ(to_string(BcastAlgo::Binomial), "binomial");
  EXPECT_STREQ(to_string(BcastAlgo::Long), "blong");
  EXPECT_STREQ(to_string(BcastAlgo::Ring2Mod), "2ringM");
}

}  // namespace
}  // namespace hplx::comm
