/// \file bench_comm.cpp
/// \brief K-COMM: google-benchmark timings of the minimpi collectives that
/// no hplbench probe measures — the FACT pivot allreduce and the panel
/// broadcast algorithms (ping-pong and the row-swap allgatherv are
/// hplbench probes). Each iteration spins up a rank team, so the numbers
/// include thread launch; they track the substrate, not the paper.

#include <benchmark/benchmark.h>

#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"

namespace {

using namespace hplx;

void BM_PivotAllreduce(benchmark::State& state) {
  // The FACT inner collective: max-loc + 2 rows of NB doubles.
  const int ranks = static_cast<int>(state.range(0));
  const int nb = 512;
  const int reps = 20;
  double hit_rate = 0.0;
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& comm) {
      std::vector<double> msg(2 * nb + 4, comm.rank());
      for (int r = 0; r < reps; ++r) {
        comm::allreduce_bytes(comm, msg.data(), msg.size() * sizeof(double),
                              [](void* inout, const void* in) {
                                auto* a = static_cast<double*>(inout);
                                const auto* b =
                                    static_cast<const double*>(in);
                                if (b[0] > a[0]) a[0] = b[0];
                              });
      }
      if (comm.rank() == 0) hit_rate = comm.fabric().pool_stats().hit_rate();
    });
  }
  state.counters["pool_hit_rate"] = hit_rate;
}
BENCHMARK(BM_PivotAllreduce)->Arg(2)->Arg(4)->Arg(8);

void BM_PanelBcast(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  const auto algo = static_cast<comm::BcastAlgo>(state.range(2));
  double hit_rate = 0.0;
  for (auto _ : state) {
    comm::World::run(ranks, [&](comm::Communicator& comm) {
      std::vector<char> buf(bytes, comm.rank() == 0 ? 1 : 0);
      comm::bcast_bytes(comm, buf.data(), bytes, 0, algo);
      benchmark::DoNotOptimize(buf.data());
      if (comm.rank() == 0) hit_rate = comm.fabric().pool_stats().hit_rate();
    });
  }
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()) /
          1e6,
      benchmark::Counter::kIsRate);
  state.counters["pool_hit_rate"] = hit_rate;
}
BENCHMARK(BM_PanelBcast)
    ->Args({8, 1 << 20, static_cast<long>(comm::BcastAlgo::Binomial)})
    ->Args({8, 1 << 20, static_cast<long>(comm::BcastAlgo::Ring1Mod)})
    ->Args({8, 1 << 20, static_cast<long>(comm::BcastAlgo::Long)});

}  // namespace

BENCHMARK_MAIN();
