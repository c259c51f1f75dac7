/// \file probes.cpp
/// \brief Layer probes and ceilings; see probes.hpp.

#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <latch>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "core/backsolve.hpp"
#include "core/matrix.hpp"
#include "core/panel_bcast.hpp"
#include "core/pfact.hpp"
#include "core/verify.hpp"
#include "device/device.hpp"
#include "device/kernels.hpp"
#include "device/stream.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/process_grid.hpp"
#include "rng/matgen.hpp"
#include "util/thread_team.hpp"
#include "util/timer.hpp"

namespace hplbench {

using namespace hplx;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double best(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

/// Deterministic fill on [-0.5, 0.5) times `scale`.
template <typename T>
void fill(std::vector<T>& v, std::uint64_t seed, double scale = 1.0) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (T& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = static_cast<T>(scale * (static_cast<double>(x >> 11) * 0x1p-53 - 0.5));
  }
}

/// Runs body(t) on `threads` threads released together; returns the wall
/// seconds from the release until the last one finished.
double run_together(int threads, const std::function<void(int)>& body) {
  std::latch ready(threads), go(1);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.count_down();
      go.wait();
      body(t);
    });
  }
  ready.wait();
  const double t0 = wall_seconds();
  go.count_down();
  for (auto& th : pool) th.join();
  return wall_seconds() - t0;
}

/// One trial of a collective: from a common barrier until the slowest
/// rank returns.
double timed_collective(comm::Communicator& c,
                        const std::function<void()>& body) {
  comm::barrier(c);
  const double t0 = wall_seconds();
  body();
  double dt = wall_seconds() - t0;
  comm::allreduce(c, &dt, 1, comm::ReduceOp::Max);
  return dt;
}

/// Repetitions of a call of `flops` so one trial does about `target`.
int reps_for(double flops, double target) {
  return std::max(1, static_cast<int>(target / std::max(flops, 1.0)));
}

template <typename T>
void gemm_call(int m, int n, int k, const T* a, const T* b, T* c) {
  if constexpr (sizeof(T) == 4) {
    blas::sgemm(blas::Trans::No, blas::Trans::No, m, n, k, -1.0f, a, m, b, k,
                1.0f, c, m);
  } else {
    blas::dgemm(blas::Trans::No, blas::Trans::No, m, n, k, -1.0, a, m, b, k,
                1.0, c, m);
  }
}

/// GF/s of `trials` trials of s.concurrency concurrent m×n×k gemm calls.
template <typename T>
std::vector<double> gemm_trials(int conc, long m, long n, long k, int trials,
                                double target_flops) {
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const int reps = reps_for(flops, target_flops);
  std::vector<std::vector<T>> a(conc), b(conc), c(conc);
  for (int t = 0; t < conc; ++t) {
    a[t].resize(static_cast<std::size_t>(m * k));
    b[t].resize(static_cast<std::size_t>(k * n));
    c[t].assign(static_cast<std::size_t>(m * n), T(0));
    fill(a[t], 1 + t);
    fill(b[t], 101 + t);
  }
  std::vector<double> rates;
  for (int r = 0; r < trials; ++r) {
    const double dt = run_together(conc, [&](int t) {
      for (int i = 0; i < reps; ++i)
        gemm_call<T>(static_cast<int>(m), static_cast<int>(n),
                     static_cast<int>(k), a[t].data(), b[t].data(),
                     c[t].data());
    });
    rates.push_back(flops * reps * conc / dt / 1e9);
  }
  return rates;
}

double target_flops(bool smoke) { return smoke ? 2e6 : 1.5e9; }

template <typename T>
double pfact_gflops_t(const core::HplConfig& cfg, int trials) {
  std::vector<double> times;
  comm::World::run(cfg.p, [&](comm::Communicator& col) {
    const int myrow = col.rank();
    const long mloc = grid::numroc(cfg.n, cfg.nb, myrow, cfg.p);
    const int jb = static_cast<int>(std::min<long>(cfg.nb, cfg.n));
    const long ldw = std::max<long>(mloc, 1);
    // The first panel: this rank's rows of global columns [0, jb).
    std::vector<double> gen(static_cast<std::size_t>(ldw) * jb);
    rng::generate_local(cfg.seed, cfg.n, jb, cfg.nb, myrow, 0, cfg.p, 1,
                        gen.data(), ldw);
    std::vector<T> pristine(gen.begin(), gen.end()), w(pristine.size());
    std::vector<long> glob(static_cast<std::size_t>(ldw));
    for (long i = 0; i < mloc; ++i)
      glob[static_cast<std::size_t>(i)] =
          ((i / cfg.nb) * cfg.p + myrow) * cfg.nb + i % cfg.nb;
    std::vector<T> top(static_cast<std::size_t>(jb) * jb);
    std::vector<long> ipiv(static_cast<std::size_t>(jb));
    ThreadTeam team(std::max(1, cfg.fact_threads));
    core::PanelTaskT<T> task;
    task.j = 0;
    task.jb = jb;
    task.w = w.data();
    task.mw = mloc;
    task.ldw = ldw;
    task.glob = glob.data();
    task.top = top.data();
    task.ldtop = jb;
    task.ipiv = ipiv.data();
    task.is_curr = myrow == 0;
    task.tile_rows = cfg.nb;
    task.diag_root = 0;
    for (int r = 0; r < trials; ++r) {
      w = pristine;
      const double dt = timed_collective(
          col, [&] { core::panel_factorize(col, cfg, team, task); });
      if (col.rank() == 0) times.push_back(dt);
    }
  });
  const double m = static_cast<double>(cfg.n);
  const double nb = static_cast<double>(std::min<long>(cfg.nb, cfg.n));
  const double flops = m * nb * nb - nb * nb * nb / 3.0;
  return flops / median(times) / 1e9;
}

template <typename T>
double panel_bcast_gbps_t(const core::HplConfig& cfg, int trials) {
  // With Q = 1 the solve never broadcasts; the probe still moves the
  // workload's panel between two ranks so the figure is defined.
  const int ranks = std::max(cfg.q, 2);
  const int jb = static_cast<int>(std::min<long>(cfg.nb, cfg.n));
  const long ml2 = std::max<long>(grid::numroc(cfg.n, cfg.nb, 0, cfg.p) - jb, 0);
  const double bytes =
      (static_cast<double>(jb) * jb + static_cast<double>(ml2) * jb) *
          sizeof(T) +
      static_cast<double>(jb) * sizeof(long);
  std::vector<double> times;
  comm::World::run(ranks, [&](comm::Communicator& row) {
    core::PanelDataT<T> panel;
    panel.j = 0;
    // reserve() also sizes the wire scratch, so no trial allocates.
    panel.reserve(jb, ml2);
    panel.resize(jb, ml2);
    if (row.rank() == 0) {
      fill(panel.top, 7);
      fill(panel.l2, 8);
      std::iota(panel.ipiv.begin(), panel.ipiv.end(), 0L);
    }
    for (int r = 0; r < trials; ++r) {
      double mpi = 0.0;
      const double dt = timed_collective(row, [&] {
        core::panel_broadcast(row, cfg.bcast, 0, panel, &mpi);
      });
      if (row.rank() == 0) times.push_back(dt);
    }
  });
  return bytes / median(times) / 1e9;
}

template <typename T>
double allgatherv_gbps_t(const core::HplConfig& cfg, int trials) {
  // The U-assembly payload at mid-run: NB rows of the local trailing
  // width, split evenly over the process column.
  const ProbeShape s = probe_shape(cfg);
  const int ranks = std::max(cfg.p, 2);
  const std::size_t total = static_cast<std::size_t>(s.nb) *
                            static_cast<std::size_t>(s.nloc_mid) * sizeof(T);
  const std::size_t seg = std::max<std::size_t>(total / ranks, 1);
  std::vector<std::size_t> counts(static_cast<std::size_t>(ranks), seg),
      displs(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) displs[static_cast<std::size_t>(r)] = r * seg;
  std::vector<double> times;
  comm::World::run(ranks, [&](comm::Communicator& col) {
    std::vector<char> send(seg, static_cast<char>(col.rank()));
    std::vector<char> recv(seg * static_cast<std::size_t>(ranks));
    for (int r = 0; r < trials; ++r) {
      const double dt = timed_collective(col, [&] {
        comm::allgatherv_bytes(col, send.data(), counts, displs, recv.data());
      });
      if (col.rank() == 0) times.push_back(dt);
    }
  });
  return static_cast<double>(seg) * ranks / median(times) / 1e9;
}

/// Seconds per one-way trip of `bytes`, half of a measured round trip.
std::vector<double> pingpong_trials(std::size_t bytes, int round_trips,
                                    int trials) {
  std::vector<double> one_way;
  comm::World::run(2, [&](comm::Communicator& c) {
    std::vector<char> buf(bytes, 1);
    const int peer = 1 - c.rank();
    for (int r = 0; r < trials; ++r) {
      comm::barrier(c);
      const double t0 = wall_seconds();
      for (int i = 0; i < round_trips; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(buf.data(), bytes, peer, 7);
          c.recv_bytes(buf.data(), bytes, peer, 7);
        } else {
          c.recv_bytes(buf.data(), bytes, peer, 7);
          c.send_bytes(buf.data(), bytes, peer, 7);
        }
      }
      if (c.rank() == 0)
        one_way.push_back((wall_seconds() - t0) / (2.0 * round_trips));
    }
  });
  return one_way;
}

template <typename T>
double rowswap_kernel_gbps_t(const core::HplConfig& cfg, int trials,
                             bool smoke) {
  // Gather NB pivot rows out of the mid-run local trailing block, the
  // kernel that feeds every row-swap message.
  const ProbeShape s = probe_shape(cfg);
  const long m = std::max<long>(s.mloc_mid, s.nb);
  const long n = std::max<long>(s.nloc_mid, 1);
  device::Device dev("probe", cfg.hbm_bytes, cfg.dev_model);
  device::Buffer a = dev.alloc_elems<T>(static_cast<std::size_t>(m * n));
  device::Buffer out = dev.alloc_elems<T>(static_cast<std::size_t>(s.nb * n));
  std::fill_n(a.data_as<T>(), m * n, T(1));
  std::vector<long> rows(static_cast<std::size_t>(m));
  std::iota(rows.begin(), rows.end(), 0L);
  std::uint64_t x = cfg.seed | 1;
  for (std::size_t i = rows.size() - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(rows[i], rows[x % (i + 1)]);
  }
  rows.resize(static_cast<std::size_t>(s.nb));
  const double bytes = 2.0 * static_cast<double>(s.nb) * n * sizeof(T);
  const int reps = reps_for(bytes, smoke ? 1e6 : 4e8);
  std::vector<double> rates;
  {
    device::Stream st(dev, "probe");
    for (int r = 0; r < trials; ++r) {
      const double t0 = wall_seconds();
      for (int i = 0; i < reps; ++i)
        device::row_gather<T>(st, a.data_as<T>(), m, rows, n,
                              out.data_as<T>(), s.nb);
      st.synchronize();
      rates.push_back(bytes * reps / (wall_seconds() - t0) / 1e9);
    }
  }
  return median(rates);
}

template <typename T>
double backsolve_s_t(const core::HplConfig& cfg, int trials) {
  std::vector<double> times;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, cfg.p, cfg.q);
    device::Device dev("probe" + std::to_string(world.rank()), cfg.hbm_bytes,
                       cfg.dev_model);
    // A diagonally dominant system keeps the triangular solve finite
    // without factoring first; the solve reads only the upper triangle.
    core::DistMatrixT<T> a(dev, g, cfg.n, cfg.nb, cfg.seed, 1,
                           static_cast<double>(cfg.n));
    device::Stream st(dev, "probe");
    for (int r = 0; r < trials; ++r) {
      double mpi = 0.0;
      const double dt = timed_collective(
          g.all_comm(), [&] { core::backsolve<T>(g, a, st, &mpi); });
      if (world.rank() == 0) times.push_back(dt);
    }
  });
  return median(times);
}

bool is_fp32(const core::HplConfig& cfg) {
  return cfg.precision != core::PrecisionMode::FP64;
}

}  // namespace

ProbeShape probe_shape(const core::HplConfig& cfg) {
  ProbeShape s;
  s.nb = static_cast<int>(std::min<long>(cfg.nb, cfg.n));
  const long trailing = cfg.n / 2;
  s.mloc_mid = std::max<long>(trailing / cfg.p, 1);
  s.nloc_mid = std::max<long>(trailing / cfg.q, 1);
  const int streams = std::max(1, cfg.update_streams);
  s.band = std::max<long>(s.nloc_mid / streams, 1);
  s.concurrency = std::clamp(cfg.p * cfg.q * streams, 1, 4);
  return s;
}

std::size_t llc_bytes() {
  for (const int level : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(level);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

Rate gemm_gflops(bool fp32, const ProbeShape& s, int trials, bool smoke) {
  auto run = [&](long m, long n, long k) {
    return fp32 ? gemm_trials<float>(s.concurrency, m, n, k, trials,
                                     target_flops(smoke))
                : gemm_trials<double>(s.concurrency, m, n, k, trials,
                                      target_flops(smoke));
  };
  const std::vector<double> band = run(s.mloc_mid, s.band, s.nb);
  // The ceiling is the best trial at the same concurrency over the band
  // shape and two cache-friendly square-ish shapes.
  const long d = smoke ? 64 : 1024;
  const double ceiling = std::max(
      {best(band), best(run(d, d, d)), best(run(2 * d, 2 * d, s.nb))});
  return {median(band), ceiling};
}

double trsm_gflops(const ProbeShape& s, int trials, bool smoke) {
  // U := L1^{-1}·U on one update band: NB×NB unit lower L1, NB×band U.
  // Off-diagonals are tiny so repeated solves stay well inside range.
  const double flops = static_cast<double>(s.nb) * s.nb * s.band;
  const int reps = reps_for(flops, target_flops(smoke));
  std::vector<double> l(static_cast<std::size_t>(s.nb) * s.nb);
  fill(l, 3, 1e-3 / s.nb);
  std::vector<std::vector<double>> u(static_cast<std::size_t>(s.concurrency));
  for (int t = 0; t < s.concurrency; ++t) {
    u[static_cast<std::size_t>(t)].resize(static_cast<std::size_t>(s.nb) *
                                          s.band);
    fill(u[static_cast<std::size_t>(t)], 11 + t);
  }
  std::vector<double> rates;
  for (int r = 0; r < trials; ++r) {
    const double dt = run_together(s.concurrency, [&](int t) {
      for (int i = 0; i < reps; ++i)
        blas::dtrsm(blas::Side::Left, blas::Uplo::Lower, blas::Trans::No,
                    blas::Diag::Unit, s.nb, static_cast<int>(s.band), 1.0,
                    l.data(), s.nb, u[static_cast<std::size_t>(t)].data(),
                    s.nb);
    });
    rates.push_back(flops * reps * s.concurrency / dt / 1e9);
  }
  return median(rates);
}

double pfact_gflops(const core::HplConfig& cfg, int trials) {
  return is_fp32(cfg) ? pfact_gflops_t<float>(cfg, trials)
                      : pfact_gflops_t<double>(cfg, trials);
}

double panel_bcast_gbps(const core::HplConfig& cfg, int trials) {
  return is_fp32(cfg) ? panel_bcast_gbps_t<float>(cfg, trials)
                      : panel_bcast_gbps_t<double>(cfg, trials);
}

double allgatherv_gbps(const core::HplConfig& cfg, int trials) {
  return is_fp32(cfg) ? allgatherv_gbps_t<float>(cfg, trials)
                      : allgatherv_gbps_t<double>(cfg, trials);
}

double pingpong_us(int trials) {
  return median(pingpong_trials(64, 2000, trials)) * 1e6;
}

double pingpong_gbps(int trials) {
  const std::size_t bytes = 1u << 20;
  return static_cast<double>(bytes) /
         median(pingpong_trials(bytes, 40, trials)) / 1e9;
}

double rowswap_kernel_gbps(const core::HplConfig& cfg, int trials,
                           bool smoke) {
  return is_fp32(cfg) ? rowswap_kernel_gbps_t<float>(cfg, trials, smoke)
                      : rowswap_kernel_gbps_t<double>(cfg, trials, smoke);
}

double memcpy_gbps(std::size_t buffer_bytes, int threads, int trials) {
  // One buffer, copied half to half: every trial streams buffer_bytes of
  // distinct data, so nothing survives in cache between trials. Bytes are
  // counted read plus written (the STREAM copy convention).
  const std::size_t half = buffer_bytes / 2 / 64 * 64;
  std::vector<char> buf(2 * half, 1);
  const std::size_t slice = half / static_cast<std::size_t>(threads);
  std::vector<double> rates;
  for (int r = 0; r < trials; ++r) {
    const double dt = run_together(threads, [&](int t) {
      const std::size_t off = static_cast<std::size_t>(t) * slice;
      std::memcpy(buf.data() + half + off, buf.data() + off, slice);
    });
    rates.push_back(2.0 * static_cast<double>(slice) * threads / dt / 1e9);
  }
  return best(rates);
}

double backsolve_s(const core::HplConfig& cfg, int trials) {
  return is_fp32(cfg) ? backsolve_s_t<float>(cfg, trials)
                      : backsolve_s_t<double>(cfg, trials);
}

double matgen_s(const core::HplConfig& cfg, int trials) {
  std::vector<double> times;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    // Column-major grid mapping, as ProcessGrid's default.
    const int myrow = world.rank() % cfg.p, mycol = world.rank() / cfg.p;
    const long mloc = grid::numroc(cfg.n, cfg.nb, myrow, cfg.p);
    const long nloc = grid::numroc(cfg.n + cfg.nrhs, cfg.nb, mycol, cfg.q);
    const long lda = std::max<long>(mloc, 1);
    std::vector<double> a(static_cast<std::size_t>(lda * nloc));
    for (int r = 0; r < trials; ++r) {
      const double dt = timed_collective(world, [&] {
        rng::generate_local(cfg.seed, cfg.n, cfg.n + cfg.nrhs, cfg.nb, myrow,
                            mycol, cfg.p, cfg.q, a.data(), lda);
      });
      if (world.rank() == 0) times.push_back(dt);
    }
  });
  return median(times);
}

double verify_s(const core::HplConfig& cfg, int trials) {
  std::vector<double> times;
  comm::World::run(cfg.p * cfg.q, [&](comm::Communicator& world) {
    grid::ProcessGrid g(world, cfg.p, cfg.q);
    const std::vector<double> x(static_cast<std::size_t>(cfg.n),
                                1.0 / static_cast<double>(cfg.n));
    for (int r = 0; r < trials; ++r) {
      const double dt = timed_collective(g.all_comm(), [&] {
        core::verify_solution(g, cfg.n, cfg.nb, cfg.seed, x, 16.0, cfg.nrhs);
      });
      if (world.rank() == 0) times.push_back(dt);
    }
  });
  return median(times);
}

}  // namespace hplbench
