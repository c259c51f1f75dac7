/// \file main.cpp
/// \brief hplbench: closed-loop end-to-end HPL solves, one in flight at a
/// time, plus a traced run that reports per-layer metrics.
///
///   hplbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            [--spans <file>] [--smoke]
///
/// --trace 0 times full solves (comm::World::run + core::run_hpl) for the
/// given seconds and reports the end-to-end metrics as medians over the
/// solves. --trace 1 interleaves traced and untraced solves, then runs a
/// serial baseline solve and the layer probes, and reports the per-layer
/// metrics; spans go to --spans as Chrome trace-event JSON. Every solve is
/// checked: it must return, pass the residual check, and (within one
/// configuration) reproduce the first solve's residual bit for bit. The
/// last stdout line is one JSON object: correct, attempted, failed,
/// metrics and record.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/world.hpp"
#include "core/driver.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "trace/records.hpp"
#include "util/timer.hpp"

namespace {

using namespace hplx;
using hplbench::Span;
using hplbench::SpanRecorder;

struct Workload {
  const char* name;
  int p, q;
  int nb;
  int update_streams;
  core::PrecisionMode precision;
};

// Why each workload exists is recorded in BENCHMARK.json; in short:
// 1x1 fp64 is bound by the device streams' dgemm, 2x2 by the transport,
// and mxp32 runs the float kernels plus iterative refinement.
constexpr long kN = 4096;
constexpr Workload kWorkloads[] = {
    {"fp64_1x1_n4096", 1, 1, 256, 4, core::PrecisionMode::FP64},
    {"fp64_2x2_n4096", 2, 2, 128, 1, core::PrecisionMode::FP64},
    {"mxp32_1x1_n4096", 1, 1, 256, 4, core::PrecisionMode::MXP32},
};

/// A solve that has not returned after this long is a failure; the
/// process then reports and exits, since a hung rank cannot be joined.
constexpr double kSolveDeadlineS = 60.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hplbench: %s\nusage: hplbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value()) != 0;
      else if (a == "--spans") o.spans_path = value();
      else if (a == "--smoke") o.smoke = true;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (o.seconds <= 0.0) usage("--seconds must be positive");
  return o;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  usage("unknown workload '" + name + "'");
}

core::HplConfig make_config(const Workload& w, const Options& o) {
  core::HplConfig c;
  // Smoke mode keeps every shape ratio but shrinks N and NB by 16x / 8x.
  c.n = o.smoke ? kN / 16 : kN;
  c.nb = o.smoke ? w.nb / 8 : w.nb;
  c.p = w.p;
  c.q = w.q;
  c.seed = o.seed;
  c.pipeline = core::PipelineMode::LookaheadSplit;
  c.pivoting = core::PivotMode::Full;
  c.update_streams = w.update_streams;
  c.blas_threads = 1;
  c.fact_threads = 1;
  c.precision = w.precision;
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One full solve and everything the benchmark reads from it.
struct Solve {
  bool ok = false;
  std::string why;  ///< failure reason when !ok
  double tts_s = 0.0;  ///< wall time around comm::World::run
  std::vector<core::HplResult> ranks;  ///< every rank's return value

  const core::HplResult& r0() const { return ranks.front(); }
  double hpl_s() const { return r0().seconds; }
  double gflops(long n) const {
    return trace::hpl_flops(static_cast<double>(n)) / hpl_s() / 1e9;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;  ///< solves or trials behind the value
};

class Bench {
 public:
  explicit Bench(Options o)
      : opt_(std::move(o)),
        wl_(find_workload(opt_.workload)),
        cfg_(make_config(wl_, opt_)) {}

  int run() {
    if (opt_.trace) run_traced();
    else run_timed();
    emit();
    return correct() ? 0 : 1;
  }

 private:
  /// Runs one solve of `c`, checks it, and counts it. With a recorder the
  /// solve is traced: world.run > core.run_hpl (one per rank) > one
  /// core.iteration per record the program reported.
  Solve solve(const core::HplConfig& c, SpanRecorder* rec) {
    Solve s;
    const int nranks = c.p * c.q;
    s.ranks.resize(static_cast<std::size_t>(nranks));
    std::vector<int> rank_span(static_cast<std::size_t>(nranks), 0);
    const int group = rec != nullptr ? rec->new_group() : 0;
    std::packaged_task<void()> task([&] {
      Span world_span(rec, "world.run", group, 0, 0);
      const double t0 = wall_seconds();
      comm::World::run(nranks, [&](comm::Communicator& world) {
        const auto r = static_cast<std::size_t>(world.rank());
        Span rank(rec, "core.run_hpl", group, world_span.id(), world.rank() + 1);
        rank_span[r] = rank.id();
        s.ranks[r] = core::run_hpl(world, c);
      });
      s.tts_s = wall_seconds() - t0;
    });
    std::future<void> done = task.get_future();
    std::thread worker(std::move(task));
    ++attempted_;
    if (done.wait_for(std::chrono::duration<double>(kSolveDeadlineS)) !=
        std::future_status::ready) {
      ++failed_;
      failures_.push_back("solve exceeded the " + num(kSolveDeadlineS) +
                          " s deadline");
      emit();
      std::fflush(stdout);
      std::_Exit(1);  // the hung rank threads cannot be joined
    }
    worker.join();
    try {
      done.get();
      s.why = check(c, s);
    } catch (const std::exception& e) {
      s.why = std::string("solve threw: ") + e.what();
    }
    s.ok = s.why.empty();
    if (!s.ok) {
      ++failed_;
      failures_.push_back(s.why);
    } else {
      if (s.r0().ir_fallback) ++fallbacks_;
      if (rec != nullptr) add_iteration_spans(*rec, c, s, group, rank_span);
    }
    return s;
  }

  /// Empty when the solve is correct, else the reason it is not.
  std::string check(const core::HplConfig& c, const Solve& s) {
    for (const core::HplResult& r : s.ranks) {
      if (!r.verify.passed || !std::isfinite(r.verify.residual))
        return "residual check failed (residual " + num(r.verify.residual) +
               ")";
      if (!(r.seconds > 0.0)) return "non-positive solve time";
    }
    // Within one build a configuration is deterministic: every repeat of
    // this seed must reproduce the first residual bit for bit.
    const std::string key = std::to_string(c.p) + "x" + std::to_string(c.q) +
                            "/" + std::to_string(c.nb) + "/" +
                            std::to_string(c.update_streams);
    const double res = s.r0().verify.residual;
    auto [it, fresh] = residuals_.emplace(key, res);
    if (!fresh && std::memcmp(&it->second, &res, sizeof res) != 0)
      return "residual " + num(res) + " differs from the first solve's " +
             num(it->second) + " (same seed, same build)";
    return {};
  }

  /// The program reports per-iteration durations, not start times, so the
  /// records are laid end to end from the start of the reporting rank's
  /// run_hpl span and flagged as placed. Each record belongs to the rank
  /// owning that iteration's diagonal block, whose loop runs iterations
  /// one after another, so they always fit inside its span.
  static void add_iteration_spans(SpanRecorder& rec, const core::HplConfig& c,
                                  const Solve& s, int group,
                                  const std::vector<int>& rank_span) {
    std::vector<double> cursor(rank_span.size());
    for (std::size_t r = 0; r < rank_span.size(); ++r)
      cursor[r] = rec.get(rank_span[r]).start_s;
    for (const trace::IterationRecord& it : s.r0().trace.iterations) {
      const long k = it.column / c.nb;
      const auto owner = static_cast<std::size_t>(k % c.p + (k % c.q) * c.p);
      rec.add("core.iteration", group, rank_span[owner],
              static_cast<int>(owner) + 1, cursor[owner],
              cursor[owner] + it.total_s, /*placed=*/true);
      cursor[owner] += it.total_s;
    }
  }

  // ----------------------------------------------------------- timed run

  void run_timed() {
    const double rss_mib = single_solve_peak_rss_mib();
    solve(cfg_, nullptr);  // warm-up: first-touch pages, autotune, pools
    std::vector<double> gflops, tts, setup;
    const double t0 = wall_seconds();
    while (gflops.size() < 3 || wall_seconds() - t0 < opt_.seconds) {
      const Solve s = solve(cfg_, nullptr);
      if (failed_ > 3) break;
      if (!s.ok) continue;
      gflops.push_back(s.gflops(cfg_.n));
      tts.push_back(s.tts_s);
      setup.push_back(s.tts_s - s.hpl_s());
    }
    add("gflops", median(gflops), "GF/s", gflops.size());
    add("time_to_solution_s", median(tts), "s", tts.size());
    add("setup_s", median(setup), "s", setup.size());
    add("peak_rss_mib", rss_mib, "MiB", 1);
    per_solve_gflops_ = gflops;
  }

  /// Peak RSS of a process that runs one solve of the workload and
  /// nothing else: a child forked before this process starts any thread.
  /// The child's solve is checked and counted like every other.
  double single_solve_peak_rss_mib() {
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      Bench child(opt_);
      const Solve s = child.solve(cfg_, nullptr);
      std::_Exit(s.ok ? 0 : 1);
    }
    ++attempted_;
    int status = 0;
    rusage ru{};
    const double deadline = wall_seconds() + kSolveDeadlineS;
    pid_t got = 0;
    while ((got = wait4(pid, &status, WNOHANG, &ru)) == 0 &&
           wall_seconds() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (got == 0) {
      kill(pid, SIGKILL);
      wait4(pid, &status, 0, &ru);
    }
    if (got <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failed_;
      failures_.push_back(got == 0 ? "peak-RSS solve exceeded the deadline"
                                   : "peak-RSS solve failed");
    }
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

  // ---------------------------------------------------------- traced run

  void run_traced() {
    solve(cfg_, nullptr);  // warm-up
    std::map<std::string, std::vector<double>> per;  // traced-solve samples
    std::vector<double> traced_gf, plain_gf;
    const double t0 = wall_seconds();
    for (int i = 0; traced_gf.size() < 2 || plain_gf.size() < 2 ||
                    wall_seconds() - t0 < opt_.seconds;
         ++i) {
      const bool traced = i % 2 == 0;
      const Solve s = solve(cfg_, traced ? &spans_ : nullptr);
      if (failed_ > 3) break;
      if (!s.ok) continue;
      (traced ? traced_gf : plain_gf).push_back(s.gflops(cfg_.n));
      if (traced) reported_layers(s, per);
    }
    for (auto& [name, v] : per) {
      // Counts that must stay 0 report the worst solve, not the median.
      const bool worst = name == "device.alloc.steady_upstream_allocs";
      const bool lowest = name == "device.alloc.steady_hit_rate";
      const double value = worst    ? *std::max_element(v.begin(), v.end())
                           : lowest ? *std::min_element(v.begin(), v.end())
                                    : median(v);
      add(name, value, units_.at(name), v.size());
    }
    add("core.refine.fallbacks", fallbacks_, "count", attempted_);
    add("trace.overhead_pct",
        100.0 * (median(plain_gf) - median(traced_gf)) / median(plain_gf), "%",
        traced_gf.size() + plain_gf.size());

    // Plain baseline: the 1x1 NB=256 shape at the workload's precision,
    // one update stream, one thread everywhere.
    core::HplConfig serial = cfg_;
    serial.p = serial.q = 1;
    serial.nb = opt_.smoke ? 32 : 256;
    serial.update_streams = 1;
    const Solve base = [&] {
      const int group = spans_.new_group();
      Span span(&spans_, "probe.core.solve.serial", group, 0, 0);
      return solve(serial, nullptr);
    }();
    const double serial_gf = base.ok ? base.gflops(serial.n) : 0.0;
    add("core.solve.serial_gflops", serial_gf, "GF/s", 1);
    add("core.solve.parallel_speedup",
        serial_gf > 0.0 ? median(plain_gf) / serial_gf : 0.0, "ratio",
        plain_gf.size());

    run_probes();

    if (!opt_.spans_path.empty() &&
        !hplbench::write_chrome_trace(spans_.snapshot(), opt_.spans_path)) {
      failures_.push_back("could not write " + opt_.spans_path);
    }
  }

  /// Per-solve values of the metrics the program already measures.
  /// Rank-local totals are reported as max and min over ranks.
  void reported_layers(const Solve& s,
                       std::map<std::string, std::vector<double>>& per) {
    auto put = [&](const std::string& name, double v, const char* unit) {
      per[name].push_back(v);
      units_[name] = unit;
    };
    auto over_ranks = [&](const std::string& name, const char* unit,
                          double core::HplResult::*field) {
      double lo = s.ranks[0].*field, hi = lo;
      for (const core::HplResult& r : s.ranks) {
        lo = std::min(lo, r.*field);
        hi = std::max(hi, r.*field);
      }
      put(name + ".max", hi, unit);
      put(name + ".min", lo, unit);
    };
    over_ranks("core.pfact.busy_s", "s", &core::HplResult::fact_seconds);
    over_ranks("comm.busy_s", "s", &core::HplResult::mpi_seconds);
    over_ranks("core.rowswap.wire_s", "s", &core::HplResult::rs_wire_seconds);

    double wire_bytes = 0.0, unpack = 0.0, data_s = 0.0, hwm = 0.0;
    double busy = 0.0, modeled = 0.0, busiest = 0.0;
    std::size_t nstreams = 0;
    for (const core::HplResult& r : s.ranks) {
      wire_bytes += static_cast<double>(r.rs_wire_bytes);
      unpack = std::max(unpack, r.rs_unpack_seconds);
      data_s += r.transfer_seconds;
      for (double v : r.stream_real_seconds) {
        busy += v;
        busiest = std::max(busiest, v);
        ++nstreams;
      }
      for (double v : r.stream_busy_seconds) modeled += v;
      for (const core::AllocPoolReport& p : r.alloc.pools) {
        const std::string& n = p.name;
        const auto ends = [&](const char* suffix) {
          const std::size_t k = std::strlen(suffix);
          return n.size() >= k && n.compare(n.size() - k, k, suffix) == 0;
        };
        if (ends(".hbm") || ends(".arena"))
          hwm += static_cast<double>(p.hwm_bytes);
      }
    }
    const double hpl_s = s.hpl_s();
    const double iter_s = s.r0().trace.total_seconds();
    put("core.rowswap.wire_bytes", wire_bytes, "bytes");
    put("core.rowswap.unpack_modeled_s", unpack, "s");
    put("device.compute.busy_s", busy, "s");
    put("device.compute.occupancy",
        busy / (static_cast<double>(nstreams) * hpl_s), "ratio");
    put("device.compute.stream_imbalance",
        busy > 0.0 ? busiest / (busy / static_cast<double>(nstreams)) : 0.0,
        "ratio");
    put("device.compute.modeled_busy_s", modeled, "s");
    put("device.data.busy_s", data_s, "s");
    put("device.alloc.steady_upstream_allocs",
        static_cast<double>(s.r0().alloc.steady_upstream_allocs), "count");
    put("device.alloc.steady_hit_rate", s.r0().alloc.steady_hit_rate,
        "ratio");
    put("device.alloc.hwm_mib", hwm / (1024.0 * 1024.0), "MiB");
    put("core.driver.iter_s", iter_s, "s");
    put("core.driver.outside_iters_s", hpl_s - iter_s, "s");
    put("core.refine.ir_iters", s.r0().ir_iters, "count");
  }

  void run_probes() {
    const hplbench::ProbeShape shape = hplbench::probe_shape(cfg_);
    const int trials = opt_.smoke ? 2 : 5;
    auto probe = [&](const std::string& metric, const char* unit, auto fn) {
      const int group = spans_.new_group();
      Span span(&spans_, "probe." + metric, group, 0, 0);
      add(metric, fn(), unit, 1);
    };
    for (const bool fp32 : {false, true}) {
      const std::string name = fp32 ? "blas.sgemm" : "blas.dgemm";
      const int group = spans_.new_group();
      Span span(&spans_, "probe." + name, group, 0, 0);
      const hplbench::Rate r =
          hplbench::gemm_gflops(fp32, shape, trials, opt_.smoke);
      add(name + ".gflops", r.rate, "GF/s", 1);
      add(name + ".peak_gflops", r.ceiling, "GF/s", 1);
    }
    probe("blas.dtrsm.gflops", "GF/s", [&] {
      return hplbench::trsm_gflops(shape, trials, opt_.smoke);
    });
    probe("core.pfact.gflops", "GF/s",
          [&] { return hplbench::pfact_gflops(cfg_, trials); });
    probe("core.panel_bcast.gbps", "GB/s",
          [&] { return hplbench::panel_bcast_gbps(cfg_, 2 * trials); });
    probe("comm.allgatherv.gbps", "GB/s",
          [&] { return hplbench::allgatherv_gbps(cfg_, 2 * trials); });
    probe("comm.pingpong_us", "us",
          [&] { return hplbench::pingpong_us(trials); });
    probe("comm.pingpong_gbps", "GB/s",
          [&] { return hplbench::pingpong_gbps(trials); });
    probe("device.rowswap_kernel.gbps", "GB/s", [&] {
      return hplbench::rowswap_kernel_gbps(cfg_, trials, opt_.smoke);
    });
    const std::size_t llc = hplbench::llc_bytes();
    memcpy_bytes_ = opt_.smoke ? (8u << 20)
                               : (llc > 0 ? 4 * llc : std::size_t{1} << 30);
    const int threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    probe("device.memcpy.gbps", "GB/s", [&] {
      return hplbench::memcpy_gbps(memcpy_bytes_, threads, trials);
    });
    llc_bytes_ = llc;
    const int few = opt_.smoke ? 1 : 3;
    probe("core.backsolve.s", "s",
          [&] { return hplbench::backsolve_s(cfg_, few); });
    probe("rng.matgen_s", "s", [&] { return hplbench::matgen_s(cfg_, few); });
    probe("core.verify.s", "s", [&] { return hplbench::verify_s(cfg_, few); });
  }

  // -------------------------------------------------------------- output

  void add(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    metrics_.push_back({name, value, unit, samples});
  }

  bool correct() const {
    if (failed_ > 0 || !failures_.empty()) return false;
    for (const Metric& m : metrics_)
      if (!std::isfinite(m.value)) return false;
    return true;
  }

  void emit() const {
    std::ostringstream o;
    o << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      o << (i ? ", " : "") << json_string(metrics_[i].name)
        << ": {\"value\": " << num(metrics_[i].value)
        << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
    }
    o << "}, \"record\": {\"workload\": " << json_string(wl_.name)
      << ", \"seed\": " << opt_.seed << ", \"trace\": " << opt_.trace
      << ", \"smoke\": " << (opt_.smoke ? "true" : "false")
      << ", \"seconds\": " << num(opt_.seconds)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"config\": {\"n\": " << cfg_.n << ", \"nb\": " << cfg_.nb
      << ", \"p\": " << cfg_.p << ", \"q\": " << cfg_.q
      << ", \"ranks\": " << cfg_.p * cfg_.q
      << ", \"update_streams\": " << cfg_.update_streams
      << ", \"blas_threads\": " << cfg_.blas_threads
      << ", \"fact_threads\": " << cfg_.fact_threads
      << ", \"precision\": " << json_string(core::to_string(cfg_.precision))
      << ", \"pipeline\": " << json_string(core::to_string(cfg_.pipeline))
      << ", \"pivoting\": " << json_string(core::to_string(cfg_.pivoting))
      << "}, \"samples\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      o << (i ? ", " : "") << json_string(metrics_[i].name) << ": "
        << metrics_[i].samples;
    }
    o << "}, \"residuals\": {";
    std::size_t i = 0;
    for (const auto& [key, res] : residuals_)
      o << (i++ ? ", " : "") << json_string(key) << ": " << num(res);
    o << "}, \"failures\": [";
    for (std::size_t k = 0; k < failures_.size(); ++k)
      o << (k ? ", " : "") << json_string(failures_[k]);
    o << "]";
    o << ", \"gflops_per_solve\": [";
    for (std::size_t k = 0; k < per_solve_gflops_.size(); ++k)
      o << (k ? ", " : "") << num(per_solve_gflops_[k]);
    o << "]";
    if (opt_.trace) {
      o << ", \"llc_bytes\": " << llc_bytes_
        << ", \"memcpy_buffer_bytes\": " << memcpy_bytes_;
    }
    o << "}}";
    std::printf("%s\n", o.str().c_str());
  }

  Options opt_;
  const Workload& wl_;
  core::HplConfig cfg_;
  SpanRecorder spans_;
  int attempted_ = 0;
  int failed_ = 0;
  int fallbacks_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> residuals_;
  std::map<std::string, const char*> units_;
  std::vector<Metric> metrics_;
  std::vector<double> per_solve_gflops_;
  std::size_t llc_bytes_ = 0;
  std::size_t memcpy_bytes_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    Bench bench(opt);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hplbench: %s\n", e.what());
    return 3;
  }
}
