#include "device/autotune.hpp"

#include <algorithm>
#include <mutex>
#include <vector>

#include "device/device.hpp"
#include "device/engine.hpp"
#include "device/kernels.hpp"
#include "device/stream.hpp"
#include "util/timer.hpp"

namespace hplx::device {

namespace {

/// Probe matrix shape: tall enough that pivot rows land on distinct pages,
/// wide enough that every candidate width gets several tiles.
constexpr long kProbeRows = 2048;
constexpr long kProbeCols = 1024;
constexpr int kProbeJb = 64;
constexpr int kProbeReps = 3;

struct ProbeResult {
  long tile_cols = 256;
  long chunk_bytes = 256 * 1024;
};

ProbeResult run_probe() {
  const EngineConfig entry = engine_config();

  Device dev("autotune", static_cast<std::size_t>(kProbeRows + kProbeJb) *
                             kProbeCols * sizeof(double) * 2,
             DeviceModel::mi250x_gcd());
  Stream s(dev, "autotune");
  Buffer a = dev.alloc(static_cast<std::size_t>(kProbeRows) * kProbeCols);
  Buffer packed =
      dev.alloc(static_cast<std::size_t>(kProbeJb) * kProbeCols);
  for (std::size_t i = 0; i < a.count(); ++i)
    a.data()[i] = static_cast<double>(i % 1021);

  // The row list a swap panel would use: jb rows scattered down the
  // window, like pivots drawn from the whole trailing block.
  std::vector<long> rows(kProbeJb);
  for (int k = 0; k < kProbeJb; ++k)
    rows[static_cast<std::size_t>(k)] = (static_cast<long>(k) * 31) %
                                        kProbeRows;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  // The swap's wire block: nr×cols, column-major, ld = nr.
  const long nr = static_cast<long>(rows.size());

  const long candidates[] = {64, 128, 256, 512, 1024};
  long best = entry.tile_cols > 0 ? entry.tile_cols : 256;
  double best_t = -1.0;
  for (const long cand : candidates) {
    configure_engine({cand, entry.threads});
    // Warm-up pass so first-touch and team wake-up cost is not billed to
    // the first candidate.
    row_gather(s, a.data(), kProbeRows, rows, kProbeCols, packed.data(), nr);
    s.synchronize();
    Timer t;
    t.start();
    // Gather/scatter round trips: the pack and unpack of the swap's wire
    // block (the receive side is the measured slowest swap kernel, so its
    // timing belongs in the vote).
    for (int rep = 0; rep < kProbeReps; ++rep) {
      row_gather(s, a.data(), kProbeRows, rows, kProbeCols, packed.data(),
                 nr);
      row_scatter(s, a.data(), kProbeRows, rows, kProbeCols, packed.data(),
                  nr);
    }
    s.synchronize();
    const double dt = t.stop();
    if (best_t < 0.0 || dt < best_t) {
      best_t = dt;
      best = cand;
    }
  }

  // Chunk size for the pipelined broadcast: measure row_scatter
  // throughput at the winning width and size the chunk so one fused
  // unpack costs ~50 µs of host work — comfortably above per-chunk
  // enqueue overhead, well below a full U segment at HPL shapes.
  ProbeResult out;
  out.tile_cols = best;
  configure_engine({best, entry.threads});
  row_scatter(s, a.data(), kProbeRows, rows, kProbeCols, packed.data(), nr);
  s.synchronize();
  Timer t;
  t.start();
  for (int rep = 0; rep < kProbeReps; ++rep)
    row_scatter(s, a.data(), kProbeRows, rows, kProbeCols, packed.data(), nr);
  s.synchronize();
  const double per_rep = t.stop() / kProbeReps;
  const double wire_bytes = static_cast<double>(rows.size()) * kProbeCols *
                            static_cast<double>(sizeof(double));
  if (per_rep > 0.0) {
    const double bytes_per_sec = wire_bytes / per_rep;
    constexpr double kTargetSeconds = 50e-6;
    constexpr long kGrain = 32 * 1024;
    long chunk = static_cast<long>(bytes_per_sec * kTargetSeconds);
    chunk = chunk / kGrain * kGrain;
    out.chunk_bytes = std::clamp<long>(chunk, 64 * 1024, 1024 * 1024);
  }

  configure_engine(entry);
  return out;
}

const ProbeResult& probe_once() {
  static std::once_flag flag;
  static ProbeResult result;
  std::call_once(flag, [] { result = run_probe(); });
  return result;
}

}  // namespace

long autotune_swap_tile_cols() { return probe_once().tile_cols; }

long autotune_swap_chunk_bytes() { return probe_once().chunk_bytes; }

}  // namespace hplx::device
