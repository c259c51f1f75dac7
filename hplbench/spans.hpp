#pragma once
/// \file spans.hpp
/// \brief In-memory span recorder for the benchmark's traced run.
///
/// Spans are recorded only from the benchmark's own code, around the calls
/// it makes into each layer's public functions. They are kept in memory
/// and written once, at the end, as Chrome trace-event JSON (Perfetto and
/// chrome://tracing read it). Every span carries its own id, its parent's
/// id (0 = root) and the id of the solve or probe it belongs to, so spans
/// of one solve can be grouped without relying on timestamps.

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace hplbench {

struct SpanRecord {
  int id = 0;
  int parent = 0;  ///< 0 for a root span
  int group = 0;   ///< solve or probe id shared by the span's family
  int tid = 0;     ///< timeline row: 0 = benchmark thread, r+1 = rank r
  std::string name;
  double start_s = 0.0;  ///< hplx::wall_seconds() clock
  double end_s = 0.0;
  bool placed = false;  ///< duration measured, start laid out by the bench
};

class SpanRecorder {
 public:
  /// Opens a span now; close it with end(). Thread-safe.
  int begin(std::string name, int group, int parent, int tid) {
    const double now = hplx::wall_seconds();
    return add(std::move(name), group, parent, tid, now, now, false);
  }

  void end(int id) {
    const double now = hplx::wall_seconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id - 1)).end_s = now;
  }

  /// Adds a span whose interval the caller already knows.
  int add(std::string name, int group, int parent, int tid, double start_s,
          double end_s, bool placed) {
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord s;
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = parent;
    s.group = group;
    s.tid = tid;
    s.name = std::move(name);
    s.start_s = start_s;
    s.end_s = end_s;
    s.placed = placed;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  SpanRecord get(int id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.at(static_cast<std::size_t>(id - 1));
  }

  int new_group() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++groups_;
  }

  std::vector<SpanRecord> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  int groups_ = 0;
};

/// RAII span; a null recorder makes it a no-op (the untraced solves).
class Span {
 public:
  Span(SpanRecorder* rec, std::string name, int group, int parent, int tid)
      : rec_(rec),
        id_(rec ? rec->begin(std::move(name), group, parent, tid) : 0) {}
  ~Span() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
inline std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent > 0)
      kids[static_cast<std::size_t>(s.parent - 1)].emplace_back(s.start_s,
                                                                s.end_s);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s, hi = spans[i].end_s;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Writes the spans as Chrome trace-event JSON ("X" complete events,
/// microseconds from the first span). Returns false if the file could not
/// be written.
inline bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double t0 = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    t0 = i == 0 ? spans[i].start_s : std::min(t0, spans[i].start_s);
  const std::vector<double> self = self_seconds(spans);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %d, \"parent\": %d, \"group\": %d, "
                 "\"self_us\": %.3f, \"placed\": %s}}%s\n",
                 s.name.c_str(), s.tid, (s.start_s - t0) * 1e6,
                 (s.end_s - s.start_s) * 1e6, s.id, s.parent, s.group,
                 self[i] * 1e6, s.placed ? "true" : "false",
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace hplbench
