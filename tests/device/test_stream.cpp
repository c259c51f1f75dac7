#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/update.hpp"
#include "device/stream.hpp"

namespace hplx::device {
namespace {

Device& test_device() {
  static Device dev("gcd0", 1ull << 30);
  return dev;
}

TEST(Stream, ExecutesInOrder) {
  Stream s(test_device());
  std::vector<int> log;
  for (int i = 0; i < 20; ++i) {
    s.enqueue(0.0, [&log, i] { log.push_back(i); });
  }
  s.synchronize();
  ASSERT_EQ(log.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(log[static_cast<std::size_t>(i)], i);
}

TEST(Stream, EnqueueReturnsBeforeExecution) {
  Stream s(test_device());
  std::atomic<bool> release{false};
  std::atomic<bool> ran{false};
  s.enqueue(0.0, [&] {
    while (!release) std::this_thread::yield();
    ran = true;
  });
  // If enqueue blocked until execution, we would never get here.
  EXPECT_FALSE(ran.load());
  release = true;
  s.synchronize();
  EXPECT_TRUE(ran.load());
}

TEST(Stream, BusyClockAccumulatesModeledTime) {
  Stream s(test_device());
  s.enqueue(0.25, [] {});
  s.enqueue(0.5, [] {});
  s.synchronize();
  EXPECT_DOUBLE_EQ(s.busy_seconds(), 0.75);
}

TEST(Stream, EventOrdersAcrossStreams) {
  Stream a(test_device(), "a");
  Stream b(test_device(), "b");
  std::atomic<int> stage{0};
  a.enqueue(0.0, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stage = 1;
  });
  Event ev = a.record();
  b.wait_event(ev);
  int seen = -1;
  b.enqueue(0.0, [&] { seen = stage.load(); });
  b.synchronize();
  EXPECT_EQ(seen, 1);
}

TEST(Stream, HostWaitsOnEvent) {
  Stream s(test_device());
  std::atomic<bool> done{false};
  s.enqueue(0.0, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    done = true;
  });
  Event ev = s.record();
  ev.wait();
  EXPECT_TRUE(done.load());
}

TEST(Stream, EventCompleteFlag) {
  Stream s(test_device());
  Event ev = s.record();
  s.synchronize();
  EXPECT_TRUE(ev.complete());
}

TEST(Stream, SynchronizeOnIdleStreamReturns) {
  Stream s(test_device());
  s.synchronize();
  SUCCEED();
}

TEST(Stream, ManySmallOpsDrainCompletely) {
  Stream s(test_device());
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) s.enqueue(0.0, [&] { count++; });
  s.synchronize();
  EXPECT_EQ(count.load(), 1000);
}

TEST(StreamPool, PrimaryIsStreamZero) {
  StreamPool pool(test_device(), 3, "p");
  EXPECT_EQ(pool.size(), 3);
  EXPECT_EQ(&pool.primary(), &pool.stream(0));
}

TEST(StreamPool, RealBusyClockSumsMembers) {
  StreamPool pool(test_device(), 2, "bz");
  for (int i = 0; i < pool.size(); ++i)
    pool.stream(i).enqueue(0.0, [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
  pool.synchronize();
  const double s0 = pool.stream(0).real_busy_seconds();
  const double s1 = pool.stream(1).real_busy_seconds();
  EXPECT_GE(s0, 0.004);
  EXPECT_GE(s1, 0.004);
  EXPECT_DOUBLE_EQ(pool.real_busy_seconds(), s0 + s1);
}

// The banded-update access pattern under contention, fenced the way
// core::enqueue_update_bands fences it: one "scatter" op on the primary
// produces a buffer, every spare stream waits on its event, then each
// stream updates one disjoint column band and records its tail into a
// BandSection, which the primary joins before the next round's scatter.
// Run under TSan via the test_device suite label, this stresses exactly the
// event edges the trailing update relies on.
TEST(StreamPool, BandedFanOutStress) {
  constexpr int kStreams = 4;
  constexpr int kCols = 64;
  constexpr int kRounds = 25;
  StreamPool pool(test_device(), kStreams, "band");
  std::vector<double> data(kCols, 0.0);
  for (int round = 0; round < kRounds; ++round) {
    pool.primary().enqueue(0.0, [&data] {
      for (double& v : data) v += 1.0;  // the "scatter"
    });
    const Event ready = pool.primary().record();
    for (int band = 1; band < kStreams; ++band)
      pool.stream(band).wait_event(ready);
    core::BandSection section;
    for (int band = 0; band < kStreams; ++band) {
      const int c0 = band * (kCols / kStreams);
      const int c1 = c0 + kCols / kStreams;
      pool.stream(band).enqueue(0.0, [&data, c0, c1] {
        for (int c = c0; c < c1; ++c) data[static_cast<std::size_t>(c)] *= 2.0;
      });
      section.done.push_back(pool.stream(band).record());
    }
    // Join every band back into the primary, as the driver does, so the
    // next round's scatter is ordered behind all of them.
    section.join(pool.primary());
  }
  pool.synchronize();
  // Each round: v <- 2*(v+1), starting at 0 → v_n = 2^n+ ... = 2(v+1).
  double expect = 0.0;
  for (int round = 0; round < kRounds; ++round) expect = 2.0 * (expect + 1.0);
  for (double v : data) EXPECT_DOUBLE_EQ(v, expect);
}

}  // namespace
}  // namespace hplx::device
