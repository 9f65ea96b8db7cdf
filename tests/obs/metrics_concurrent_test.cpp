// Concurrency: the registry is hammered from many threads the way racing
// engines in the portfolio service use it — registration races on the same
// and different names, relaxed increments on shared slots, snapshot reads
// while writers run. Run under TSan via the `parallel` ctest label.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace gpo::obs {
namespace {

TEST(MetricsRegistryConcurrent, IncrementsFromManyThreadsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 50'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      // Each worker resolves the shared slots itself: registration must be
      // race-free and return the same slot to everyone.
      Counter& states = reg.counter("progress.states");
      Gauge& frontier = reg.gauge("progress.frontier");
      Counter& own = reg.counter("worker." + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        states.add();
        own.add();
        if ((i & 1023) == 0) frontier.set_max(static_cast<double>(i));
      }
    });
  }
  // Snapshot while the writers are still running: must not crash or block
  // them (this is what the heartbeat thread does).
  for (int i = 0; i < 100; ++i) (void)reg.snapshot();
  for (auto& w : workers) w.join();

  EXPECT_EQ(reg.counter("progress.states").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.counter("worker." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters));
  EXPECT_DOUBLE_EQ(reg.gauge("progress.frontier").value(),
                   static_cast<double>(((kIters - 1) / 1024) * 1024));
}

TEST(MetricsRegistryConcurrent, HistogramRecordsFromManyThreadsAreExact) {
  // The histogram hot path is relaxed-only (no locks, no acquire/release);
  // totals must still be exact once the writers join. TSan (via the
  // `parallel` label) checks the relaxed accesses are at least atomic.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      Histogram& h = reg.histogram("service.job_seconds");
      for (int i = 0; i < kIters; ++i)
        h.record(static_cast<std::uint64_t>(t * kIters + i));
    });
  }
  // Concurrent snapshots (the STATS command / heartbeat path) must not
  // block or crash the writers.
  for (int i = 0; i < 50; ++i) (void)reg.snapshot("service.");
  for (auto& w : workers) w.join();

  auto s = reg.histogram("service.job_seconds").snapshot();
  constexpr std::uint64_t kN = std::uint64_t{kThreads} * kIters;
  EXPECT_EQ(s.count, kN);
  EXPECT_EQ(s.sum, kN * (kN - 1) / 2);  // sum of 0..kN-1
  EXPECT_EQ(s.max, kN - 1);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kN);
}

TEST(MetricsRegistryConcurrent, SetMaxIsMonotoneUnderContention) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("hwm");
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t)
    workers.emplace_back([&g, t] {
      for (int i = 0; i < 20'000; ++i)
        g.set_max(static_cast<double>(t * 20'000 + i));
    });
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), 8.0 * 20'000 - 1);
}

}  // namespace
}  // namespace gpo::obs
