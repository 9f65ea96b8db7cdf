// Metrics registry: named counters, gauges and timers shared by every
// analysis engine.
//
// Design goals (ISSUE 3 tentpole):
//   * plain atomic slots — a hot-path increment is one relaxed fetch_add,
//     safe under concurrent engines and readable from the
//     progress-heartbeat thread without locks;
//   * zero cost when unused — engines take an optional MetricsRegistry* and
//     cache raw slot pointers once, so the disabled path is a null check
//     (and the per-event hot counters compile out entirely with
//     -DGPO_OBS_HOT_COUNTERS=OFF, see kHotCountersEnabled);
//   * stable references — slots live in std::deques, so a reference handed
//     out survives any later registration;
//   * registration order is preserved, which makes the CLI stats formatter
//     and the RunReport JSON deterministic.
//
// Naming convention: dotted lowercase paths. Engines publish their final
// counters under a per-run prefix ("engine.full.", "safety.") and update the
// global live-progress slots "progress.states" / "progress.frontier" /
// "interner.families" that the heartbeat reads.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"

namespace gpo::obs {

/// Per-event hot-path counters (state interned, event appended) are guarded
/// by this flag so a build can compile them out entirely; the end-of-run
/// publication of final counters is unconditional, so reports stay complete
/// either way. Controlled by the GPO_OBS_HOT_COUNTERS CMake option.
#if defined(GPO_OBS_NO_HOT_COUNTERS)
inline constexpr bool kHotCountersEnabled = false;
#else
inline constexpr bool kHotCountersEnabled = true;
#endif

/// Monotonically increasing 64-bit counter. All operations are relaxed
/// atomics: counts are exact once writers quiesce (e.g. after thread join),
/// approximate while concurrent — which is all the heartbeat needs.
class Counter {
 public:
  void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Overwrites the count (used by end-of-run publication and per-engine
  /// resets in the CLI). Not atomic with respect to concurrent add()s.
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A last-value-wins double slot (occupancy, rates, ratios, byte sizes).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (high-water marks).
  void set_max(double v) {
    double prev = v_.load(std::memory_order_relaxed);
    while (prev < v && !v_.compare_exchange_weak(prev, v,
                                                 std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Accumulated duration + sample count (phase totals, per-op cost).
class Timer {
 public:
  void record_ns(std::uint64_t ns) {
    ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII accumulation into a Timer; a null timer makes it a no-op, so call
/// sites need no branching of their own.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* t)
      : t_(t), start_(t ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{}) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (t_ == nullptr) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
    t_->record_ns(static_cast<std::uint64_t>(ns));
  }

 private:
  Timer* t_;
  std::chrono::steady_clock::time_point start_;
};

enum class MetricKind { kCounter, kGauge, kTimer, kHistogram };

/// Named metric slots. Registration (counter()/gauge()/timer()) takes a lock
/// and is idempotent per name; the returned references are stable for the
/// registry's lifetime, so hot paths resolve a name once and then touch the
/// atomic directly. Reads for reporting snapshot under the same lock but
/// never block writers (the slots themselves are lock-free).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name) {
    return slot<Counter>(name, MetricKind::kCounter, counters_);
  }
  Gauge& gauge(std::string_view name) {
    return slot<Gauge>(name, MetricKind::kGauge, gauges_);
  }
  Timer& timer(std::string_view name) {
    return slot<Timer>(name, MetricKind::kTimer, timers_);
  }
  /// A duration histogram. Registry convention: record() takes NANOSECONDS
  /// (use record_seconds()/ScopedHistogramTimer); snapshot()/report
  /// percentiles are converted to seconds.
  Histogram& histogram(std::string_view name) {
    return slot<Histogram>(name, MetricKind::kHistogram, histograms_);
  }

  /// One registered metric, flattened for formatting/serialization.
  struct Snapshot {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    /// counter: the count; gauge: the value; timer/histogram: accumulated
    /// seconds.
    double value = 0;
    /// counter: the exact count; timer/histogram: the sample count;
    /// gauge: 0.
    std::uint64_t count = 0;
    /// Histograms only: percentile estimates and the observed max, in
    /// seconds (recorded nanoseconds / 1e9). Zero for the other kinds.
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    double max = 0;
  };

  /// All metrics whose name starts with `prefix` (empty = all), in
  /// registration order.
  [[nodiscard]] std::vector<Snapshot> snapshot(
      std::string_view prefix = {}) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Snapshot> out;
    for (const Entry& e : entries_) {
      if (!e.name->starts_with(prefix)) continue;
      Snapshot s;
      s.name = *e.name;
      s.kind = e.kind;
      switch (e.kind) {
        case MetricKind::kCounter: {
          std::uint64_t v = counters_[e.index].value();
          s.value = static_cast<double>(v);
          s.count = v;
          break;
        }
        case MetricKind::kGauge:
          s.value = gauges_[e.index].value();
          break;
        case MetricKind::kTimer:
          s.value = timers_[e.index].seconds();
          s.count = timers_[e.index].count();
          break;
        case MetricKind::kHistogram: {
          Histogram::Snapshot h = histograms_[e.index].snapshot();
          s.value = static_cast<double>(h.sum) * 1e-9;
          s.count = h.count;
          s.p50 = h.percentile(50) * 1e-9;
          s.p90 = h.percentile(90) * 1e-9;
          s.p99 = h.percentile(99) * 1e-9;
          s.max = static_cast<double>(h.max) * 1e-9;
          break;
        }
      }
      out.push_back(std::move(s));
    }
    return out;
  }

  /// The flattened value of one metric, if registered (any kind).
  [[nodiscard]] std::optional<double> value(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_name_.find(std::string(name));
    if (it == by_name_.end()) return std::nullopt;
    const Entry& e = entries_[it->second];
    switch (e.kind) {
      case MetricKind::kCounter:
        return static_cast<double>(counters_[e.index].value());
      case MetricKind::kGauge:
        return gauges_[e.index].value();
      case MetricKind::kTimer:
        return timers_[e.index].seconds();
      case MetricKind::kHistogram:
        return static_cast<double>(histograms_[e.index].snapshot().sum) *
               1e-9;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    const std::string* name;  // the by_name_ key: nodes never move
    MetricKind kind;
    std::size_t index;  // into the deque of its kind
  };

  template <typename T>
  T& slot(std::string_view name, MetricKind kind, std::deque<T>& store) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = by_name_.try_emplace(std::string(name), 0);
    if (!inserted) {
      const Entry& e = entries_[it->second];
      if (e.kind != kind)
        throw std::logic_error("MetricsRegistry: '" + std::string(name) +
                               "' already registered with another kind");
      return store[e.index];
    }
    it->second = entries_.size();
    entries_.push_back({&it->first, kind, store.size()});
    store.emplace_back();
    return store.back();
  }

  mutable std::mutex mu_;
  std::deque<Counter> counters_;  // deque: stable references across growth
  std::deque<Gauge> gauges_;
  std::deque<Timer> timers_;
  std::deque<Histogram> histograms_;
  // Each name is stored once, as its by_name_ key: a job's registry outlives
  // the job in `julie serve`, so per-metric bytes add up per job served.
  std::vector<Entry> entries_;  // registration order
  std::unordered_map<std::string, std::size_t> by_name_;
};

}  // namespace gpo::obs
