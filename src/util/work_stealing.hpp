// Shared work-stealing queues: the parallel explorer's frontier and the
// portfolio scheduler's task pool.
//
// One mutex-guarded deque per worker: the owner pushes and pops at the back
// (depth-first-ish, cache-friendly), thieves take from the front (old,
// typically "big" work). acquire() first drains the caller's own deque, then
// probes the other workers round-robin starting at the neighbour, so steals
// spread instead of all hammering worker 0. The same policy used to live
// inline in the parallel explicit explorer; it is generic over the work item
// so the service pool reuses it unchanged.
//
// A plain mutex per deque is deliberately boring: work items here are
// hundreds of bytes (a marking, or a racer run), so the lock cost is noise
// next to the expansion cost, and boring is easy to keep TSan-clean.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace gpo::util {

template <typename Work>
class WorkStealingQueues {
 public:
  explicit WorkStealingQueues(std::size_t workers)
      : queues_(workers == 0 ? 1 : workers) {}

  WorkStealingQueues(const WorkStealingQueues&) = delete;
  WorkStealingQueues& operator=(const WorkStealingQueues&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return queues_.size(); }

  /// Enqueues `w` on `owner`'s deque (newest end).
  void push(std::size_t owner, Work&& w) {
    Deque& q = queues_[owner];
    std::lock_guard<std::mutex> lock(q.mu);
    q.items.push_back(std::move(w));
  }

  /// Pops the newest item of `owner`'s own deque.
  bool pop(std::size_t owner, Work& out) {
    Deque& q = queues_[owner];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.items.empty()) return false;
    out = std::move(q.items.back());
    q.items.pop_back();
    return true;
  }

  /// Steals the oldest item of `victim`'s deque.
  bool steal(std::size_t victim, Work& out) {
    Deque& q = queues_[victim];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.items.empty()) return false;
    out = std::move(q.items.front());
    q.items.pop_front();
    return true;
  }

  /// pop-or-steal: drains `me`'s own deque first, then probes the other
  /// workers round-robin. `stolen` reports which path produced the item so
  /// callers can keep steal tallies.
  bool acquire(std::size_t me, Work& out, bool& stolen) {
    stolen = false;
    if (pop(me, out)) return true;
    const std::size_t n = queues_.size();
    for (std::size_t k = 1; k < n; ++k) {
      if (steal((me + k) % n, out)) {
        stolen = true;
        return true;
      }
    }
    return false;
  }

 private:
  struct Deque {
    std::mutex mu;
    std::deque<Work> items;
  };

  std::vector<Deque> queues_;
};

}  // namespace gpo::util
