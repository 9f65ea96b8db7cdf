// Parallel explicit reachability: the sharded sibling of the sequential BFS
// in explorer.cpp. State interning goes through a gpo::util::ShardedMarkingSet
// (N-way striped hash set, parent/via breadcrumbs in the shard entries);
// work distribution uses the shared gpo::util::WorkStealingQueues (one deque
// per worker with round-robin stealing); termination is detected through an
// atomic count of discovered-but-not-yet-expanded states. Every worker keeps
// private accumulators (edges, deadlocks, fireable transitions, steals) that
// are merged after join, so the reported counts are identical to the
// sequential engine's; only the choice of *which* deadlock becomes the
// counterexample is scheduling-dependent (it always replays). max_states /
// max_seconds are honored cooperatively: any worker that notices a limit
// raises the shared stop flag and everyone drains.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "reach/explorer.hpp"
#include "util/sharded_marking_set.hpp"
#include "util/stopwatch.hpp"
#include "util/work_stealing.hpp"

namespace gpo::reach {

namespace {

using petri::Marking;
using petri::TransitionId;
using util::ShardedMarkingSet;
using StateId = ShardedMarkingSet::StateId;

struct WorkItem {
  StateId id = 0;
  Marking marking;
};

// Counters each worker accumulates privately and merges once at join.
struct WorkerTally {
  std::size_t edge_count = 0;
  std::size_t deadlock_count = 0;
  std::size_t steal_count = 0;
  util::Bitset fireable;
  bool safeness_violation = false;
  Marking unsafe_source;
};

// State shared by all workers for one exploration.
struct SharedSearch {
  const petri::PetriNet& net;
  const ExplorerOptions& options;
  ShardedMarkingSet set;
  util::WorkStealingQueues<WorkItem> queues;
  util::Stopwatch timer;

  /// Discovered states not yet fully expanded; 0 with empty deques = done.
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> peak_in_flight{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> limit_hit{false};

  // Live-progress slots for the heartbeat (null when telemetry is off or the
  // hot counters were compiled out). Shared by all workers; relaxed atomics.
  obs::Counter* live_states = nullptr;
  obs::Gauge* live_frontier = nullptr;

  // Rarely touched "first witness" slots, hence one plain mutex.
  std::mutex first_mu;
  std::optional<StateId> first_deadlock_id;
  std::optional<Marking> first_bad_state;
  std::optional<Marking> first_unsafe_source;

  SharedSearch(const petri::PetriNet& n, const ExplorerOptions& o,
               std::size_t threads, std::size_t shards)
      : net(n), options(o), set(shards), queues(threads) {}

  void note_peak(std::uint64_t current) {
    std::uint64_t prev = peak_in_flight.load(std::memory_order_relaxed);
    while (prev < current && !peak_in_flight.compare_exchange_weak(
                                prev, current, std::memory_order_relaxed)) {
    }
  }

  /// Deadlock/bad-state bookkeeping for a freshly interned state. Runs
  /// exactly once per distinct marking (only the inserting worker calls it).
  void inspect_fresh(const Marking& m, StateId id, WorkerTally& tally) {
    if (net.is_deadlocked(m)) {
      ++tally.deadlock_count;
      {
        std::lock_guard<std::mutex> lock(first_mu);
        if (!first_deadlock_id) first_deadlock_id = id;
      }
      if (options.stop_at_first_deadlock)
        stop.store(true, std::memory_order_relaxed);
    }
    if (options.bad_state && options.bad_state(m)) {
      {
        std::lock_guard<std::mutex> lock(first_mu);
        if (!first_bad_state) first_bad_state = m;
      }
      if (options.stop_at_first_deadlock)
        stop.store(true, std::memory_order_relaxed);
    }
  }
};

void expand(SharedSearch& shared, std::size_t me, const WorkItem& item,
            WorkerTally& tally) {
  const petri::PetriNet& net = shared.net;
  for (TransitionId t = 0; t < net.transition_count(); ++t) {
    if (!net.enabled(t, item.marking)) continue;
    tally.fireable.set(t);
    bool unsafe = false;
    Marking next = net.fire(t, item.marking, &unsafe);
    if (unsafe && !tally.safeness_violation) {
      tally.safeness_violation = true;
      tally.unsafe_source = item.marking;
      std::lock_guard<std::mutex> lock(shared.first_mu);
      if (!shared.first_unsafe_source)
        shared.first_unsafe_source = item.marking;
    }
    ++tally.edge_count;
    auto [id, fresh] = shared.set.insert(next, item.id, t);
    if (fresh) {
      shared.inspect_fresh(next, id, tally);
      if (shared.set.size() > shared.options.max_states) {
        shared.limit_hit.store(true, std::memory_order_relaxed);
        shared.stop.store(true, std::memory_order_relaxed);
        return;
      }
      std::uint64_t now =
          shared.in_flight.fetch_add(1, std::memory_order_seq_cst) + 1;
      shared.note_peak(now);
      if (shared.live_states != nullptr) {
        shared.live_states->add();
        shared.live_frontier->set(static_cast<double>(now));
      }
      shared.queues.push(me, {id, std::move(next)});
    }
    if (shared.stop.load(std::memory_order_relaxed)) return;
  }
}

void worker(SharedSearch& shared, std::size_t me, WorkerTally& tally) {
  std::size_t expansions = 0;
  WorkItem item;
  while (!shared.stop.load(std::memory_order_relaxed)) {
    bool stolen = false;
    if (!shared.queues.acquire(me, item, stolen)) {
      if (shared.in_flight.load(std::memory_order_seq_cst) == 0) return;
      std::this_thread::yield();
      continue;
    }
    if (stolen) ++tally.steal_count;
    expand(shared, me, item, tally);
    shared.in_flight.fetch_sub(1, std::memory_order_seq_cst);
    if (util::cancel_requested(shared.options.cancel) ||
        ((++expansions & 0x3f) == 0 &&
         shared.timer.elapsed_seconds() > shared.options.max_seconds)) {
      shared.limit_hit.store(true, std::memory_order_relaxed);
      shared.stop.store(true, std::memory_order_relaxed);
    }
  }
}

}  // namespace

ExplorerResult ExplicitExplorer::explore_parallel() const {
  const std::size_t threads = options_.num_threads;
  const std::size_t shards = std::max<std::size_t>(16, 4 * threads);

  SharedSearch shared(net_, options_, threads, shards);
  if (obs::kHotCountersEnabled && options_.metrics != nullptr) {
    shared.live_states = &options_.metrics->counter("progress.states");
    shared.live_frontier = &options_.metrics->gauge("progress.frontier");
  }
  std::vector<WorkerTally> tallies(threads);
  for (WorkerTally& t : tallies)
    t.fireable = util::Bitset(net_.transition_count());

  auto [root, fresh] = shared.set.insert(
      net_.initial_marking(), ShardedMarkingSet::kNoParent,
      petri::kInvalidTransition);
  (void)fresh;
  shared.inspect_fresh(net_.initial_marking(), root, tallies[0]);
  if (!shared.stop.load(std::memory_order_relaxed)) {
    shared.in_flight.store(1, std::memory_order_seq_cst);
    shared.note_peak(1);
    shared.queues.push(0, {root, net_.initial_marking()});
  }

  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      pool.emplace_back(
          [&shared, &tallies, i] { worker(shared, i, tallies[i]); });
    for (std::thread& t : pool) t.join();
  }

  // All workers joined: the set and the witness slots are quiescent.
  ExplorerResult result;
  result.fireable_transitions = util::Bitset(net_.transition_count());
  for (const WorkerTally& t : tallies) {
    result.edge_count += t.edge_count;
    result.deadlock_count += t.deadlock_count;
    result.fireable_transitions |= t.fireable;
    result.stats.steal_count += t.steal_count;
    if (t.safeness_violation) result.safeness_violation = true;
  }
  result.state_count = shared.set.size();
  result.limit_hit = shared.limit_hit.load(std::memory_order_relaxed);
  result.unsafe_source = shared.first_unsafe_source;
  if (shared.first_bad_state) {
    result.bad_state_found = true;
    result.first_bad_state = shared.first_bad_state;
  }
  if (shared.first_deadlock_id) {
    result.deadlock_found = true;
    result.first_deadlock = shared.set.entry(*shared.first_deadlock_id).state;
    // Walk the parent breadcrumbs back to the root, exactly like the
    // sequential engine's reconstruct().
    std::vector<TransitionId> seq;
    for (StateId s = *shared.first_deadlock_id;
         shared.set.entry(s).meta.parent != ShardedMarkingSet::kNoParent;
         s = shared.set.entry(s).meta.parent)
      seq.push_back(shared.set.entry(s).meta.via);
    std::reverse(seq.begin(), seq.end());
    result.counterexample = std::move(seq);
  }

  result.seconds = shared.timer.elapsed_seconds();
  result.stats.threads = threads;
  result.stats.shard_count = shared.set.shard_count();
  result.stats.peak_frontier =
      static_cast<std::size_t>(shared.peak_in_flight.load());
  if (result.seconds > 0)
    result.stats.states_per_second = result.state_count / result.seconds;
  std::vector<std::size_t> occupancy = shared.set.shard_sizes();
  std::size_t min_s = occupancy.empty() ? 0 : occupancy.front();
  std::size_t max_s = min_s, sum = 0;
  for (std::size_t s : occupancy) {
    min_s = std::min(min_s, s);
    max_s = std::max(max_s, s);
    sum += s;
  }
  result.stats.min_shard_size = min_s;
  result.stats.max_shard_size = max_s;
  if (!occupancy.empty())
    result.stats.avg_shard_size = static_cast<double>(sum) / occupancy.size();
  if (result.limit_hit) result.interrupted_phase = "exploration";
  if (options_.metrics != nullptr)
    publish_explorer_stats(*options_.metrics, options_.metrics_prefix, result,
                           shared.set.memory_bytes());
  return result;
}

}  // namespace gpo::reach
