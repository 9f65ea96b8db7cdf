// The one sequential breadth-first search behind the exhaustive explorer
// (`full`) and the stubborn-set explorer (`por`). The two engines differ
// only in which enabled transitions a marking expands, so the visited store,
// frontier, limits, deadlock/bad-state inspection, live progress, stats and
// graph output live here once. The parallel explorer and CTL's adjacency
// graph keep their own loops.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reach/explorer.hpp"
#include "util/stopwatch.hpp"

namespace gpo::reach {

/// Explores breadth-first from `roots`, in order, and returns the engine
/// result. `select(m, enabled)` returns the transitions to fire at `m` out of
/// its `enabled` ones (a container of TransitionId, by value or reference);
/// `is_deadlock(m)` decides which dead markings count as deadlocks;
/// `bad_state`, when set, flags markings like a safety monitor would. A limit
/// or cancellation reports `phase` as the interrupted phase. Counterexamples
/// lead from whichever root reached the deadlock first. Both callables are
/// template parameters so the per-edge path makes no indirect call.
template <typename Select, typename IsDeadlock>
[[nodiscard]] ExplorerResult breadth_first_search(
    const petri::PetriNet& net, const std::vector<petri::Marking>& roots,
    const SearchOptions& options, std::string_view phase, Select&& select,
    IsDeadlock&& is_deadlock,
    const std::function<bool(const petri::Marking&)>& bad_state = {}) {
  using petri::Marking;
  using petri::TransitionId;

  ExplorerResult result;
  result.fireable_transitions = util::Bitset(net.transition_count());
  util::Stopwatch timer;

  // Live-progress slots for the heartbeat; resolved once so the hot path is
  // a null check plus a relaxed fetch_add.
  obs::Counter* live_states = nullptr;
  obs::Gauge* live_frontier = nullptr;
  if (obs::kHotCountersEnabled && options.metrics != nullptr) {
    live_states = &options.metrics->counter("progress.states");
    live_frontier = &options.metrics->gauge("progress.frontier");
  }

  // Index of each stored marking, plus (parent, transition) breadcrumbs for
  // counterexample reconstruction. Roots carry kInvalidTransition.
  std::unordered_map<Marking, std::size_t> index;
  std::vector<Marking> states;
  struct Breadcrumb {
    std::size_t parent;
    TransitionId via;
  };
  std::vector<Breadcrumb> breadcrumbs;

  auto intern = [&](const Marking& m, std::size_t parent,
                    TransitionId via) -> std::pair<std::size_t, bool> {
    auto [it, inserted] = index.try_emplace(m, states.size());
    if (inserted) {
      states.push_back(m);
      breadcrumbs.push_back({parent, via});
      if (live_states != nullptr) live_states->add();
    }
    return {it->second, inserted};
  };

  auto reconstruct = [&](std::size_t s) {
    std::vector<TransitionId> seq;
    while (breadcrumbs[s].via != petri::kInvalidTransition) {
      seq.push_back(breadcrumbs[s].via);
      s = breadcrumbs[s].parent;
    }
    std::reverse(seq.begin(), seq.end());
    return seq;
  };

  auto inspect = [&](std::size_t s) -> bool {
    // Returns true when the search should stop.
    const Marking& m = states[s];
    if (is_deadlock(m)) {
      ++result.deadlock_count;
      if (!result.deadlock_found) {
        result.deadlock_found = true;
        result.first_deadlock = m;
        result.counterexample = reconstruct(s);
      }
      if (options.stop_at_first_deadlock) return true;
    }
    if (bad_state && bad_state(m)) {
      if (!result.bad_state_found) {
        result.bad_state_found = true;
        result.first_bad_state = m;
      }
      if (options.stop_at_first_deadlock) return true;
    }
    return false;
  };

  std::deque<std::size_t> frontier;
  bool stopped = false;
  for (const Marking& root : roots) {
    auto [idx, fresh] = intern(root, 0, petri::kInvalidTransition);
    if (fresh) {
      frontier.push_back(idx);
      stopped = inspect(idx);
      if (stopped) break;
    }
  }

  std::size_t peak_frontier = frontier.size();
  std::vector<TransitionId> enabled;  // per-state scratch, capacity reused
  enabled.reserve(net.transition_count());

  while (!frontier.empty() && !stopped) {
    peak_frontier = std::max(peak_frontier, frontier.size());
    if (live_frontier != nullptr)
      live_frontier->set(static_cast<double>(frontier.size()));
    if (states.size() > options.max_states ||
        timer.elapsed_seconds() > options.max_seconds ||
        util::cancel_requested(options.cancel)) {
      result.limit_hit = true;
      result.interrupted_phase = phase;
      break;
    }
    std::size_t s = frontier.front();
    frontier.pop_front();
    const Marking m = states[s];  // copy: `states` may reallocate below

    net.enabled_transitions(m, enabled);
    for (TransitionId t : enabled) result.fireable_transitions.set(t);
    for (TransitionId t : select(m, enabled)) {
      bool unsafe = false;
      Marking next = net.fire(t, m, &unsafe);
      if (unsafe && !result.safeness_violation) {
        result.safeness_violation = true;
        result.unsafe_source = m;
      }
      ++result.edge_count;
      auto [idx, fresh] = intern(next, s, t);
      if (options.build_graph)
        result.graph.edges.push_back({s, idx, net.transition(t).name});
      if (fresh) {
        frontier.push_back(idx);
        if (inspect(idx)) {
          stopped = true;
          break;
        }
      }
    }
  }

  result.state_count = states.size();
  result.seconds = timer.elapsed_seconds();
  result.stats.threads = 1;
  result.stats.peak_frontier = peak_frontier;
  if (result.seconds > 0)
    result.stats.states_per_second = result.state_count / result.seconds;
  if (options.metrics != nullptr) {
    // Marking payloads are uniform, so one sample prices the whole store.
    std::size_t per_marking =
        sizeof(Marking) +
        (states.empty() ? 0 : states.front().memory_bytes());
    std::size_t visited_bytes = states.size() * per_marking +
                                index.bucket_count() * sizeof(void*) +
                                breadcrumbs.size() * sizeof(Breadcrumb);
    publish_explorer_stats(*options.metrics, options.metrics_prefix, result,
                           visited_bytes);
  }
  if (options.build_graph) {
    result.graph.initial = 0;
    result.graph.node_labels.reserve(states.size());
    for (const Marking& m : states)
      result.graph.node_labels.push_back(marking_to_string(net, m));
  }
  return result;
}

}  // namespace gpo::reach
