// The one sequential breadth-first search behind the exhaustive explorer
// (`full`) and the stubborn-set explorer (`por`). The two engines differ
// only in which enabled transitions a marking expands, so the visited store,
// frontier, limits, deadlock/bad-state inspection, live progress, stats and
// graph output live here once. The parallel explorer and CTL's adjacency
// graph keep their own loops.
//
// Markings are stored as flat words in a util::MarkingTable, whose ids are
// given in discovery order, so the FIFO frontier is the id range
// [head, size). Each successor is fired into one reused buffer and stored
// only when new.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "reach/explorer.hpp"
#include "util/marking_table.hpp"
#include "util/stopwatch.hpp"

namespace gpo::reach {

/// Discovery breadcrumb of a stored marking: the state it was first reached
/// from and the transition fired there. Roots carry kInvalidTransition.
struct Breadcrumb {
  std::size_t parent;
  petri::TransitionId via;
};

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
  using Word = util::MarkingTable::Word;

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

  // The visited store plus one breadcrumb per id for counterexample
  // reconstruction. The breadcrumbs are reserved in step with the table, so
  // the accounting below depends on the state count only.
  util::MarkingTable table(net.place_count());
  std::vector<Breadcrumb> breadcrumbs;

  auto intern = [&](const Marking& m, std::size_t parent,
                    TransitionId via) -> std::pair<std::size_t, bool> {
    auto [id, fresh] = table.insert(m.words());
    if (fresh) {
      if (breadcrumbs.size() == breadcrumbs.capacity())
        breadcrumbs.reserve(table.capacity());
      breadcrumbs.push_back({parent, via});
      if (live_states != nullptr) live_states->add();
    }
    return {id, fresh};
  };

  auto load = [&](std::size_t s, Marking& into) {
    std::span<const Word> words = table[s];
    std::copy(words.begin(), words.end(), into.words().begin());
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

  auto inspect = [&](std::size_t s, const Marking& m) -> bool {
    // Returns true when the search should stop.
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

  bool stopped = false;
  for (const Marking& root : roots) {
    if (root.size() != net.place_count())
      throw std::invalid_argument("search root is not a marking of this net");
    auto [idx, fresh] = intern(root, 0, petri::kInvalidTransition);
    if (fresh && inspect(idx, root)) {
      stopped = true;
      break;
    }
  }

  // The frontier is the id range [head, table.size()): ids are given in
  // discovery order, and breadth-first expands in discovery order.
  std::size_t head = 0;
  std::size_t peak_frontier = table.size();
  Marking current(net.place_count());  // the marking being expanded
  Marking next(net.place_count());     // successor buffer, reused per edge
  std::vector<TransitionId> enabled;   // per-state scratch, capacity reused
  enabled.reserve(net.transition_count());

  while (head < table.size() && !stopped) {
    const std::size_t frontier = table.size() - head;
    peak_frontier = std::max(peak_frontier, frontier);
    if (live_frontier != nullptr)
      live_frontier->set(static_cast<double>(frontier));
    if (table.size() > options.max_states ||
        timer.elapsed_seconds() > options.max_seconds ||
        util::cancel_requested(options.cancel)) {
      result.limit_hit = true;
      result.interrupted_phase = phase;
      break;
    }
    const std::size_t s = head++;
    load(s, current);  // a copy: inserting may move the arena

    net.enabled_transitions(current, enabled);
    for (TransitionId t : enabled) result.fireable_transitions.set(t);
    const std::span<const Word> cur = std::as_const(current).words();
    const std::span<Word> out = next.words();
    for (TransitionId t : select(std::as_const(current), enabled)) {
      // The firing rule (m - pre) | post, word by word; a token already in
      // an output place that is not consumed breaks 1-safeness.
      const petri::Transition& tr = net.transition(t);
      const std::span<const Word> pre = tr.pre_bits.words();
      const std::span<const Word> post = tr.post_bits.words();
      Word clash = 0;
      for (std::size_t w = 0; w < out.size(); ++w) {
        const Word kept = cur[w] & ~pre[w];
        clash |= kept & post[w];
        out[w] = kept | post[w];
      }
      if (clash != 0 && !result.safeness_violation) {
        result.safeness_violation = true;
        result.unsafe_source = current;
      }
      ++result.edge_count;
      auto [idx, fresh] = intern(next, s, t);
      if (options.build_graph)
        result.graph.edges.push_back({s, idx, net.transition(t).name});
      if (fresh && inspect(idx, next)) {
        stopped = true;
        break;
      }
    }
  }

  result.state_count = table.size();
  result.seconds = timer.elapsed_seconds();
  result.stats.threads = 1;
  result.stats.peak_frontier = peak_frontier;
  if (result.seconds > 0)
    result.stats.states_per_second = result.state_count / result.seconds;
  if (options.metrics != nullptr) {
    std::size_t visited_bytes =
        table.memory_bytes() + breadcrumbs.capacity() * sizeof(Breadcrumb);
    publish_explorer_stats(*options.metrics, options.metrics_prefix, result,
                           visited_bytes);
  }
  if (options.build_graph) {
    result.graph.initial = 0;
    result.graph.node_labels.reserve(table.size());
    for (std::size_t s = 0; s < table.size(); ++s) {
      load(s, current);
      result.graph.node_labels.push_back(marking_to_string(net, current));
    }
  }
  return result;
}

}  // namespace gpo::reach
