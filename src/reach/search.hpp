// The one breadth-first search behind the exhaustive explorer (`full`) and
// the stubborn-set explorer (`por`). The two engines differ only in which
// enabled transitions a marking expands, so the visited store, frontier,
// limits, deadlock/bad-state inspection, live progress, stats and graph
// output live here once. CTL's adjacency graph keeps its own loop.
//
// Markings are stored as flat words in a util::MarkingTable, whose ids are
// given in discovery order, so the FIFO frontier is the id range
// [head, size). Each successor is fired into one reused buffer and stored
// only when new.
//
// With more than one thread the search is level-synchronous. A level
// [head, size) is cut into contiguous slices, one per thread. While the
// workers run, nobody inserts, so they read the table freely: each expands
// its slice and keeps, in (state, transition) order, the successors that are
// neither in the table nor earlier in its own slice. Then the calling thread
// merges the slices in order, inserting and inspecting exactly as the
// one-thread loop would. Ids, breadcrumbs, the first deadlock and the
// counterexample are therefore those of one thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <thread>
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
///
/// `threads` > 1 expands each level on that many threads (build_graph keeps
/// one). `select` is then called concurrently and must allow it;
/// `is_deadlock` and `bad_state` always run on the calling thread. Every
/// result field is that of one thread, except that a stopped or limited run
/// may count edges and fireable transitions of a whole level.
template <typename Select, typename IsDeadlock>
[[nodiscard]] ExplorerResult breadth_first_search(
    const petri::PetriNet& net, const std::vector<petri::Marking>& roots,
    const SearchOptions& options, std::string_view phase, Select&& select,
    IsDeadlock&& is_deadlock,
    const std::function<bool(const petri::Marking&)>& bad_state = {},
    std::size_t threads = 1) {
  using petri::Marking;
  using petri::TransitionId;
  using Word = util::MarkingTable::Word;

  ExplorerResult result;
  result.fireable_transitions = util::Bitset(net.transition_count());
  util::Stopwatch timer;
  if (threads == 0 || options.build_graph) threads = 1;
  // States expanded between two polls of the clock and the cancel token by
  // a worker, and the fewest states of a level worth a thread of their own.
  constexpr std::size_t kPollStates = 64;
  constexpr std::size_t kMinSlice = 256;

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

  auto intern = [&](std::span<const Word> m, std::uint64_t h,
                    std::size_t parent,
                    TransitionId via) -> std::pair<std::size_t, bool> {
    auto [id, fresh] = table.insert(m, h);
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

  // The firing rule (m - pre) | post, word by word, into `out`. Returns
  // whether a token already in an output place that is not consumed breaks
  // 1-safeness.
  auto fire = [&net](const Marking& m, TransitionId t, Marking& out) {
    const petri::Transition& tr = net.transition(t);
    const std::span<const Word> cur = m.words();
    const std::span<const Word> pre = tr.pre_bits.words();
    const std::span<const Word> post = tr.post_bits.words();
    const std::span<Word> next = out.words();
    Word clash = 0;
    for (std::size_t w = 0; w < next.size(); ++w) {
      const Word kept = cur[w] & ~pre[w];
      clash |= kept & post[w];
      next[w] = kept | post[w];
    }
    return clash != 0;
  };

  auto note_unsafe = [&](const Marking& source) {
    if (result.safeness_violation) return;
    result.safeness_violation = true;
    result.unsafe_source = source;
  };

  auto out_of_time = [&] {
    return timer.elapsed_seconds() > options.max_seconds ||
           util::cancel_requested(options.cancel);
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
    auto [idx, fresh] =
        intern(root.words(), util::MarkingTable::hash(root.words()), 0,
               petri::kInvalidTransition);
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

  // Called before expanding state `s`, as the one-thread loop does; returns
  // true when a limit stops the search there.
  auto limit_before = [&](std::size_t s, bool poll_clock) {
    peak_frontier = std::max(peak_frontier, table.size() - s);
    if (table.size() > options.max_states || (poll_clock && out_of_time())) {
      result.limit_hit = true;
      result.interrupted_phase = phase;
      return true;
    }
    return false;
  };

  if (threads == 1) {
    std::vector<TransitionId> enabled;  // per-state scratch, capacity reused
    enabled.reserve(net.transition_count());
    while (head < table.size() && !stopped) {
      if (live_frontier != nullptr)
        live_frontier->set(static_cast<double>(table.size() - head));
      if (limit_before(head, true)) break;
      const std::size_t s = head++;
      load(s, current);  // a copy: inserting may move the arena

      net.enabled_transitions(current, enabled);
      for (TransitionId t : enabled) result.fireable_transitions.set(t);
      for (TransitionId t : select(std::as_const(current), enabled)) {
        if (fire(current, t, next)) note_unsafe(current);
        ++result.edge_count;
        const std::span<const Word> words = std::as_const(next).words();
        auto [idx, fresh] =
            intern(words, util::MarkingTable::hash(words), s, t);
        if (options.build_graph)
          result.graph.edges.push_back({s, idx, net.transition(t).name});
        if (fresh && inspect(idx, next)) {
          stopped = true;
          break;
        }
      }
    }
  } else {
    // One worker's share of a level: states [begin, end). `kept` holds the
    // successors it keeps, in order; crumbs[k] is the parent and transition
    // of kept marking k and hashes[k] its hash. The edge count and fireable
    // set add up over all levels.
    struct Slice {
      explicit Slice(const petri::PetriNet& net)
          : kept(net.place_count()), fireable(net.transition_count()) {}
      std::size_t begin = 0, end = 0;
      util::MarkingTable kept;
      std::vector<Breadcrumb> crumbs;
      std::vector<std::uint64_t> hashes;
      /// The first state whose expansion broke 1-safeness, and how many
      /// successors were kept before that edge.
      std::size_t clash_state = 0, clash_rank = 0;
      bool clashed = false;
      bool out_of_time = false;
      /// What a worker thread threw, rethrown by the calling thread.
      std::exception_ptr error;
      std::size_t edges = 0;
      util::Bitset fireable;
    };
    std::vector<Slice> slices(threads, Slice(net));

    auto expand = [&](Slice& slice) {
      Marking m(net.place_count());
      Marking succ(net.place_count());
      std::vector<TransitionId> enabled;
      enabled.reserve(net.transition_count());
      for (std::size_t s = slice.begin; s < slice.end; ++s) {
        if ((s - slice.begin) % kPollStates == 0 && out_of_time()) {
          slice.out_of_time = true;
          return;
        }
        load(s, m);
        net.enabled_transitions(m, enabled);
        for (TransitionId t : enabled) slice.fireable.set(t);
        for (TransitionId t : select(std::as_const(m), enabled)) {
          if (fire(m, t, succ) && !slice.clashed) {
            slice.clashed = true;
            slice.clash_state = s;
            slice.clash_rank = slice.crumbs.size();
          }
          ++slice.edges;
          const std::span<const Word> words = std::as_const(succ).words();
          const std::uint64_t h = util::MarkingTable::hash(words);
          if (!table.contains(words, h) && slice.kept.insert(words, h).second) {
            slice.crumbs.push_back({s, t});
            slice.hashes.push_back(h);
          }
        }
      }
    };

    // Replays the one-thread loop over a slice whose successors are known:
    // the limit check before each state, then its kept successors in order.
    // Returns true when the search stops.
    auto merge = [&](const Slice& slice) {
      std::size_t k = 0;
      for (std::size_t s = slice.begin; s < slice.end; ++s) {
        if (limit_before(s, (s - slice.begin) % kPollStates == 0)) return true;
        const bool clash_here = slice.clashed && slice.clash_state == s;
        for (; k < slice.crumbs.size() && slice.crumbs[k].parent == s; ++k) {
          if (clash_here && k == slice.clash_rank) {
            load(s, current);
            note_unsafe(current);
          }
          auto [idx, fresh] =
              intern(slice.kept[k], slice.hashes[k], s, slice.crumbs[k].via);
          if (!fresh) continue;
          load(idx, next);
          if (inspect(idx, next)) return true;
        }
        if (clash_here) {
          load(s, current);
          note_unsafe(current);
        }
      }
      return false;
    };

    while (head < table.size() && !stopped) {
      const std::size_t end = table.size();
      if (live_frontier != nullptr)
        live_frontier->set(static_cast<double>(end - head));
      if (limit_before(head, true)) break;
      // Small levels run on the calling thread alone: a thread costs more
      // than expanding a few hundred states.
      const std::size_t n = end - head;
      const std::size_t used =
          std::clamp<std::size_t>(n / kMinSlice, 1, threads);
      for (std::size_t i = 0; i < used; ++i) {
        Slice& slice = slices[i];
        slice.begin = head + n * i / used;
        slice.end = head + n * (i + 1) / used;
        slice.kept.clear();
        slice.crumbs.clear();
        slice.hashes.clear();
        slice.clashed = false;
      }
      {
        std::vector<std::jthread> workers;
        for (std::size_t i = 1; i < used; ++i)
          workers.emplace_back([&expand, &s = slices[i]] {
            try {
              expand(s);
            } catch (...) {
              s.error = std::current_exception();
            }
          });
        expand(slices[0]);
      }
      for (std::size_t i = 1; i < used; ++i)
        if (slices[i].error) std::rethrow_exception(slices[i].error);
      if (std::any_of(slices.begin(), slices.begin() + used,
                      [](const Slice& s) { return s.out_of_time; })) {
        result.limit_hit = true;
        result.interrupted_phase = phase;
        break;
      }
      for (std::size_t i = 0; i < used && !stopped; ++i)
        stopped = merge(slices[i]);
      head = end;
    }
    for (const Slice& slice : slices) {
      result.edge_count += slice.edges;
      result.fireable_transitions |= slice.fireable;
    }
  }

  result.state_count = table.size();
  result.seconds = timer.elapsed_seconds();
  result.stats.threads = threads;
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
