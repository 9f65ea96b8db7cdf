#include "bdd/symbolic_reach.hpp"

#include <deque>

#include "util/stopwatch.hpp"

namespace gpo::bdd {

using petri::PlaceId;
using petri::TransitionId;

std::vector<PlaceId> compute_place_order(const petri::PetriNet& net,
                                         VariableOrder order) {
  const std::size_t np = net.place_count();
  std::vector<PlaceId> out;
  out.reserve(np);
  if (order == VariableOrder::kDeclaration) {
    for (PlaceId p = 0; p < np; ++p) out.push_back(p);
    return out;
  }

  // BFS over places: p is adjacent to q when some transition connects them.
  std::vector<bool> visited(np, false);
  std::deque<PlaceId> queue;
  auto push = [&](PlaceId p) {
    if (!visited[p]) {
      visited[p] = true;
      queue.push_back(p);
    }
  };
  for (std::size_t p = net.initial_marking().find_first(); p < np;
       p = net.initial_marking().find_next(p + 1))
    push(static_cast<PlaceId>(p));
  for (PlaceId p = 0; p < np; ++p) push(p);  // cover disconnected parts

  while (!queue.empty()) {
    PlaceId p = queue.front();
    queue.pop_front();
    out.push_back(p);
    for (TransitionId t : net.place(p).post)
      for (PlaceId q : net.transition(t).post) push(q);
    for (TransitionId t : net.place(p).pre)
      for (PlaceId q : net.transition(t).pre) push(q);
  }
  return out;
}

SymbolicReachability::SymbolicReachability(const petri::PetriNet& net,
                                           SymbolicOptions options)
    : net_(net), options_(options) {
  order_ = compute_place_order(net, options_.order);
  position_.assign(net.place_count(), 0);
  for (std::uint32_t i = 0; i < order_.size(); ++i) position_[order_[i]] = i;
  manager_.emplace(static_cast<Var>(2 * net.place_count()),
                   options_.node_limit);
}

SymbolicResult SymbolicReachability::analyze() {
  SymbolicResult result;
  util::Stopwatch timer;
  BddManager& mgr = *manager_;
  const std::size_t np = net_.place_count();
  const std::size_t nt = net_.transition_count();

  try {
    // Initial state: full assignment over current-state variables.
    Ref init = kTrue;
    for (PlaceId p = 0; p < np; ++p) {
      Ref lit = net_.initial_marking().test(p) ? mgr.var(cur_var(p))
                                               : mgr.nvar(cur_var(p));
      init = mgr.apply_and(init, lit);
    }

    // Per-transition pieces: enabling condition over current vars, update
    // over next vars of touched places, quantification cube, rename map.
    std::vector<Ref> enabling(nt), relation(nt), quant_cube(nt);
    std::vector<std::vector<Var>> rename_map(nt);
    for (TransitionId t = 0; t < nt; ++t) {
      const auto& tr = net_.transition(t);
      Ref en = kTrue;
      for (PlaceId p : tr.pre) en = mgr.apply_and(en, mgr.var(cur_var(p)));
      enabling[t] = en;

      Ref rel = en;
      std::vector<Var> touched_cur;
      // Touched places: •t ∪ t•. Post places end marked; pre-only end empty.
      for (PlaceId p : tr.post)
        rel = mgr.apply_and(rel, mgr.var(nxt_var(p)));
      for (PlaceId p : tr.pre) {
        touched_cur.push_back(cur_var(p));
        if (!tr.post_bits.test(p))
          rel = mgr.apply_and(rel, mgr.nvar(nxt_var(p)));
      }
      for (PlaceId p : tr.post)
        if (!tr.pre_bits.test(p)) touched_cur.push_back(cur_var(p));
      relation[t] = rel;
      quant_cube[t] = mgr.cube(touched_cur);

      // After quantifying the touched current vars, rename the touched next
      // vars down to their current counterparts (monotone: 2k+1 -> 2k).
      std::vector<Var> map(mgr.num_vars());
      for (Var v = 0; v < mgr.num_vars(); ++v) map[v] = v;
      for (PlaceId p : tr.pre) map[nxt_var(p)] = cur_var(p);
      for (PlaceId p : tr.post) map[nxt_var(p)] = cur_var(p);
      rename_map[t] = std::move(map);
    }

    Ref reached = init;
    Ref frontier = init;
    while (frontier != kFalse) {
      if (timer.elapsed_seconds() > options_.max_seconds) {
        result.blowup = true;
        result.blowup_reason = "time limit";
        break;
      }
      if (util::cancel_requested(options_.cancel)) {
        result.blowup = true;
        result.blowup_reason = "cancelled";
        break;
      }
      ++result.iterations;
      Ref next_frontier = kFalse;
      for (TransitionId t = 0; t < nt; ++t) {
        Ref img = mgr.and_exists(frontier, relation[t], quant_cube[t]);
        img = mgr.rename(img, rename_map[t]);
        next_frontier = mgr.apply_or(next_frontier, img);
      }
      frontier = mgr.apply_diff(next_frontier, reached);
      reached = mgr.apply_or(reached, frontier);
    }
    result.peak_nodes = mgr.total_nodes();
    if (result.blowup) {
      result.seconds = timer.elapsed_seconds();
      return result;
    }

    // State count over the current-state variables.
    std::vector<Var> cur_vars;
    cur_vars.reserve(np);
    for (PlaceId p = 0; p < np; ++p) cur_vars.push_back(cur_var(p));
    result.state_count = mgr.sat_count(reached, cur_vars);

    // Deadlock: a reachable state where no transition is enabled.
    Ref some_enabled = kFalse;
    for (TransitionId t = 0; t < nt; ++t)
      some_enabled = mgr.apply_or(some_enabled, enabling[t]);
    Ref dead = mgr.apply_diff(reached, some_enabled);
    if (options_.required_deadlock_place)
      dead = mgr.apply_and(
          dead, mgr.var(cur_var(*options_.required_deadlock_place)));
    result.peak_nodes = mgr.total_nodes();
    if (dead != kFalse) {
      result.deadlock_found = true;
      util::Bitset assignment = mgr.pick_one_sat(dead);
      petri::Marking witness(np);
      for (PlaceId p = 0; p < np; ++p)
        if (assignment.test(cur_var(p))) witness.set(p);
      result.deadlock_witness = witness;
    }
  } catch (const BddLimitExceeded& e) {
    result.blowup = true;
    result.blowup_reason = e.what();
    result.peak_nodes = mgr.total_nodes();
  }
  result.seconds = timer.elapsed_seconds();
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    const std::string p = options_.metrics_prefix;
    reg.counter(p + "iterations").store(result.iterations);
    reg.counter(p + "states")
        .store(static_cast<std::uint64_t>(result.state_count));
    reg.gauge(p + "peak_nodes").set(static_cast<double>(result.peak_nodes));
    reg.gauge(p + "unique_table_load")
        .set(options_.node_limit > 0
                 ? static_cast<double>(result.peak_nodes) /
                       static_cast<double>(options_.node_limit)
                 : 0.0);
    reg.timer(p + "seconds")
        .record_ns(static_cast<std::uint64_t>(result.seconds * 1e9));
    // The manager's heap as allocated: 12 B per arena node, 4 B per
    // unique-table slot (2-4 slots per node at load ¼-½) and the computed
    // cache, which follows the node count up to its ceiling.
    reg.gauge("mem." + p + "node_bytes")
        .set(static_cast<double>(mgr.stats().memory_bytes));
  }
  return result;
}

}  // namespace gpo::bdd
