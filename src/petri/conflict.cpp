#include "petri/conflict.hpp"

#include <algorithm>
#include <stdexcept>

namespace gpo::petri {

ConflictInfo::ConflictInfo(const PetriNet& net,
                           ConflictDefinition definition) {
  const std::size_t nt = net.transition_count();
  neighbors_.assign(nt, util::Bitset(nt));

  // Transitions sharing an input place are pairwise in conflict — unless the
  // refinement is active and the shared place is a self-loop for both
  // (neither firing can disable the other through it).
  for (PlaceId p = 0; p < net.place_count(); ++p) {
    const auto& consumers = net.place(p).post;
    for (std::size_t i = 0; i < consumers.size(); ++i)
      for (std::size_t j = i + 1; j < consumers.size(); ++j) {
        TransitionId t = consumers[i], u = consumers[j];
        if (definition == ConflictDefinition::kIgnoreMutualSelfLoops &&
            net.transition(t).post_bits.test(p) &&
            net.transition(u).post_bits.test(p))
          continue;
        neighbors_[t].set(u);
        neighbors_[u].set(t);
      }
  }

  // Connected components of the conflict graph = maximal conflicting sets.
  component_of_.assign(nt, SIZE_MAX);
  for (TransitionId t = 0; t < nt; ++t) {
    if (component_of_[t] != SIZE_MAX) continue;
    std::size_t cid = components_.size();
    components_.emplace_back();
    std::vector<TransitionId> stack{t};
    component_of_[t] = cid;
    while (!stack.empty()) {
      TransitionId u = stack.back();
      stack.pop_back();
      components_[cid].push_back(u);
      const util::Bitset& nb = neighbors_[u];
      for (std::size_t v = nb.find_first(); v < nt; v = nb.find_next(v + 1)) {
        if (component_of_[v] == SIZE_MAX) {
          component_of_[v] = cid;
          stack.push_back(static_cast<TransitionId>(v));
        }
      }
    }
    std::sort(components_[cid].begin(), components_[cid].end());
  }
}

std::size_t ConflictInfo::choice_component_count() const {
  std::size_t n = 0;
  for (const auto& c : components_)
    if (c.size() > 1) ++n;
  return n;
}

namespace {

// Bron–Kerbosch with pivoting over the *complement* of the conflict graph
// restricted to `members`: maximal cliques of the complement are maximal
// independent sets of the conflict graph.
void bron_kerbosch(const std::vector<util::Bitset>& conflict_nb,
                   std::vector<TransitionId>& current,
                   std::vector<TransitionId> candidates,
                   std::vector<TransitionId> excluded, std::size_t universe,
                   std::vector<util::Bitset>& out) {
  if (candidates.empty() && excluded.empty()) {
    util::Bitset s(universe);
    for (TransitionId t : current) s.set(t);
    out.push_back(std::move(s));
    return;
  }
  // Pivot: a vertex from candidates ∪ excluded with the most complement
  // neighbours among candidates (fewest conflict edges), shrinking recursion.
  auto complement_degree = [&](TransitionId v) {
    std::size_t d = 0;
    for (TransitionId c : candidates)
      if (c != v && !conflict_nb[v].test(c)) ++d;
    return d;
  };
  TransitionId pivot = !candidates.empty() ? candidates.front()
                                           : excluded.front();
  std::size_t best = complement_degree(pivot);
  for (TransitionId v : candidates)
    if (auto d = complement_degree(v); d > best) best = d, pivot = v;
  for (TransitionId v : excluded)
    if (auto d = complement_degree(v); d > best) best = d, pivot = v;

  std::vector<TransitionId> order;
  for (TransitionId v : candidates)
    if (v == pivot || conflict_nb[pivot].test(v)) order.push_back(v);

  for (TransitionId v : order) {
    std::vector<TransitionId> next_cand, next_excl;
    for (TransitionId c : candidates)
      if (c != v && !conflict_nb[v].test(c)) next_cand.push_back(c);
    for (TransitionId c : excluded)
      if (c != v && !conflict_nb[v].test(c)) next_excl.push_back(c);
    current.push_back(v);
    bron_kerbosch(conflict_nb, current, std::move(next_cand),
                  std::move(next_excl), universe, out);
    current.pop_back();
    candidates.erase(std::find(candidates.begin(), candidates.end(), v));
    excluded.push_back(v);
  }
}

}  // namespace

std::vector<util::Bitset> ConflictInfo::maximal_independent_sets(
    std::size_t component) const {
  const auto& members = components_[component];
  std::vector<util::Bitset> out;
  if (members.size() == 1) {
    util::Bitset s(transition_count());
    s.set(members[0]);
    out.push_back(std::move(s));
    return out;
  }
  std::vector<TransitionId> current;
  bron_kerbosch(neighbors_, current, members, {}, transition_count(), out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<util::Bitset> ConflictInfo::maximal_conflict_free_sets(
    std::size_t cap) const {
  std::vector<util::Bitset> family{util::Bitset(transition_count())};
  for (std::size_t c = 0; c < components_.size(); ++c) {
    std::vector<util::Bitset> mis = maximal_independent_sets(c);
    if (family.size() * mis.size() > cap)
      throw std::length_error(
          "explicit r0 would exceed cap; use --engine gpo-bdd or "
          "--family-store zdd for this net");
    std::vector<util::Bitset> next;
    next.reserve(family.size() * mis.size());
    for (const auto& f : family)
      for (const auto& m : mis) next.push_back(f | m);
    family = std::move(next);
  }
  std::sort(family.begin(), family.end());
  return family;
}

}  // namespace gpo::petri
