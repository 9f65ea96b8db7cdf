#include "core/zdd_family.hpp"

#include <stdexcept>

namespace gpo::core {

ZddFamily ZddFamily::Context::single(const TransitionSet& set) const {
  if (set.size() != num_transitions_)
    throw std::invalid_argument("single: wrong universe size");
  return ZddFamily(manager_.get(), num_transitions_, manager_->single(set));
}

ZddFamily ZddFamily::Context::from_sets(
    const std::vector<TransitionSet>& sets) const {
  for (const TransitionSet& s : sets)
    if (s.size() != num_transitions_)
      throw std::invalid_argument("from_sets: wrong universe size");
  return ZddFamily(manager_.get(), num_transitions_,
                   manager_->from_sets(sets));
}

ZddFamily ZddFamily::Context::initial_valid_sets(
    const petri::ConflictInfo& conflicts) const {
  zdd::ZddManager& mgr = *manager_;
  // Start from {∅}: the product identity, and the correct r0 for a net with
  // no transitions at all.
  zdd::Ref r = zdd::kUnit;
  for (const auto& component : conflicts.components()) {
    // Independence, bottom-up over the component's (ascending) transitions:
    // after step t, f holds every conflict-free subset of the transitions
    // >= t. A set may take t only if it holds no neighbour u > t of t.
    // f mentions only transitions > t, so node (t, ...) keeps the order.
    zdd::Ref f = zdd::kUnit;
    for (auto it = component.rbegin(); it != component.rend(); ++it) {
      const petri::TransitionId t = *it;
      const util::Bitset& nb = conflicts.neighbors(t);
      zdd::Ref hit = zdd::kEmpty;
      for (std::size_t u = nb.find_next(t + 1); u < num_transitions_;
           u = nb.find_next(u + 1))
        hit = mgr.unite(hit, mgr.containing(f, static_cast<zdd::Var>(u)));
      f = mgr.make_node(static_cast<zdd::Var>(t), f, mgr.subtract(f, hit));
    }
    // Maximality: a set may leave t out only if it holds a neighbour of t.
    for (const petri::TransitionId t : component) {
      const util::Bitset& nb = conflicts.neighbors(t);
      zdd::Ref keep = mgr.containing(f, static_cast<zdd::Var>(t));
      for (std::size_t u = nb.find_first(); u < num_transitions_;
           u = nb.find_next(u + 1))
        keep = mgr.unite(keep, mgr.containing(f, static_cast<zdd::Var>(u)));
      f = keep;
    }
    r = mgr.product(r, f);
  }
  return ZddFamily(manager_.get(), num_transitions_, r);
}

std::vector<TransitionSet> ZddFamily::members(std::size_t max) const {
  std::vector<TransitionSet> out;
  mgr_->enumerate(ref_, max,
                  [&](const util::Bitset& set) { out.push_back(set); });
  return out;
}

}  // namespace gpo::core
