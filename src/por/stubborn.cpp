#include "por/stubborn.hpp"

#include "reach/search.hpp"

namespace gpo::por {

using petri::Marking;
using petri::PlaceId;
using petri::TransitionId;

std::vector<TransitionId> stubborn_enabled_set(
    const petri::PetriNet& net, const petri::ConflictInfo& conflicts,
    const Marking& m, const std::vector<TransitionId>& seeds) {
  const std::size_t nt = net.transition_count();
  util::Bitset in_set(nt);
  std::vector<TransitionId> work;

  auto add = [&](TransitionId t) {
    if (!in_set.test(t)) {
      in_set.set(t);
      work.push_back(t);
    }
  };
  for (TransitionId t : seeds) add(t);

  while (!work.empty()) {
    TransitionId t = work.back();
    work.pop_back();
    if (net.enabled(t, m)) {
      // (D2) everything that could steal a token from •t must be inside.
      const util::Bitset& nb = conflicts.neighbors(t);
      for (std::size_t u = nb.find_first(); u < nt; u = nb.find_next(u + 1))
        add(static_cast<TransitionId>(u));
    } else {
      // (D1) pick the unmarked input place with the fewest producers as the
      // scapegoat; all its producers join the set.
      const auto& tr = net.transition(t);
      PlaceId scapegoat = petri::kInvalidPlace;
      std::size_t best = SIZE_MAX;
      for (PlaceId p : tr.pre) {
        if (m.test(p)) continue;
        if (net.place(p).pre.size() < best) {
          best = net.place(p).pre.size();
          scapegoat = p;
        }
      }
      // `t` is disabled, so an unmarked input place exists.
      for (TransitionId producer : net.place(scapegoat).pre) add(producer);
    }
  }

  std::vector<TransitionId> enabled;
  for (std::size_t t = in_set.find_first(); t < nt;
       t = in_set.find_next(t + 1))
    if (net.enabled(static_cast<TransitionId>(t), m))
      enabled.push_back(static_cast<TransitionId>(t));
  return enabled;
}

StubbornExplorer::StubbornExplorer(const petri::PetriNet& net,
                                   StubbornOptions options)
    : net_(net), conflicts_(net), options_(options) {}

std::vector<TransitionId> StubbornExplorer::ample_set(
    const Marking& m, const std::vector<TransitionId>& enabled) const {
  if (enabled.empty()) return enabled;

  switch (options_.strategy) {
    case SeedStrategy::kFirstEnabled:
      return stubborn_enabled_set(net_, conflicts_, m, {enabled.front()});
    case SeedStrategy::kWholeConflictSet: {
      std::size_t comp = conflicts_.component_of(enabled.front());
      return stubborn_enabled_set(net_, conflicts_, m,
                                  conflicts_.components()[comp]);
    }
    case SeedStrategy::kBestOverSeeds: {
      std::vector<TransitionId> best;
      for (TransitionId seed : enabled) {
        auto candidate = stubborn_enabled_set(net_, conflicts_, m, {seed});
        if (best.empty() || candidate.size() < best.size())
          best = std::move(candidate);
        if (best.size() == 1) break;  // cannot do better
      }
      return best;
    }
  }
  return enabled;  // unreachable
}

reach::ExplorerResult StubbornExplorer::explore() const {
  return explore_from({net_.initial_marking()});
}

reach::ExplorerResult StubbornExplorer::explore_from(
    const std::vector<Marking>& roots) const {
  return reach::breadth_first_search(
      net_, roots, options_, "reduced-search",
      [this](const Marking& m, const std::vector<TransitionId>& enabled) {
        return ample_set(m, enabled);
      },
      [this](const Marking& m) {
        return net_.is_deadlocked(m) &&
               (!options_.deadlock_filter || options_.deadlock_filter(m));
      });
}

}  // namespace gpo::por
