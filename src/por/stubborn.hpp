// Classical partial-order reduction (Section 2.3 of the paper) via stubborn
// sets [Valmari 1990] / persistent sets [Godefroid-Wolper 1991]. This engine
// stands in for the paper's SPIN+PO baseline: it collapses interleavings of
// independent transitions but — by construction — still enumerates every
// combination of concurrently marked conflict places, which is exactly the
// weakness generalized partial-order analysis removes.
//
// A transition set S is stubborn at marking m when
//   (D1) every *disabled* t in S has an unmarked input place p with all of
//        p's producer transitions in S (a "scapegoat" place),
//   (D2) every *enabled* t in S has all transitions conflicting with it
//        (sharing an input place) in S, and
//   (KEY) S contains at least one enabled transition.
// For 1-safe nets these conditions make the enabled members of S a persistent
// set, so firing only those preserves every reachable deadlock.
#pragma once

#include <functional>
#include <vector>

#include "petri/conflict.hpp"
#include "petri/net.hpp"
#include "reach/explorer.hpp"

namespace gpo::por {

enum class SeedStrategy {
  /// Compute the closure for every enabled seed; keep the set with the
  /// fewest enabled transitions (slower per state, smallest graphs).
  kBestOverSeeds,
  /// Seed with the first enabled transition only (fast, larger graphs).
  kFirstEnabled,
  /// Seed with the whole maximal conflicting set of the first enabled
  /// transition — the "anticipation" flavour sketched in Section 2.3.
  kWholeConflictSet,
};

/// Computes the stubborn closure of `seeds` at marking `m` and returns its
/// enabled transitions, ascending: the explorer's closure, run once without
/// its early exit. Exposed separately for unit tests.
[[nodiscard]] std::vector<petri::TransitionId> stubborn_enabled_set(
    const petri::PetriNet& net, const petri::ConflictInfo& conflicts,
    const petri::Marking& m, const std::vector<petri::TransitionId>& seeds);

struct StubbornOptions : reach::SearchOptions {
  StubbornOptions() : SearchOptions("por.") {}

  SeedStrategy strategy = SeedStrategy::kBestOverSeeds;
  /// When set, only dead markings satisfying the predicate count as
  /// deadlocks (used by the safety-to-deadlock reduction to single out
  /// monitor-induced deadlocks). Stubborn sets preserve *all* deadlocks, so
  /// filtering is sound.
  std::function<bool(const petri::Marking&)> deadlock_filter;
};

/// Reduced-order explorer: the exhaustive engine's breadth-first search
/// (reach/search.hpp), expanding per marking only the enabled transitions of
/// one stubborn set. Reuses reach::ExplorerResult so results are directly
/// comparable with the exhaustive engine. Each search keeps its closure
/// scratch in its own frame, so one explorer (or several over one net) may
/// run searches on several threads at once.
class StubbornExplorer {
 public:
  StubbornExplorer(const petri::PetriNet& net, StubbornOptions options = {});

  [[nodiscard]] reach::ExplorerResult explore() const;

 private:
  const petri::PetriNet& net_;
  petri::ConflictInfo conflicts_;
  StubbornOptions options_;
};

}  // namespace gpo::por
