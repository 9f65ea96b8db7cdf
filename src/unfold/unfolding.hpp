// Net unfoldings: McMillan's finite complete prefix construction
// [McMillan CAV'92, Esparza-Römer-Vogler], the partial-order verification
// technique behind the paper's reference [13] (Semenov/Yakovlev, time Petri
// net unfolding). Where generalized partial-order analysis collapses the
// *conflict* dimension with valid-set scenarios, unfoldings unroll the net
// into an acyclic occurrence net whose *concurrency* is kept implicit —
// the two approaches are natural comparison points.
//
// The prefix is a branching process: conditions are instances of places,
// events instances of transitions. An event's local configuration [e] is
// the set of its causal predecessors; construction proceeds in order of
// |[e]| and stops at *cut-off events* whose final marking Mark([e]) was
// already produced by a smaller configuration. For safe nets the prefix is
// finite and complete: every reachable marking is the cut of one of its
// configurations (tested literally in tests/unfold by replaying the prefix
// as a Petri net and comparing reachable-marking sets).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "petri/net.hpp"
#include "util/cancel_token.hpp"

namespace gpo::unfold {

struct Condition {
  petri::PlaceId place;
  /// Producing event, or kNoEvent for the initial-marking conditions.
  std::size_t producer;
};

inline constexpr std::size_t kNoEvent = SIZE_MAX;

struct Event {
  petri::TransitionId transition;
  std::vector<std::size_t> preset;   // condition indices, sorted
  std::vector<std::size_t> postset;  // condition indices, sorted
  /// |[e]|: size of the local configuration (this event + causal
  /// predecessors).
  std::size_t local_size = 0;
  /// Mark([e]): the marking reached by firing exactly [e].
  petri::Marking mark;
  bool cutoff = false;
};

struct UnfoldOptions {
  std::size_t max_events = 100'000;
  std::size_t max_conditions = 1'000'000;
  /// Abort the construction after this much wall-clock time (limit_hit=true;
  /// the prefix is then not complete).
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Cooperative cancellation; a fired token stops the construction with
  /// limit_hit=true (the prefix is then not complete).
  const util::CancelToken* cancel = nullptr;
  /// Optional telemetry sink: each appended event bumps "progress.states"
  /// (events are the unfolder's unit of work) and the final
  /// events/conditions/cutoff counters are published under `metrics_prefix`.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "unfold.";
};

struct Prefix {
  std::vector<Condition> conditions;
  std::vector<Event> events;
  std::size_t cutoff_count = 0;
  /// Construction stopped at the caps; the prefix is then not complete.
  bool limit_hit = false;

  [[nodiscard]] std::size_t event_count() const { return events.size(); }
};

/// Builds the McMillan finite complete prefix of a safe net.
[[nodiscard]] Prefix unfold(const petri::PetriNet& net,
                            const UnfoldOptions& options = {});

/// Interprets the prefix itself as a (safe, acyclic) Petri net: conditions
/// become places (the initial ones marked), events become transitions. The
/// reachable markings of this net are exactly the cuts of the prefix's
/// configurations, which is how completeness is tested.
[[nodiscard]] petri::PetriNet prefix_as_net(const petri::PetriNet& net,
                                            const Prefix& prefix);

/// Maps a marking of prefix_as_net (a cut) back to a marking of the
/// original net.
[[nodiscard]] petri::Marking cut_to_marking(const petri::PetriNet& net,
                                            const Prefix& prefix,
                                            const petri::Marking& cut);

struct PrefixDeadlockResult {
  bool deadlock_found = false;
  std::optional<petri::Marking> witness;  // marking of the original net
  std::size_t cuts_explored = 0;
  bool limit_hit = false;
};

/// Deadlock detection through the complete prefix: the original net has a
/// reachable deadlock iff some reachable cut of the prefix maps to a dead
/// marking (completeness of the McMillan prefix). `prefix` must have been
/// built without hitting its caps. The cut search stops with limit_hit after
/// `max_cuts` cuts or `max_seconds`, or when `cancel` fires.
[[nodiscard]] PrefixDeadlockResult deadlock_via_prefix(
    const petri::PetriNet& net, const Prefix& prefix,
    std::size_t max_cuts = 10'000'000,
    double max_seconds = std::numeric_limits<double>::infinity(),
    const util::CancelToken* cancel = nullptr);

}  // namespace gpo::unfold
