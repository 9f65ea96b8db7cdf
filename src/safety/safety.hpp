// Safety checking via the deadlock reduction the paper invokes in Section 4:
// "obtained results are also valid for safety checks, since the verification
// of a safety property can always be reduced to a check for deadlock"
// [Godefroid-Wolper 1991].
//
// Construction (`reduce_safety_to_deadlock`): a global run place is added
// that every original transition self-loops on, plus one monitor transition
// that observes the bad submarking (self-looping the observed places so the
// witness is preserved) and consumes the run token into a violation place.
// Once the monitor fires nothing else can, so
//
//     bad submarking reachable in N
//         <=>  the reduced net has a deadlock marking the violation place.
//
// Original deadlocks of N survive in the reduced net too (with the run token
// still present), so the engines are asked for deadlocks that mark the
// violation place specifically (EngineRequest::required_deadlock_place).
//
// Note on cost: the run place serializes the net for the *paper-literal*
// conflict relation (every transition pair shares it). With the refined
// relation (petri::ConflictDefinition::kIgnoreMutualSelfLoops, the default)
// mutual self-loops do not count as conflicts, so the GPO reduction
// machinery keeps working on the reduced net.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/gpo_result.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "petri/net.hpp"
#include "util/cancel_token.hpp"

namespace gpo::safety {

/// A safety property: "the listed places are never simultaneously marked".
/// (A monitor for richer state predicates can always be compiled into the
/// net as extra places; this is the canonical coverability form.)
struct SafetyProperty {
  std::vector<petri::PlaceId> never_all_marked;
};

struct ReducedNet {
  petri::PetriNet net;
  /// The global run place (marked initially; every transition loops on it).
  petri::PlaceId run_place;
  /// Marked exactly when the monitor observed the violation.
  petri::PlaceId violation_place;
  /// The monitor transition.
  petri::TransitionId monitor;
};

/// Builds the reduced net. Place/transition ids of the original net are
/// preserved (the new nodes are appended). Throws petri::NetError on invalid
/// place ids or an empty property.
[[nodiscard]] ReducedNet reduce_safety_to_deadlock(const petri::PetriNet& net,
                                                   const SafetyProperty& prop);

/// The engines check_safety accepts: "full", which checks the predicate
/// directly on the original net (the ground truth the reduction is tested
/// against), and every engine of the table that filters deadlocks by the
/// violation place (engine::filters_deadlocks).
[[nodiscard]] bool supports_engine(std::string_view name);

struct SafetyOptions {
  /// An engine name for which supports_engine() holds.
  std::string engine = "gpo-bdd";
  std::size_t max_states = std::numeric_limits<std::size_t>::max();
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Cooperative cancellation, forwarded to the inner engine.
  const util::CancelToken* cancel = nullptr;
  /// Family storage backend of gpo and gpo-intern; unset keeps
  /// engine::EngineRequest's default.
  std::optional<core::FamilyStore> family_store;
  /// Optional telemetry: the reduction and the inner engine run get
  /// "safety-reduction" / engine spans on `tracer`, and the inner engine
  /// publishes its counters to `metrics` under "safety.".
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

struct SafetyResult {
  bool violated = false;
  /// A reachable marking of the *original* net exhibiting the violation
  /// (the reduction's bookkeeping places stripped).
  std::optional<petri::Marking> witness;
  bool limit_hit = false;
  /// Phase a limit interrupted (from the inner engine). Empty otherwise.
  std::string interrupted_phase;
  double seconds = 0.0;
  /// States explored by the selected engine on the reduced net.
  std::size_t states_explored = 0;
};

/// Checks the property with the selected engine via the reduction above.
/// Throws std::invalid_argument for an engine supports_engine() rejects.
[[nodiscard]] SafetyResult check_safety(const petri::PetriNet& net,
                                        const SafetyProperty& prop,
                                        const SafetyOptions& options = {});

}  // namespace gpo::safety
