// The engine table: every verdict-producing engine behind one call.
//
// `julie --engine`, `--safety`, the portfolio's racers and bench_table1 run
// engines only through engine::run, so each engine's option plumbing and the
// mapping of its result onto one verdict are written once, here (the SMPT
// shape: one interface in front of complementary methods).
//
// Engines analyze exactly the net they are given. Structural reduction is
// the caller's job: reduce once, run engines on the reduced net, and carry a
// counterexample back with reduce::map_counterexample.
#pragma once

#include <cstddef>
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

namespace gpo::engine {

struct EngineRequest {
  /// Stored markings (full, por), GPN states (gpo*) or prefix cuts (unfold);
  /// bdd has no state cap.
  std::size_t max_states = std::numeric_limits<std::size_t>::max();
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Cooperative cancellation; a fired token ends the run as "cancelled".
  const util::CancelToken* cancel = nullptr;
  /// Stop at the first deadlock (full, por, gpo*; the others always finish).
  bool stop_at_first_deadlock = false;
  std::size_t threads = 1;  // full only; every other engine is sequential
  /// Family store of gpo and gpo-intern (gpo-bdd is its own store). This is
  /// the one default of every entry point (CLI, --safety, batch/serve); ZDD
  /// matches or beats the explicit stores on every model measured.
  core::FamilyStore family_store = core::FamilyStore::kZdd;
  /// Optional telemetry under `metrics_prefix` ("" = "engine.<name>.").
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix;
  obs::Tracer* tracer = nullptr;  // phase spans of full, por, bdd, gpo*
  /// Only deadlocks that mark this place count (the safety-to-deadlock
  /// reduction's violation place); see filters_deadlocks().
  std::optional<petri::PlaceId> required_deadlock_place;
};

struct EngineOutcome {
  std::string engine;
  /// "deadlock" | "no-deadlock" | "aborted" | "cancelled" | "failed"
  std::string verdict = "aborted";
  /// A trustworthy deadlock/no-deadlock verdict: no limit hit, no
  /// cancellation, no blowup, no error.
  bool conclusive = false;
  /// A (matching) deadlock was found, even if the run was then cut short.
  bool deadlock = false;
  double states = -1;  // -1: not applicable
  double seconds = 0;
  bool aborted = false;
  bool cancelled = false;  // the request's token stopped it (implies aborted)
  std::string aborted_phase;  // the phase a limit or the cancel interrupted
  std::string error;          // "failed" verdicts: the exception text
  /// Firing sequence into the deadlock (full, por, gpo*), and the dead
  /// marking itself when the engine reports one.
  std::vector<petri::TransitionId> counterexample;
  std::optional<petri::Marking> witness;
  std::size_t peak_nodes = 0;  // bdd's peak arena size
  bool unsafe_net = false;     // full fired a token into a marked place
};

/// full, por, bdd, gpo, gpo-intern, gpo-bdd, unfold — in table order.
[[nodiscard]] const std::vector<std::string>& names();

[[nodiscard]] bool is_engine(std::string_view name);

/// The engine honours EngineRequest::required_deadlock_place.
[[nodiscard]] bool filters_deadlocks(std::string_view name);

/// Runs engine `name` on `net`. Throws std::invalid_argument for an unknown
/// name or a required_deadlock_place the engine cannot filter by; an
/// engine's own exception (e.g. the explicit r0 cap) propagates.
[[nodiscard]] EngineOutcome run(std::string_view name,
                                const petri::PetriNet& net,
                                const EngineRequest& request);

}  // namespace gpo::engine
