// Conventional exhaustive reachability analysis (Section 2.2 of the paper):
// explicit enumeration of every reachable marking under interleaving
// semantics. This engine is the ground truth the reduced engines are
// validated against, and produces the "States" column of Table 1.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "petri/dot.hpp"
#include "petri/net.hpp"
#include "util/bitset.hpp"
#include "util/cancel_token.hpp"

namespace gpo::reach {

/// Option fields shared by the exhaustive and the stubborn-set explorer;
/// both run the same breadth-first search (reach/search.hpp).
struct SearchOptions {
  explicit SearchOptions(std::string prefix)
      : metrics_prefix(std::move(prefix)) {}

  /// Abort once this many distinct markings were stored.
  std::size_t max_states = std::numeric_limits<std::size_t>::max();
  /// Abort after this much wall-clock time.
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Optional cooperative cancellation (the portfolio scheduler's
  /// first-to-answer abort). Polled in the main loop next to the wall-clock
  /// budget; a fired token reports as limit_hit with the current phase.
  const util::CancelToken* cancel = nullptr;
  /// Stop the search at the first deadlock instead of exploring everything.
  bool stop_at_first_deadlock = false;
  /// Record the full reachability graph (states + labeled edges). Only
  /// sensible for small nets; used by tests and DOT dumps. The search then
  /// runs on one thread regardless of num_threads.
  bool build_graph = false;
  /// Optional telemetry sink. When set, the engine bumps the live
  /// "progress.states" / "progress.frontier" slots during the search (unless
  /// hot counters are compiled out) and publishes its final counters under
  /// `metrics_prefix` before returning. Results are bit-identical with or
  /// without a registry attached.
  obs::MetricsRegistry* metrics = nullptr;
  /// Name prefix of the published counters, e.g. "engine.full.".
  std::string metrics_prefix;
};

struct ExplorerOptions : SearchOptions {
  ExplorerOptions() : SearchOptions("full.") {}

  /// Optional safety property: exploration reports (and, with
  /// stop_at_first_deadlock, stops at) markings where this returns true.
  std::function<bool(const petri::Marking&)> bad_state;
  /// Threads that expand each breadth-first level (reach/search.hpp). The
  /// result, counterexample included, is the same for every count.
  std::size_t num_threads = 1;
};

/// Observability counters for one exploration, printed by `julie --stats`.
struct ExplorerStats {
  std::size_t threads = 1;
  /// States interned per wall-clock second.
  double states_per_second = 0;
  /// High-water mark of discovered-but-unexpanded states.
  std::size_t peak_frontier = 0;
  /// Always 0: no search steals work. Kept because gpobench/probe.cpp
  /// still reads it.
  std::size_t steal_count = 0;
};

struct ExplorerResult {
  std::size_t state_count = 0;
  std::size_t edge_count = 0;
  std::size_t deadlock_count = 0;

  bool deadlock_found = false;
  std::optional<petri::Marking> first_deadlock;
  /// Firing sequence from the initial marking to first_deadlock.
  std::vector<petri::TransitionId> counterexample;

  bool bad_state_found = false;
  std::optional<petri::Marking> first_bad_state;

  /// The net fired a token into an already-marked place: not 1-safe.
  bool safeness_violation = false;
  std::optional<petri::Marking> unsafe_source;

  /// Transitions enabled in at least one explored marking. For the
  /// exhaustive engine after a complete run, the complement is exactly the
  /// set of dead (never fireable) transitions — the quasi-liveness check of
  /// Section 2.1. For the reduced engines (which reuse this result type)
  /// it is a sound lower bound only.
  util::Bitset fireable_transitions;

  /// True when max_states/max_seconds stopped the search early.
  bool limit_hit = false;
  /// Which phase the limit interrupted ("exploration" for this engine; the
  /// reduced engines report their own phase names). Empty when !limit_hit.
  std::string interrupted_phase;
  double seconds = 0.0;

  ExplorerStats stats;

  /// Populated when ExplorerOptions::build_graph is set. Node labels are
  /// marking renderings; edge labels transition names.
  petri::LabeledGraph graph;
};

/// Explores the reachable markings of a safe Petri net breadth-first.
/// The instance is single-use per call but stateless between calls.
class ExplicitExplorer {
 public:
  explicit ExplicitExplorer(const petri::PetriNet& net,
                            ExplorerOptions options = {})
      : net_(net), options_(std::move(options)) {}

  [[nodiscard]] ExplorerResult explore() const;

 private:
  const petri::PetriNet& net_;
  ExplorerOptions options_;
};

/// Publishes the final counters of one exploration under `prefix`
/// ("<prefix>states", "<prefix>peak_frontier", ... plus the
/// "mem.<prefix>visited_bytes" gauge). Engines call this themselves when
/// ExplorerOptions::metrics is set; bench drivers may call it directly.
void publish_explorer_stats(obs::MetricsRegistry& reg, std::string_view prefix,
                            const ExplorerResult& result,
                            std::size_t visited_bytes);

/// Renders a marking as the set of marked place names, e.g. "{p0,p3}".
[[nodiscard]] std::string marking_to_string(const petri::PetriNet& net,
                                            const petri::Marking& m);

}  // namespace gpo::reach
