// Structural net-reduction preprocessing: shrink a safe Petri net before any
// engine runs on it, preserving the deadlock verdict and keeping enough
// information to map counterexamples back to the original net.
//
// The pipeline (the polyhedral-reduction line of Amat et al., restricted to
// the side conditions that are sound for 1-safe deadlock checking):
//
//   * dead-transition removal   — a transition with an unmarkable input place
//     (unmarked, and every producer needs the place marked to fire: the
//     singleton-siphon argument) can never fire; dropping it leaves the
//     reachability graph untouched.
//   * dead-place removal        — a place no transition consumes (a sink)
//     never constrains enabling; projecting it away is a bisimulation with
//     respect to the enabling relation, so deadlocks are preserved exactly.
//   * constant-place removal    — a marked place where every adjacent
//     transition is a pure self-loop (consumes and reproduces it) is
//     invariantly marked and never blocks anything.
//   * duplicate-transition fusion — transitions with identical presets and
//     postsets are enabled together and fire to the same marking; one
//     representative suffices.
//   * duplicate-place fusion    — places with identical producer sets,
//     consumer sets and initial marking hold equal markings forever; one
//     representative carries the constraint.
//   * agglomeration (aggressive only) — a 1-safe sequence collapse: an
//     unmarked place p whose producers have p as their sole output, whose
//     consumers have p as their sole input, and whose consumers' outputs
//     have no other producer, forces a strict f;h sequencing. Each (f, h)
//     pair fuses into one transition (pre(f) -> post(h)). Any reachable
//     marking with p marked has its consumer enabled (pre = {p}), so no
//     deadlock is lost; a firing of the fused transition expands to [f, h]
//     on the parent net.
//
// Every applied pass appends an invertible RewriteRecord to a
// ReductionCertificate: a verdict on the reduced net is a verdict on the
// original, and a counterexample firing sequence on the reduced net maps
// step-by-step (agglomerated transitions expand to their constituent
// sequences) to a firing sequence that replays on the ORIGINAL net — replay
// is the acceptance oracle, same as the engines' own witnesses.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "petri/net.hpp"

namespace gpo::reduce {

/// How hard to reduce. `kSafe` runs only the passes whose soundness needs no
/// sequencing argument (removal/fusion of redundant structure); `kAggressive`
/// adds agglomeration, which collapses sequential transition chains.
enum class ReduceLevel {
  kOff,
  kSafe,
  kAggressive,
};

[[nodiscard]] const char* reduce_level_name(ReduceLevel level);

/// Parses "off" | "safe" | "aggressive"; nullopt on anything else.
[[nodiscard]] std::optional<ReduceLevel> parse_reduce_level(
    std::string_view name);

/// One pass application, recorded in net-rewrite order. For every transition
/// id of the post-pass net, `transition_expansion[t]` is the firing sequence
/// of the PRE-pass net that one firing of t corresponds to (a singleton for
/// surviving transitions, [f, h] for an agglomerated pair).
struct RewriteRecord {
  std::string pass;
  std::vector<std::vector<petri::TransitionId>> transition_expansion;
};

/// The invertible rewrite trail of one reduction. Mapping a reduced-net
/// firing sequence through the records in reverse yields a firing sequence
/// of the original net.
class ReductionCertificate {
 public:
  void append(RewriteRecord record) { records_.push_back(std::move(record)); }

  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] const std::vector<RewriteRecord>& records() const {
    return records_;
  }

  /// Expands a firing sequence of the reduced net into one of the original
  /// net by unwinding every rewrite record, newest first.
  [[nodiscard]] std::vector<petri::TransitionId> map_to_original(
      const std::vector<petri::TransitionId>& trace) const;

 private:
  std::vector<RewriteRecord> records_;
};

/// Fires `trace` from the initial marking of `net`. Returns the final
/// marking, or nullopt if some step is disabled (or violates 1-safeness) —
/// the certificate acceptance oracle: a mapped deadlock counterexample must
/// replay and end in a marking where net.is_deadlocked() holds.
[[nodiscard]] std::optional<petri::Marking> replay_trace(
    const petri::PetriNet& net,
    const std::vector<petri::TransitionId>& trace);

/// A reduced-net deadlock counterexample carried back to the original net.
struct MappedCounterexample {
  /// The trace expanded through the certificate: a firing sequence of the
  /// original net.
  std::vector<petri::TransitionId> trace;
  /// The marking `trace` replays to on the original net; set only when that
  /// marking is dead. Unset means the certificate failed its acceptance
  /// check — a reduction bug, never a property of the net.
  std::optional<petri::Marking> deadlock;
};

/// Maps `reduced_trace` through `certificate` and replays it on `original`.
/// The one map-and-replay step every caller that reduces a net before
/// running engines applies to the winning counterexample.
[[nodiscard]] MappedCounterexample map_counterexample(
    const petri::PetriNet& original, const ReductionCertificate& certificate,
    const std::vector<petri::TransitionId>& reduced_trace);

struct PassCount {
  std::string pass;
  std::size_t applications = 0;
};

struct ReductionStats {
  ReduceLevel level = ReduceLevel::kOff;
  std::size_t places_before = 0;
  std::size_t places_after = 0;
  std::size_t transitions_before = 0;
  std::size_t transitions_after = 0;
  /// Full sweeps of the pass pipeline until the fixpoint (>= 1).
  std::size_t iterations = 0;
  double seconds = 0.0;
  /// Per-pass application counts over all sweeps, pipeline order; passes
  /// that never applied are omitted.
  std::vector<PassCount> pass_counts;
};

/// The stats as the run report's "reduction" object payload
/// (RunReport::set_reduction for single runs, JobRun::reduction per portfolio
/// job). Call only for an applied reduction (level != kOff).
[[nodiscard]] obs::RunReport::ReductionRun to_report_run(
    const ReductionStats& stats);

struct ReduceOptions {
  ReduceLevel level = ReduceLevel::kSafe;
  /// Fixpoint sweep cap — a backstop, never reached on sane nets.
  std::size_t max_iterations = 64;
  /// Optional telemetry: final counts are published under
  /// "<metrics_prefix>..." (places/transitions before/after, iterations, a
  /// seconds timer, and pass.<name>.applications per applied pass).
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "reduce.";
  /// Optional phase tracer: one span per pass application sweep entry, so
  /// the phase tree shows where reduction time went.
  obs::Tracer* tracer = nullptr;
};

struct ReductionResult {
  petri::PetriNet net;
  ReductionCertificate certificate;
  ReductionStats stats;
};

/// Runs the reduction pipeline to a fixpoint. `ReduceLevel::kOff` returns a
/// structural copy of `net` with an empty certificate.
[[nodiscard]] ReductionResult reduce_net(const petri::PetriNet& net,
                                         const ReduceOptions& options = {});

}  // namespace gpo::reduce
