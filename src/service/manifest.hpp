// Batch manifests for the portfolio verification service.
//
// A manifest is a line-oriented job list consumed by `julie batch` (and, one
// line at a time, by the server's CHECK command). Grammar, one job per line:
//
//   <model> [engines=E1,E2,..] [max-seconds=S] [max-states=N]
//           [family-store=F] [reduce=L] [expect=V]
//
//   <model>       a built-in spec ("nsdp:8", "fig7") or a .net/.pnml path
//   engines=      portfolio to race; default por,gpo-intern,bdd,unfold.
//                 The order is a priority: the first racer runs alone for
//                 kLaterRacerDelay, and racer r joins it only if the job
//                 is still open r * kLaterRacerDelay after it started
//                 (src/service/scheduler.hpp). `por` is first because it
//                 is the fastest engine on every model of the
//                 portfolio_serve mix; on a net where it explodes
//                 (nsdp:12, asat:16) `gpo-intern` joins and wins
//   max-seconds=  per-job wall budget shared by every racer (default 60)
//   max-states=   state cap for the explicit racers
//   family-store= "zdd" | "explicit" — family storage backend for the gpo
//                 racers of this job (default zdd, the canonical
//                 zero-suppressed-DD store; explicit lists r0 and fails
//                 past its cap)
//   reduce=       "off" | "safe" | "aggressive" — structural net reduction
//                 applied ONCE per job before the racers fan out (default
//                 off); the job verdict transfers through the reduction
//                 certificate and a winner's counterexample is mapped back
//                 to and replayed on the original net
//   expect=       expected verdict ("deadlock" | "no-deadlock"); batch mode
//                 exits nonzero when a job's verdict disagrees — this is the
//                 column the CI portfolio-smoke job asserts against
//
// One manifest-level directive is recognized on a line of its own:
//
//   events=<path>   write the structured JSONL event log of the batch run
//                   there (same format as `julie --events`; the CLI flag
//                   wins when both are given)
//
// '#' starts a comment (full line or trailing); blank lines are skipped.
// Unknown keys, engine names outside engine::names() and malformed values are hard errors
// with the offending line number — a manifest typo must not silently shrink
// a CI verification matrix.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace gpo::service {

/// Default wall-clock budget per job (seconds).
inline constexpr double kDefaultJobSeconds = 60.0;

/// The engine set a job races when the manifest names none: the fastest
/// conclusive engine of each flavour (classical POR, GPO on the default zdd
/// family store, symbolic, unfolding) — deliberately diverse so
/// structurally different nets each have a racer that suits them. The
/// order is the racers' priority under load, so `por`, the fastest on the
/// small nets that make up most service traffic, comes first.
[[nodiscard]] const std::vector<std::string>& default_portfolio();

struct JobSpec {
  std::string model;                 // built-in spec or net-file path
  std::vector<std::string> engines;  // empty = default_portfolio()
  double max_seconds = kDefaultJobSeconds;
  std::size_t max_states = std::numeric_limits<std::size_t>::max();
  /// "" (engine::EngineRequest's default, zdd) | "explicit" | "zdd";
  /// forwarded to the gpo racers' EngineRequest::family_store.
  std::string family_store;
  /// "" (default, off) | "off" | "safe" | "aggressive"; structural net
  /// reduction the scheduler applies once per job before racing (kept as
  /// the manifest's string, same as family_store).
  std::string reduce;
  std::string expect;  // "" (none) | "deadlock" | "no-deadlock"
  std::size_t line = 0;  // 1-based manifest line, for diagnostics
};

struct Manifest {
  std::vector<JobSpec> jobs;
  /// The `events=` directive: where to write the batch run's JSONL event
  /// log. "" = none requested.
  std::string events_path;
};

class ManifestError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses one job line (comment already stripped; must be non-empty).
/// Shared by the manifest reader and the server's CHECK command. Throws
/// ManifestError on malformed input, its message starting "line N: " when
/// `line_no` is given (parse_manifest() prefixes "manifest ").
[[nodiscard]] JobSpec parse_job_line(const std::string& line,
                                     std::size_t line_no = 0);

/// Parses a whole manifest; throws ManifestError with a line number on the
/// first malformed job.
[[nodiscard]] Manifest parse_manifest(std::istream& in);
[[nodiscard]] Manifest parse_manifest_file(const std::string& path);

}  // namespace gpo::service
