// Batch manifests for the portfolio verification service.
//
// A manifest is a line-oriented job list consumed by `julie batch` (and, one
// line at a time, by the server's CHECK command). Grammar, one job per line:
//
//   <model> [engines=E1,E2,..] [max-seconds=S] [max-states=N]
//           [family-store=F] [reduce=L] [expect=V]
//
//   <model>       a built-in spec ("nsdp:8", "fig7") or a .net/.pnml path
//   engines=      portfolio to race; default gpo-intern,por,bdd,unfold
//   max-seconds=  per-job wall budget shared by every racer (default 60)
//   max-states=   state cap for the explicit racers
//   family-store= "explicit" | "zdd" — family storage backend for the gpo
//                 racers of this job (default explicit; zdd = canonical
//                 zero-suppressed-DD store, lower memory, sequential)
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
// Unknown keys, unknown engine names and malformed values are hard errors
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
/// conclusive engine of each flavour (interned GPO, classical POR, symbolic,
/// unfolding) — deliberately diverse so structurally different nets each
/// have a racer that suits them.
[[nodiscard]] const std::vector<std::string>& default_portfolio();

/// Engine names the portfolio layer accepts (the CLI's --engine values that
/// produce a deadlock verdict, including "unfold" via its complete prefix).
[[nodiscard]] bool is_known_engine(const std::string& name);

struct JobSpec {
  std::string model;                 // built-in spec or net-file path
  std::vector<std::string> engines;  // empty = default_portfolio()
  double max_seconds = kDefaultJobSeconds;
  std::size_t max_states = std::numeric_limits<std::size_t>::max();
  /// "" (engine default, i.e. explicit) | "explicit" | "zdd"; forwarded to
  /// the gpo racers' GpoOptions::family_store.
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
/// ManifestError on malformed input.
[[nodiscard]] JobSpec parse_job_line(const std::string& line,
                                     std::size_t line_no = 0);

/// Parses a whole manifest; throws ManifestError with a line number on the
/// first malformed job.
[[nodiscard]] Manifest parse_manifest(std::istream& in);
[[nodiscard]] Manifest parse_manifest_file(const std::string& path);

}  // namespace gpo::service
