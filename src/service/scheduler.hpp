// Portfolio verification scheduler: many (net, property) jobs multiplexed
// over ONE global thread pool, each job raced by an engine portfolio with
// first-to-answer cancellation.
//
// Shape of the system (see DESIGN.md "Portfolio scheduler architecture"):
//
//   submit(JobSpec) ──► JobState ──► its first racer: one task, rank 0
//                                        │ (a worker runs it: loads the net,
//                                        │  then queues the later racers,
//                                        ▼  rank r due r * kLaterRacerDelay)
//        rank 0 FIFO, rank 1 FIFO, ... ──► W workers (pool_threads); a free
//                                          worker takes the later racer due
//                                          first if it is due, else the
//                                          oldest first racer, else waits
//
//   * Every racer of every job is one task on the shared pool — there is no
//     per-job --threads. Individual GPN graphs are tiny (frontier <= 2 on
//     the paper's models), so cross-job/cross-racer parallelism is where the
//     cores actually get used.
//   * Rank is priority: a job's first racer runs alone for
//     kLaterRacerDelay, and its later racers join it only if it has not
//     decided the job by then; a due later racer goes ahead of every queued
//     job. So under a backlog each job costs about one racer when its first
//     racer is fast (default_portfolio() puts `por` there), and a job whose
//     first racer explodes still gets its others within milliseconds.
//   * The net loads on the pool: the job's first racer loads it (and
//     applies reduce=) before the later racers are queued, and every racer
//     of the job runs on that one net. A load failure is the job's "error"
//     verdict, delivered from a worker; submit() itself only queues a task.
//   * The first racer to return a conclusive verdict wins the job: its
//     verdict/counterexample become the job's, and the job's CancelToken is
//     fired so the running racers abort at their next main-loop poll. The
//     job settles at that moment: racers that have not started are recorded
//     as skipped ("cancelled") and never run, and the job completes as soon
//     as its running racers return — its VERDICT never waits for queued
//     losers.
//   * Each job gets its own MetricsRegistry scope; racers publish their
//     counters under "engine.<name>." into it, and the batch report nests
//     every racer outcome (winner, per-engine timing, cancellation latency)
//     under the job's jobs[] entry.
//   * When a job completes, its full JobResult goes to on_complete once;
//     then the net, the registry, the racer outcomes and the job's lock and
//     token are freed (a skipped racer's task keeps only the small JobState
//     until a worker discards it), and only a JobRecord (verdict, winner,
//     error, timing) stays for wait()/JOBS. A server's memory thus grows by
//     a few hundred bytes per job served, and otherwise follows the jobs in
//     flight.
//
// Thread-safety: submit()/wait()/wait_all() may be called from any thread.
// The on_complete callback runs on whichever worker finished the job's last
// racer — keep it short and synchronize your own sinks (the line server
// takes an output mutex).
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "petri/net.hpp"
#include "service/manifest.hpp"
#include "service/portfolio.hpp"

namespace gpo::obs {
class EventLog;
}  // namespace gpo::obs

namespace gpo::service {

/// How long a job's first racer runs alone: a later racer of rank r is due
/// r * kLaterRacerDelay after its job's first racer started, and no worker
/// starts it before (Pool in scheduler.cpp). Longer than `por`, the default
/// first racer, takes on each model of the portfolio_serve mix (at most
/// 2.5 ms, nsdp:7); far shorter than it takes on the nets where it explodes
/// and GPO does not (nsdp:12 250 ms, asat:16 450 ms).
inline constexpr std::chrono::milliseconds kLaterRacerDelay{5};

/// What the scheduler keeps of a finished job: its verdict and timing, a
/// few hundred bytes. wait(), wait_all() and JOBS answer from it for as long
/// as the scheduler lives.
struct JobRecord {
  std::size_t id = 0;
  std::string model;
  /// "deadlock" | "no-deadlock" | "undecided" (every racer aborted) |
  /// "error" (the job never ran: bad model, unknown engine).
  std::string verdict = "undecided";
  /// Racer whose conclusive answer became the verdict; empty otherwise.
  std::string winner;
  std::string expect;          // from the manifest; "" = none
  bool expect_matched = true;  // false iff expect set and verdict differs
  std::string error;           // "error" verdicts: what went wrong
  /// Wall-clock from submission to the last *started* racer returning:
  /// racers skipped because the job was decided first do not count.
  double seconds = 0;
  /// Longest drain of a cancelled racer: cancel-token fire -> that racer
  /// actually returning. The portfolio's overhead metric; 0 when nothing
  /// was cancelled.
  double cancel_latency_seconds = 0;
};

/// Everything one finished job produced: its record plus the racer detail.
/// The scheduler hands it to on_complete once and then drops all but the
/// JobRecord part, so whoever needs the detail (the batch report) copies it
/// there.
struct JobResult : JobRecord {
  JobResult() = default;
  /// A record with no racer detail. Lets code that names JobResult for
  /// wait()'s value keep compiling; engines, counterexample and metrics stay
  /// empty.
  JobResult(JobRecord record) : JobRecord(std::move(record)) {}

  /// Family-store backend the manifest requested for the gpo racers;
  /// "" = engine::EngineRequest's default (zdd).
  std::string family_store;
  /// Net reduction applied once, by the job's first racer (the
  /// manifest's reduce= key); nullopt when off.
  std::optional<obs::RunReport::ReductionRun> reduction;
  /// Every racer's outcome, in the job's engine-list order; a racer skipped
  /// because the job was decided first reads "cancelled". Empty for an
  /// "error" job. With reduce=
  /// these are reduced-net runs (states, counterexamples of the reduced
  /// net); the job-level counterexample below is already mapped back.
  std::vector<EngineOutcome> engines;
  /// Winner's counterexample (deadlock verdicts, engine permitting), as a
  /// firing sequence of the ORIGINAL net: with reduce= the winner's trace is
  /// mapped through the reduction certificate and replayed on the original
  /// net before it is stored (a replay failure appends to `error`).
  std::vector<petri::TransitionId> counterexample;
  /// The job's private telemetry scope ("engine.<name>.*" counters).
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

struct SchedulerOptions {
  /// Global pool width. 0 = std::thread::hardware_concurrency().
  std::size_t pool_threads = 0;
  /// Engine set to resolve names against. nullptr = the real engines
  /// (default_engine_registry()); tests inject synthetic racers.
  const EngineRegistry* registry = nullptr;
  /// Invoked on a worker thread as each job completes, with the job's full
  /// result: the only place racer outcomes, the counterexample and the
  /// job's registry can be read. The scheduler drops them when the callback
  /// returns. Server mode pushes VERDICT lines from here; run_batch copies
  /// the results out. May be empty.
  std::function<void(const JobResult&)> on_complete;
  /// Structured JSONL event log; when set, the scheduler emits job
  /// lifecycle records (submitted/started/racer-start/first-answer/
  /// cancelled/finished). Must outlive the scheduler. May be null.
  obs::EventLog* events = nullptr;
};

class PortfolioScheduler {
 public:
  explicit PortfolioScheduler(SchedulerOptions options = {});
  /// Drains outstanding jobs, then joins the pool.
  ~PortfolioScheduler();

  PortfolioScheduler(const PortfolioScheduler&) = delete;
  PortfolioScheduler& operator=(const PortfolioScheduler&) = delete;

  /// Enqueues one job's first racer; returns its id (dense, submission
  /// order). That racer loads the net on the pool and queues the others.
  /// A load failure or an unknown engine yields an "error" JobResult rather
  /// than a throw, so one bad manifest line cannot take down a batch; its
  /// completion is delivered from a pool worker, never inline.
  std::size_t submit(const JobSpec& spec);

  /// Blocks until job `id` completed and returns its record. Racer detail
  /// is not kept: read it in on_complete.
  [[nodiscard]] JobRecord wait(std::size_t id);

  /// Blocks until every submitted job completed.
  void wait_all();

  [[nodiscard]] std::size_t pool_threads() const;
  [[nodiscard]] std::size_t submitted() const;

  // -- live introspection (the serve STATS/JOBS/HEALTH surface) -------------
  // All of these answer from relaxed-atomic slots or short leaf locks and
  // never wait on running racers, so they stay responsive mid-race.

  /// The scheduler's own telemetry scope: service.jobs.* counters, the
  /// service.queue.depth gauge, the service.job_seconds /
  /// service.cancel_latency_seconds / service.queue_wait_seconds histograms
  /// and lazily-registered per-engine service.engine.<name>.{wins,cancelled,
  /// seconds} slots. Lives as long as the scheduler.
  [[nodiscard]] obs::MetricsRegistry& service_metrics() const;
  /// Racers waiting for a worker: queued, not started, and not skipped by
  /// their job's decision.
  [[nodiscard]] std::size_t queue_depth() const;
  /// Jobs whose completion callback has finished.
  [[nodiscard]] std::size_t completed() const;
  /// Seconds since the scheduler was constructed.
  [[nodiscard]] double uptime_seconds() const;

  /// One job's live state, for the JOBS command.
  struct JobBrief {
    std::size_t id = 0;
    std::string model;
    std::string state;    // "queued" | "running" | "done"
    std::string verdict;  // final verdict when done, "" before
    std::string winner;
    double seconds = 0;
  };
  /// Snapshot of every submitted job (submission order); a finished job
  /// answers from its JobRecord.
  [[nodiscard]] std::vector<JobBrief> jobs_brief() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Keeps the full JobResult of every job a scheduler finishes, the racer
/// detail the scheduler itself drops once on_complete returns. Construct it
/// on the options before they build the scheduler: it wraps
/// options.on_complete (still calling a callback already set there first)
/// and must outlive the scheduler's last job.
class ResultCollector {
 public:
  explicit ResultCollector(SchedulerOptions& options);
  ResultCollector(const ResultCollector&) = delete;
  ResultCollector& operator=(const ResultCollector&) = delete;

  /// Waits for job `id` on `scheduler` and returns its full result.
  [[nodiscard]] JobResult wait(PortfolioScheduler& scheduler, std::size_t id);
  /// Every collected result, indexed by job id; call once all jobs are done.
  [[nodiscard]] std::vector<JobResult> take();

 private:
  std::mutex mu_;
  std::vector<JobResult> results_;
};

/// Convenience: run a whole manifest through a fresh scheduler and return
/// the full results in submission order, kept by a ResultCollector.
[[nodiscard]] std::vector<JobResult> run_batch(const Manifest& manifest,
                                               SchedulerOptions options = {});

/// Appends one jobs[] entry per result (and nothing else) to `report`.
void add_jobs_to_report(obs::RunReport& report,
                        const std::vector<JobResult>& results);

}  // namespace gpo::service
