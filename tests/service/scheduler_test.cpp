// Scheduler semantics: first-to-answer cancellation (a deliberately slow
// racer must lose, observe the fired token, and be reported cancelled with a
// latency), verdict/counterexample propagation from the winner, error
// isolation, and the determinism cross-check — batch verdicts equal
// single-engine CLI verdicts for every manifest entry.
#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "models/models.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "service/manifest.hpp"
#include "service/portfolio.hpp"

namespace gpo::service {
namespace {

using namespace std::chrono_literals;

/// Conclusive no-deadlock; optionally holds its answer until `gate` turns
/// true (with a 10s safety valve), so tests can force the loser to be
/// genuinely mid-run when the race is decided, or hold a worker. Sets
/// `started` on entry.
EngineRunner fast_engine(std::vector<petri::TransitionId> cex = {},
                         std::atomic<bool>* gate = nullptr,
                         std::atomic<bool>* started = nullptr) {
  return [cex, gate, started](const petri::PetriNet&,
                              const engine::EngineRequest&) {
    if (started != nullptr) started->store(true);
    auto deadline = std::chrono::steady_clock::now() + 10s;
    while (gate != nullptr && !gate->load() &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(200us);
    EngineOutcome out;
    out.verdict = "no-deadlock";
    out.conclusive = true;
    out.counterexample = cex;
    return out;
  };
}

/// Spins until the job token fires (or a 10s safety valve), then reports
/// itself cancelled — the shape every real engine's main loop implements.
/// Sets `started` on loop entry so a gated fast engine can wait for it.
EngineRunner slow_engine(std::atomic<bool>* saw_cancel = nullptr,
                         std::atomic<bool>* started = nullptr) {
  return [saw_cancel, started](const petri::PetriNet&, const engine::EngineRequest& req) {
    if (started != nullptr) started->store(true);
    EngineOutcome out;
    auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!util::cancel_requested(req.cancel) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(200us);
    out.aborted = true;
    out.cancelled = util::cancel_requested(req.cancel);
    out.verdict = out.cancelled ? "cancelled" : "aborted";
    if (saw_cancel != nullptr && out.cancelled) saw_cancel->store(true);
    return out;
  };
}

JobSpec spec_for(const std::string& model,
                 std::vector<std::string> engines = {}) {
  JobSpec spec;
  spec.model = model;
  spec.engines = std::move(engines);
  return spec;
}

TEST(Scheduler, SlowEngineLosesTheRaceAndIsCancelled) {
  std::atomic<bool> saw_cancel{false};
  std::atomic<bool> slow_running{false};
  EngineRegistry reg;
  // The fast racer answers only once the slow one is verifiably inside its
  // cancel-poll loop, so the token genuinely interrupts a running engine.
  reg.add("fast", fast_engine({1, 2}, &slow_running));
  reg.add("slow", slow_engine(&saw_cancel, &slow_running));

  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 2;  // both racers genuinely run concurrently
  ResultCollector full(opts);
  PortfolioScheduler scheduler(opts);
  std::size_t id = scheduler.submit(spec_for("fig7", {"slow", "fast"}));
  JobResult r = full.wait(scheduler, id);

  EXPECT_EQ(r.verdict, "no-deadlock");
  EXPECT_EQ(r.winner, "fast");
  EXPECT_TRUE(saw_cancel.load()) << "the loser never observed the token";
  ASSERT_EQ(r.engines.size(), 2u);
  // Outcomes stay in the job's engine-list order regardless of finish order.
  EXPECT_EQ(r.engines[0].engine, "slow");
  EXPECT_EQ(r.engines[1].engine, "fast");
  EXPECT_TRUE(r.engines[0].cancelled);
  EXPECT_EQ(r.engines[0].verdict, "cancelled");
  EXPECT_FALSE(r.engines[1].cancelled);
  EXPECT_GT(r.cancel_latency_seconds, 0.0);
  EXPECT_LT(r.cancel_latency_seconds, 5.0) << "token poll took implausibly long";
  // The winner's counterexample becomes the job's.
  ASSERT_EQ(r.counterexample.size(), 2u);
  EXPECT_EQ(r.counterexample[0], 1u);
}

TEST(Scheduler, SingleThreadPoolSkipsRacersAfterTheDecision) {
  EngineRegistry reg;
  reg.add("fast", fast_engine());
  reg.add("slow", slow_engine());

  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 1;  // racers run one after another
  ResultCollector full(opts);
  PortfolioScheduler scheduler(opts);
  std::size_t id = scheduler.submit(spec_for("fig7", {"fast", "slow"}));
  JobResult r = full.wait(scheduler, id);

  EXPECT_EQ(r.winner, "fast");
  ASSERT_EQ(r.engines.size(), 2u);
  // The slow racer was never started: the decided race short-circuits it.
  EXPECT_TRUE(r.engines[1].cancelled);
  EXPECT_EQ(r.engines[1].verdict, "cancelled");
  EXPECT_LT(r.seconds, 5.0);
}

TEST(Scheduler, AllRacersAbortingYieldsUndecided) {
  EngineRegistry reg;
  reg.add("giveup", [](const petri::PetriNet&, const engine::EngineRequest&) {
    EngineOutcome out;
    out.aborted = true;
    return out;  // verdict "aborted", not conclusive
  });
  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 2;
  PortfolioScheduler scheduler(opts);
  JobSpec spec = spec_for("fig7", {"giveup"});
  spec.expect = "deadlock";
  JobRecord r = scheduler.wait(scheduler.submit(spec));
  EXPECT_EQ(r.verdict, "undecided");
  EXPECT_TRUE(r.winner.empty());
  EXPECT_FALSE(r.expect_matched);
  EXPECT_DOUBLE_EQ(r.cancel_latency_seconds, 0.0);
}

TEST(Scheduler, ThrowingEngineIsAFailedOutcomeNotACrash) {
  EngineRegistry reg;
  reg.add("boom", [](const petri::PetriNet&, const engine::EngineRequest&)
              -> EngineOutcome {
    throw std::runtime_error("kaboom");
  });
  reg.add("fast", fast_engine());
  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 2;
  ResultCollector full(opts);
  PortfolioScheduler scheduler(opts);
  // Alone, the throwing engine yields a failed outcome and an undecided job.
  JobResult solo =
      full.wait(scheduler, scheduler.submit(spec_for("fig7", {"boom"})));
  EXPECT_EQ(solo.verdict, "undecided");
  ASSERT_EQ(solo.engines.size(), 1u);
  EXPECT_EQ(solo.engines[0].verdict, "failed");
  EXPECT_EQ(solo.engines[0].error, "kaboom");
  // Raced, the crash cannot take the job down with it: the healthy racer
  // still decides. (Whether boom ran or was skipped depends on timing, so
  // only the job-level outcome is asserted.)
  JobRecord r =
      scheduler.wait(scheduler.submit(spec_for("fig7", {"boom", "fast"})));
  EXPECT_EQ(r.verdict, "no-deadlock");
  EXPECT_EQ(r.winner, "fast");
}

TEST(Scheduler, BadModelAndUnknownEngineAreErrorJobsNotThrows) {
  PortfolioScheduler scheduler{SchedulerOptions{}};
  std::size_t bad_model = scheduler.submit(spec_for("nosuch:3"));
  std::size_t bad_engine = scheduler.submit(spec_for("fig7", {"smt"}));
  JobRecord m = scheduler.wait(bad_model);
  EXPECT_EQ(m.verdict, "error");
  EXPECT_NE(m.error.find("nosuch:3"), std::string::npos) << m.error;
  JobRecord e = scheduler.wait(bad_engine);
  EXPECT_EQ(e.verdict, "error");
  EXPECT_NE(e.error.find("smt"), std::string::npos) << e.error;
}

TEST(Scheduler, OnCompleteFiresOncePerJob) {
  std::atomic<int> completions{0};
  SchedulerOptions opts;
  EngineRegistry reg;
  reg.add("fast", fast_engine());
  opts.registry = &reg;
  opts.pool_threads = 2;
  opts.on_complete = [&](const JobResult&) { completions.fetch_add(1); };
  {
    PortfolioScheduler scheduler(std::move(opts));
    scheduler.submit(spec_for("fig7", {"fast"}));
    scheduler.submit(spec_for("nosuch:1"));  // error jobs also complete
    scheduler.wait_all();
  }
  EXPECT_EQ(completions.load(), 2);
}

/// A finished job keeps only its record. The registry that on_complete
/// received (and with it the net, the racer outcomes and the job's lock) is
/// gone once wait_all() returns, while wait() and jobs_brief() still answer
/// for every job: the pattern of a client that reads each verdict after
/// draining the scheduler.
TEST(Scheduler, FinishedJobKeepsOnlyItsRecord) {
  std::mutex mu;
  std::vector<std::weak_ptr<obs::MetricsRegistry>> registries;
  SchedulerOptions opts;
  opts.pool_threads = 2;
  opts.on_complete = [&](const JobResult& r) {
    EXPECT_NE(r.metrics, nullptr) << r.model;
    std::lock_guard<std::mutex> lock(mu);
    registries.push_back(r.metrics);
  };
  PortfolioScheduler scheduler(std::move(opts));
  JobSpec reduced = spec_for("nsdp:3", {"por"});
  reduced.reduce = "safe";
  const std::vector<JobSpec> specs = {
      spec_for("fig7", {"por", "bdd"}), spec_for("rw:3", {"por"}),
      spec_for("nsdp:3"), spec_for("nosuch:1"), reduced};
  const std::vector<std::string> verdicts = {"deadlock", "no-deadlock",
                                             "deadlock", "error", "deadlock"};
  for (const JobSpec& spec : specs) (void)scheduler.submit(spec);
  scheduler.wait_all();

  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(registries.size(), specs.size());
    for (const auto& weak : registries)
      EXPECT_TRUE(weak.expired()) << "a finished job kept its registry";
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JobRecord r = scheduler.wait(i);
    EXPECT_EQ(r.id, i);
    EXPECT_EQ(r.model, specs[i].model);
    EXPECT_EQ(r.verdict, verdicts[i]) << r.model;
    if (verdicts[i] == "error")
      EXPECT_NE(r.error.find("nosuch:1"), std::string::npos) << r.error;
    else
      EXPECT_TRUE(r.error.empty()) << r.model << ": " << r.error;
  }
  auto briefs = scheduler.jobs_brief();
  ASSERT_EQ(briefs.size(), specs.size());
  for (std::size_t i = 0; i < briefs.size(); ++i) {
    EXPECT_EQ(briefs[i].id, i);
    EXPECT_EQ(briefs[i].model, specs[i].model);
    EXPECT_EQ(briefs[i].state, "done");
    EXPECT_EQ(briefs[i].verdict, verdicts[i]);
  }
  EXPECT_EQ(scheduler.completed(), specs.size());
}

TEST(Scheduler, PerJobMetricsAreIsolated) {
  SchedulerOptions opts;
  opts.pool_threads = 2;
  ResultCollector full(opts);
  PortfolioScheduler scheduler(std::move(opts));
  std::size_t a = scheduler.submit(spec_for("fig7", {"por"}));
  std::size_t b = scheduler.submit(spec_for("rw:3", {"por"}));
  JobResult ra = full.wait(scheduler, a);
  JobResult rb = full.wait(scheduler, b);
  ASSERT_NE(ra.metrics, nullptr);
  ASSERT_NE(rb.metrics, nullptr);
  EXPECT_NE(ra.metrics.get(), rb.metrics.get());
  // Each registry only saw its own job's run.
  EXPECT_FALSE(ra.metrics->snapshot("engine.por.").empty());
}

TEST(Scheduler, GpoRacersRunTheDefaultStoreUnlessTheJobNamesOne) {
  SchedulerOptions opts;
  opts.pool_threads = 1;
  ResultCollector full(opts);
  PortfolioScheduler scheduler(std::move(opts));
  JobSpec named = spec_for("nsdp:3", {"gpo-intern"});
  named.family_store = "explicit";
  JobResult plain =
      full.wait(scheduler, scheduler.submit(spec_for("nsdp:3", {"gpo"})));
  JobResult expl = full.wait(scheduler, scheduler.submit(named));
  EXPECT_EQ(plain.verdict, "deadlock");
  EXPECT_EQ(expl.verdict, "deadlock");
  EXPECT_FALSE(plain.metrics->snapshot("engine.gpo.zdd.").empty());
  EXPECT_TRUE(expl.metrics->snapshot("engine.gpo-intern.zdd.").empty());
  EXPECT_FALSE(
      expl.metrics->snapshot("engine.gpo-intern.family_distinct").empty());
}

/// The scheduler's own telemetry scope and live-introspection surface: the
/// latency histograms count every job, a mid-run cancellation lands in
/// cancel_latency_seconds, and queue_depth/jobs_brief/completed agree with
/// reality once the batch drains.
TEST(Scheduler, ServiceMetricsHistogramsAndIntrospection) {
  std::atomic<bool> slow_running{false};
  EngineRegistry reg;
  reg.add("fast", fast_engine({}, &slow_running));
  reg.add("slow", slow_engine(nullptr, &slow_running));

  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 2;
  PortfolioScheduler scheduler(std::move(opts));
  EXPECT_GE(scheduler.uptime_seconds(), 0.0);

  // Job 0 forces a genuine mid-run cancellation (the gated-fast pattern);
  // job 1 is a plain single-racer win.
  std::size_t a = scheduler.submit(spec_for("fig7", {"slow", "fast"}));
  std::size_t b = scheduler.submit(spec_for("fig7", {"fast"}));
  (void)scheduler.wait(a);
  (void)scheduler.wait(b);

  obs::MetricsRegistry& sm = scheduler.service_metrics();
  EXPECT_EQ(sm.counter("service.jobs.submitted").value(), 2u);
  EXPECT_EQ(sm.counter("service.jobs.completed").value(), 2u);
  EXPECT_DOUBLE_EQ(sm.gauge("service.jobs.in_flight").value(), 0.0);
  EXPECT_DOUBLE_EQ(sm.gauge("service.queue.depth").value(), 0.0);

  // One histogram sample per job; every queue wait was measured; the
  // cancelled racer contributed exactly one cancel-latency sample.
  EXPECT_EQ(sm.histogram("service.job_seconds").count(), 2u);
  EXPECT_GE(sm.histogram("service.queue_wait_seconds").count(), 2u);
  EXPECT_EQ(sm.histogram("service.cancel_latency_seconds").count(), 1u);
  auto cancel = sm.histogram("service.cancel_latency_seconds").snapshot();
  EXPECT_GT(cancel.max, 0u);
  // Lazily-registered per-engine slots: the fast engine won both jobs.
  EXPECT_EQ(sm.counter("service.engine.fast.wins").value(), 2u);
  EXPECT_EQ(sm.counter("service.engine.slow.cancelled").value(), 1u);
  EXPECT_EQ(sm.histogram("service.engine.fast.seconds").count(), 2u);

  EXPECT_EQ(scheduler.queue_depth(), 0u);
  EXPECT_EQ(scheduler.completed(), 2u);
  auto briefs = scheduler.jobs_brief();
  ASSERT_EQ(briefs.size(), 2u);
  for (const auto& brief : briefs) {
    EXPECT_EQ(brief.state, "done");
    EXPECT_EQ(brief.verdict, "no-deadlock");
    EXPECT_EQ(brief.winner, "fast");
    EXPECT_GE(brief.seconds, 0.0);
  }
  EXPECT_EQ(briefs[0].id, 0u);
  EXPECT_EQ(briefs[1].id, 1u);
}

/// The scheduler feeds the structured event log the full job lifecycle, in
/// causal order per job.
TEST(Scheduler, EventLogReceivesJobLifecycle) {
  std::ostringstream sink;
  {
    obs::EventLog events(sink);
    std::atomic<bool> slow_running{false};
    EngineRegistry reg;
    reg.add("fast", fast_engine({}, &slow_running));
    reg.add("slow", slow_engine(nullptr, &slow_running));
    SchedulerOptions opts;
    opts.registry = &reg;
    opts.pool_threads = 2;
    opts.events = &events;
    PortfolioScheduler scheduler(std::move(opts));
    (void)scheduler.wait(scheduler.submit(spec_for("fig7", {"slow", "fast"})));
    events.close();
  }
  std::vector<std::string> order;
  std::istringstream lines(sink.str());
  std::string line;
  std::int64_t last_ts = -1;
  while (std::getline(lines, line)) {
    obs::json::Value rec = obs::json::Value::parse(line);
    order.push_back(rec.find("event")->as_string());
    EXPECT_EQ(rec.find("job")->as_int(), 0);
    const std::int64_t ts = rec.find("ts_us")->as_int();
    EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing";
    last_ts = ts;
  }
  // Assert only the orderings the scheduler guarantees: "submitted" leads,
  // "finished" (the last completer) trails, and the first answer cannot
  // precede the job starting. The winner logs "first-answer" in the same
  // critical section that fires the cancel token, so the loser's
  // "cancelled" follows it.
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), "submitted");
  EXPECT_EQ(order.back(), "finished");
  auto index_of = [&](const std::string& e) {
    return std::find(order.begin(), order.end(), e) - order.begin();
  };
  EXPECT_EQ(std::count(order.begin(), order.end(), "racer-start"), 2);
  EXPECT_EQ(std::count(order.begin(), order.end(), "cancelled"), 1);
  EXPECT_EQ(std::count(order.begin(), order.end(), "first-answer"), 1);
  EXPECT_LT(index_of("started"), index_of("first-answer"));
  EXPECT_LT(index_of("first-answer"), index_of("cancelled"));
}

using Stamp = std::pair<std::string, std::chrono::steady_clock::time_point>;

/// Inconclusive racer that appends its name and start time to `log`.
EngineRunner logging_engine(std::string name, std::mutex& mu,
                            std::vector<Stamp>& log) {
  return [name, &mu, &log](const petri::PetriNet&,
                           const engine::EngineRequest&) {
    {
      std::lock_guard<std::mutex> lock(mu);
      log.emplace_back(name, std::chrono::steady_clock::now());
    }
    EngineOutcome out;
    out.aborted = true;
    return out;
  };
}

bool wait_until(const std::function<bool()>& done,
                std::chrono::steady_clock::duration limit = 10s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(200us);
  return done();
}

/// Rank priority: on one worker, every queued job's first racer runs before
/// any job's second that is not due yet. A second is due kLaterRacerDelay
/// after its job's first racer started, which is after the release below;
/// so a second that runs ahead of a first starts no earlier than that delay
/// after the release. A host that runs the five first racers within the
/// delay logs five firsts, then five seconds.
TEST(Scheduler, FirstRacersOfAllQueuedJobsStartBeforeAnySecond) {
  std::mutex mu;
  std::vector<Stamp> log;
  std::atomic<bool> release{false};
  std::atomic<bool> latched{false};
  EngineRegistry reg;
  reg.add("latch", fast_engine({}, &release, &latched));
  reg.add("first", logging_engine("first", mu, log));
  reg.add("second", logging_engine("second", mu, log));
  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 1;
  PortfolioScheduler scheduler(std::move(opts));
  // Hold the only worker so that every job below is queued before any runs.
  (void)scheduler.submit(spec_for("fig7", {"latch"}));
  ASSERT_TRUE(wait_until([&] { return latched.load(); }));
  constexpr int kJobs = 5;
  for (int j = 0; j < kJobs; ++j)
    (void)scheduler.submit(spec_for("fig7", {"first", "second"}));
  EXPECT_EQ(scheduler.queue_depth(), 2u * kJobs);
  const auto released = std::chrono::steady_clock::now();
  release.store(true);
  scheduler.wait_all();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(log.size(), 2u * kJobs);
  std::size_t last_first = 0;
  for (std::size_t i = 0; i < log.size(); ++i)
    if (log[i].first == "first") last_first = i;
  for (std::size_t i = 0; i < last_first; ++i) {
    if (log[i].first == "second") {
      EXPECT_GE(log[i].second - released, kLaterRacerDelay)
          << "a second racer ran ahead of a queued first before it was due";
    }
  }
  EXPECT_EQ(std::count_if(log.begin(), log.end(),
                          [](const Stamp& e) { return e.first == "first"; }),
            kJobs);
  EXPECT_EQ(log.front().first, "first");
  EXPECT_EQ(scheduler.queue_depth(), 0u);
}

/// Promotion: a job whose first racer does not return gets its second racer
/// once that is due, while a backlog of other jobs' first racers is still
/// queued. Strict rank priority would start it only after the backlog.
TEST(Scheduler, LaterRacerOfAStuckJobStartsDespiteABacklog) {
  constexpr int kBacklog = 100;
  std::atomic<bool> release{false};
  std::atomic<bool> latched{false};
  std::atomic<bool> stuck_running{false};
  std::atomic<int> backlog_done{0};
  std::atomic<int> backlog_done_at_decision{-1};
  EngineRegistry reg;
  reg.add("latch", fast_engine({}, &release, &latched));
  reg.add("stuck", slow_engine(nullptr, &stuck_running));
  reg.add("fast", fast_engine());
  // Inconclusive, 2 ms each: the backlog keeps one worker busy for 200 ms.
  reg.add("busy", [](const petri::PetriNet&, const engine::EngineRequest&) {
    std::this_thread::sleep_for(2ms);
    EngineOutcome out;
    out.aborted = true;
    return out;
  });
  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 2;
  std::atomic<std::size_t> stuck_id{0};
  opts.on_complete = [&](const JobResult& r) {
    if (r.model == "nsdp:3") backlog_done.fetch_add(1);
    if (r.id == stuck_id) backlog_done_at_decision.store(backlog_done.load());
  };
  PortfolioScheduler scheduler(std::move(opts));
  // One worker holds a latch while the stuck job's first racer takes the
  // other, so the backlog is queued before any worker is free.
  (void)scheduler.submit(spec_for("fig7", {"latch"}));
  ASSERT_TRUE(wait_until([&] { return latched.load(); }));
  stuck_id.store(scheduler.submit(spec_for("fig7", {"stuck", "fast"})));
  ASSERT_TRUE(wait_until([&] { return stuck_running.load(); }));
  for (int j = 0; j < kBacklog; ++j)
    (void)scheduler.submit(spec_for("nsdp:3", {"busy"}));
  release.store(true);
  JobRecord r = scheduler.wait(stuck_id.load());
  scheduler.wait_all();

  EXPECT_EQ(r.winner, "fast");
  EXPECT_GE(backlog_done_at_decision.load(), 0);
  EXPECT_LT(backlog_done_at_decision.load(), kBacklog / 2)
      << "the stuck job's second racer waited for the backlog";
}

/// On an idle pool a later racer still waits until it is due, so a first
/// racer that decides its job at once leaves the others unrun.
TEST(Scheduler, IdleWorkersLeaveALaterRacerUntilItIsDue) {
  std::mutex mu;
  std::vector<Stamp> log;
  EngineRegistry reg;
  reg.add("fast", fast_engine());
  reg.add("later", logging_engine("later", mu, log));
  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 2;
  ResultCollector full(opts);
  PortfolioScheduler scheduler(opts);
  const auto submitted = std::chrono::steady_clock::now();
  const std::size_t id = scheduler.submit(spec_for("fig7", {"fast", "later"}));
  JobResult r = full.wait(scheduler, id);
  scheduler.wait_all();

  EXPECT_EQ(r.winner, "fast");
  std::lock_guard<std::mutex> lock(mu);
  // It ran only if the first racer took longer than the delay to decide.
  for (const Stamp& e : log)
    EXPECT_GE(e.second - submitted, kLaterRacerDelay)
        << "an idle worker started a later racer before it was due";
  if (log.empty()) {
    ASSERT_EQ(r.engines.size(), 2u);
    EXPECT_EQ(r.engines[1].verdict, "cancelled");
  }
}

/// Settle at decision: a job whose winner returned completes at once, while
/// its queued racer has not run and another job's latched racer still
/// holds a worker. Both workers are busy with latched racers by then, so a
/// job that waited for its queued losers would not complete at all.
TEST(Scheduler, DecidedJobCompletesWithoutWaitingForQueuedRacers) {
  std::atomic<bool> release{false};
  std::atomic<bool> latched{false};
  std::atomic<bool> never_ran{false};
  std::atomic<bool> a_done{false};
  std::atomic<bool> all_submitted{false};
  EngineRegistry reg;
  reg.add("latch", fast_engine({}, &release, &latched));
  // Answers only once every job is queued, so job 1's loser (queued when
  // this racer started, due kLaterRacerDelay later) and job 2's latched
  // racer wait for the worker that runs it.
  reg.add("fast", fast_engine({}, &all_submitted));
  reg.add("never", [&](const petri::PetriNet&, const engine::EngineRequest&) {
    never_ran.store(true);
    return EngineOutcome{};
  });
  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 2;
  ResultCollector full(opts);
  opts.on_complete = [&, forward = std::move(opts.on_complete)](
                         const JobResult& r) {
    forward(r);
    if (r.id == 1) {
      EXPECT_FALSE(never_ran.load()) << "a queued loser ran";
      EXPECT_FALSE(release.load()) << "job 0's latched racer has returned";
      a_done.store(true);
    }
  };
  PortfolioScheduler scheduler(std::move(opts));
  (void)scheduler.submit(spec_for("fig7", {"latch"}));
  ASSERT_TRUE(wait_until([&] { return latched.load(); }));
  const std::size_t a = scheduler.submit(spec_for("fig7", {"fast", "never"}));
  (void)scheduler.submit(spec_for("fig7", {"latch"}));
  all_submitted.store(true);
  // Well inside the latches' 10s safety valve, which would free a worker.
  EXPECT_TRUE(wait_until([&] { return a_done.load(); }, 5s))
      << "the decided job waited for its queued racer";
  // Job 2's latched racer starts once the worker is free; the skipped
  // racer must not count as waiting.
  EXPECT_TRUE(wait_until([&] { return scheduler.queue_depth() == 0; }, 5s))
      << "the skipped racer still counts";
  release.store(true);
  JobResult r = full.wait(scheduler, a);
  scheduler.wait_all();

  EXPECT_EQ(r.winner, "fast");
  ASSERT_EQ(r.engines.size(), 2u);
  EXPECT_EQ(r.engines[1].engine, "never");
  EXPECT_EQ(r.engines[1].verdict, "cancelled");
  EXPECT_TRUE(r.engines[1].cancelled);
  EXPECT_DOUBLE_EQ(r.cancel_latency_seconds, 0.0);
  EXPECT_FALSE(never_ran.load()) << "a skipped racer ran after all";
}

/// The net loads once per job, on its first racer: every racer gets the
/// same net object, reduced or not.
TEST(Scheduler, AllRacersOfAJobShareOneNet) {
  constexpr int kRacers = 4;
  std::mutex mu;
  std::vector<const petri::PetriNet*> seen;
  std::atomic<int> arrived{0};
  EngineRegistry reg;
  // Each racer waits for all of them, so they all run at once.
  reg.add("see", [&](const petri::PetriNet& net,
                     const engine::EngineRequest&) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(&net);
    }
    arrived.fetch_add(1);
    (void)wait_until([&] { return arrived.load() % kRacers == 0; });
    EngineOutcome out;
    out.aborted = true;
    return out;
  });
  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = kRacers;
  PortfolioScheduler scheduler(std::move(opts));
  for (const char* level : {"off", "safe"}) {
    JobSpec spec = spec_for("nsdp:3", std::vector<std::string>(kRacers, "see"));
    spec.reduce = level;
    JobRecord r = scheduler.wait(scheduler.submit(spec));
    EXPECT_EQ(r.verdict, "undecided") << level;
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kRacers)) << level;
    for (const petri::PetriNet* net : seen) EXPECT_EQ(net, seen[0]) << level;
    seen.clear();
  }
}

/// The determinism cross-check of the acceptance criteria: for every
/// manifest entry, the batch portfolio verdict equals the verdict of each
/// single-engine run on the same model (racing changes who answers first,
/// never what the answer is).
TEST(Scheduler, BatchVerdictsMatchSingleEngineRuns) {
  const char* manifest_text =
      "fig3 expect=deadlock\n"
      "fig5 expect=deadlock\n"
      "fig7 expect=deadlock\n"
      "nsdp:3 expect=deadlock\n"
      "chain:4 expect=deadlock\n"
      "diamond:3 expect=deadlock\n"
      "over:2 expect=deadlock\n"
      "rw:3 expect=no-deadlock\n"
      "asat:2 expect=no-deadlock\n";
  std::istringstream in(manifest_text);
  Manifest manifest = parse_manifest(in);

  SchedulerOptions opts;
  opts.pool_threads = 4;
  std::vector<JobResult> results = run_batch(manifest, std::move(opts));
  ASSERT_EQ(results.size(), manifest.jobs.size());

  const EngineRegistry& reg = default_engine_registry();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    EXPECT_EQ(r.verdict, manifest.jobs[i].expect) << r.model;
    EXPECT_TRUE(r.expect_matched) << r.model;
    EXPECT_FALSE(r.winner.empty()) << r.model;
    // Cross-check against every default-portfolio engine run standalone.
    for (const std::string& name : default_portfolio()) {
      auto net = models::make_by_spec(r.model);
      ASSERT_TRUE(net.has_value()) << r.model;
      EngineOutcome solo = (*reg.find(name))(*net, {});
      EXPECT_TRUE(solo.conclusive) << name << " on " << r.model;
      EXPECT_EQ(solo.verdict, r.verdict) << name << " on " << r.model;
    }
  }
}

TEST(Scheduler, BatchReportValidatesAgainstTheCheckedInSchema) {
  std::istringstream in("fig7 expect=deadlock\nrw:3 engines=por,bdd\n");
  Manifest manifest = parse_manifest(in);
  SchedulerOptions opts;
  opts.pool_threads = 2;
  std::vector<JobResult> results = run_batch(manifest, std::move(opts));

  obs::RunReport report("julie batch");
  report.set_command("julie batch jobs.manifest");
  add_jobs_to_report(report, results);
  obs::json::Value doc = report.build(nullptr, nullptr);

  std::ifstream schema_in(std::string(GPO_REPO_ROOT) +
                          "/bench/report_schema.json");
  ASSERT_TRUE(schema_in.is_open());
  std::ostringstream ss;
  ss << schema_in.rdbuf();
  obs::json::Value schema = obs::json::Value::parse(ss.str());
  std::string error;
  EXPECT_TRUE(obs::json::validate(schema, doc, &error)) << error;

  const obs::json::Value* jobs = doc.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->items().size(), 2u);
  const obs::json::Value& job0 = jobs->items()[0];
  EXPECT_EQ(job0.find("verdict")->as_string(), "deadlock");
  EXPECT_NE(job0.find("winner"), nullptr);
  EXPECT_NE(job0.find("cancel_latency_seconds"), nullptr);
  EXPECT_EQ(job0.find("expect")->as_string(), "deadlock");
  // Per-engine entries keep their own timing and cancellation flags.
  const obs::json::Value& engines = *job0.find("engines");
  ASSERT_GE(engines.items().size(), 1u);
  for (const auto& er : engines.items()) {
    EXPECT_NE(er.find("seconds"), nullptr);
    EXPECT_NE(er.find("cancelled"), nullptr);
  }
}

}  // namespace
}  // namespace gpo::service
