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
/// genuinely mid-run when the race is decided.
EngineRunner fast_engine(std::vector<petri::TransitionId> cex = {},
                         std::atomic<bool>* gate = nullptr) {
  return [cex, gate](const petri::PetriNet&, const RunLimits&,
                     const util::CancelToken*, obs::MetricsRegistry*) {
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
  return [saw_cancel, started](const petri::PetriNet&, const RunLimits&,
                               const util::CancelToken* cancel,
                               obs::MetricsRegistry*) {
    if (started != nullptr) started->store(true);
    EngineOutcome out;
    auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!util::cancel_requested(cancel) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(200us);
    out.aborted = true;
    out.cancelled = util::cancel_requested(cancel);
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
  PortfolioScheduler scheduler(opts);
  std::size_t id = scheduler.submit(spec_for("fig7", {"slow", "fast"}));
  JobResult r = scheduler.wait(id);

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
  PortfolioScheduler scheduler(opts);
  std::size_t id = scheduler.submit(spec_for("fig7", {"fast", "slow"}));
  JobResult r = scheduler.wait(id);

  EXPECT_EQ(r.winner, "fast");
  ASSERT_EQ(r.engines.size(), 2u);
  // The slow racer was never started: the decided race short-circuits it.
  EXPECT_TRUE(r.engines[1].cancelled);
  EXPECT_EQ(r.engines[1].verdict, "cancelled");
  EXPECT_LT(r.seconds, 5.0);
}

TEST(Scheduler, AllRacersAbortingYieldsUndecided) {
  EngineRegistry reg;
  reg.add("giveup", [](const petri::PetriNet&, const RunLimits&,
                       const util::CancelToken*, obs::MetricsRegistry*) {
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
  JobResult r = scheduler.wait(scheduler.submit(spec));
  EXPECT_EQ(r.verdict, "undecided");
  EXPECT_TRUE(r.winner.empty());
  EXPECT_FALSE(r.expect_matched);
  EXPECT_DOUBLE_EQ(r.cancel_latency_seconds, 0.0);
}

TEST(Scheduler, ThrowingEngineIsAFailedOutcomeNotACrash) {
  EngineRegistry reg;
  reg.add("boom", [](const petri::PetriNet&, const RunLimits&,
                     const util::CancelToken*, obs::MetricsRegistry*)
              -> EngineOutcome {
    throw std::runtime_error("kaboom");
  });
  reg.add("fast", fast_engine());
  SchedulerOptions opts;
  opts.registry = &reg;
  opts.pool_threads = 2;
  PortfolioScheduler scheduler(opts);
  // Alone, the throwing engine yields a failed outcome and an undecided job.
  JobResult solo = scheduler.wait(scheduler.submit(spec_for("fig7", {"boom"})));
  EXPECT_EQ(solo.verdict, "undecided");
  ASSERT_EQ(solo.engines.size(), 1u);
  EXPECT_EQ(solo.engines[0].verdict, "failed");
  EXPECT_EQ(solo.engines[0].error, "kaboom");
  // Raced, the crash cannot take the job down with it: the healthy racer
  // still decides. (Whether boom ran or was skipped depends on timing, so
  // only the job-level outcome is asserted.)
  JobResult r =
      scheduler.wait(scheduler.submit(spec_for("fig7", {"boom", "fast"})));
  EXPECT_EQ(r.verdict, "no-deadlock");
  EXPECT_EQ(r.winner, "fast");
}

TEST(Scheduler, BadModelAndUnknownEngineAreErrorJobsNotThrows) {
  PortfolioScheduler scheduler{SchedulerOptions{}};
  std::size_t bad_model = scheduler.submit(spec_for("nosuch:3"));
  std::size_t bad_engine = scheduler.submit(spec_for("fig7", {"smt"}));
  JobResult m = scheduler.wait(bad_model);
  EXPECT_EQ(m.verdict, "error");
  EXPECT_NE(m.error.find("nosuch:3"), std::string::npos) << m.error;
  JobResult e = scheduler.wait(bad_engine);
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

TEST(Scheduler, PerJobMetricsAreIsolated) {
  SchedulerOptions opts;
  opts.pool_threads = 2;
  PortfolioScheduler scheduler(std::move(opts));
  std::size_t a = scheduler.submit(spec_for("fig7", {"por"}));
  std::size_t b = scheduler.submit(spec_for("rw:3", {"por"}));
  JobResult ra = scheduler.wait(a);
  JobResult rb = scheduler.wait(b);
  ASSERT_NE(ra.metrics, nullptr);
  ASSERT_NE(rb.metrics, nullptr);
  EXPECT_NE(ra.metrics.get(), rb.metrics.get());
  // Each registry only saw its own job's run.
  EXPECT_FALSE(ra.metrics->snapshot("engine.por.").empty());
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
      EngineOutcome solo = (*reg.find(name))(*net, RunLimits{}, nullptr,
                                             nullptr);
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
