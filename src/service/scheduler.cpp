#include "service/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "models/models.hpp"
#include "obs/event_log.hpp"
#include "parser/net_format.hpp"
#include "parser/pnml.hpp"
#include "reduce/reduce.hpp"
#include "util/work_stealing.hpp"

namespace gpo::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool ends_with(const std::string& s, const char* suffix) {
  std::string_view sv(suffix);
  return s.size() >= sv.size() &&
         s.compare(s.size() - sv.size(), sv.size(), sv) == 0;
}

/// Loads a job's net: net-file path (by extension) or built-in model spec.
petri::PetriNet load_net(const std::string& model) {
  if (ends_with(model, ".pnml")) return parser::parse_pnml_file(model);
  if (ends_with(model, ".net")) return parser::parse_net_file(model);
  auto m = models::make_by_spec(model);
  if (!m) throw ManifestError("unknown model '" + model + "'");
  return std::move(*m);
}

/// The global pool: W workers over the shared work-stealing deques (the
/// same structure the parallel explorer uses for its frontier). Tasks are
/// whole racer runs — coarse, long-blocking items — so the boring
/// mutex-per-deque queues are far from contended.
class Pool {
 public:
  /// `depth` (optional) is kept equal to the number of submitted-but-not-
  /// yet-started tasks — the live queue-depth gauge.
  explicit Pool(std::size_t workers, obs::Gauge* depth = nullptr)
      : queues_(workers), depth_(depth) {
    threads_.reserve(queues_.worker_count());
    for (std::size_t i = 0; i < queues_.worker_count(); ++i)
      threads_.emplace_back([this, i] { worker(i); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  [[nodiscard]] std::size_t workers() const { return queues_.worker_count(); }

  void submit(std::function<void()> task) {
    std::size_t depth = queued_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (depth_ != nullptr) depth_->set(static_cast<double>(depth));
    queues_.push(next_.fetch_add(1, std::memory_order_relaxed) % workers(),
                 std::move(task));
    // Pairing the notify with the queue's own mutex would require exposing
    // it; instead sleepers use a bounded wait, so a lost notify costs at
    // most one wait quantum, never a hang.
    cv_.notify_one();
  }

  /// Tasks submitted but not yet picked up by a worker.
  [[nodiscard]] std::size_t queued() const {
    return queued_.load(std::memory_order_relaxed);
  }

 private:
  // Workers take the OLDEST item (the deques' steal end) from their own
  // queue first, then probe the others round-robin. FIFO matters here,
  // unlike in the engines' frontier use of the same deques: racers must
  // start in submission order, or a narrow pool can run a job's slowest
  // racer before the racer that would have decided the race and cancelled
  // it.
  void worker(std::size_t me) {
    std::function<void()> task;
    while (true) {
      bool got = false;
      for (std::size_t k = 0; k < queues_.worker_count() && !got; ++k)
        got = queues_.steal((me + k) % queues_.worker_count(), task);
      if (got) {
        std::size_t depth =
            queued_.fetch_sub(1, std::memory_order_relaxed) - 1;
        if (depth_ != nullptr) depth_->set(static_cast<double>(depth));
        task();
        task = nullptr;
        continue;
      }
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_) return;
      cv_.wait_for(lock, std::chrono::milliseconds(20));
    }
  }

  util::WorkStealingQueues<std::function<void()>> queues_;
  obs::Gauge* depth_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> next_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

struct PortfolioScheduler::Impl {
  struct JobState {
    JobSpec spec;
    std::vector<std::string> engine_names;
    /// The net the racers run on: the loaded net, or (with reduce=) its
    /// reduction. `original` and `certificate` are set only in the latter
    /// case, for mapping the winner's counterexample back.
    std::optional<petri::PetriNet> net;
    std::optional<petri::PetriNet> original;
    std::optional<reduce::ReductionCertificate> certificate;
    util::CancelToken token;
    std::shared_ptr<obs::MetricsRegistry> metrics;
    Clock::time_point submitted_at;
    Clock::time_point cancel_at;

    std::mutex mu;
    std::condition_variable cv;
    bool decided = false;  // a winner fired the token
    bool started = false;  // some racer actually began running
    std::size_t remaining = 0;
    bool done = false;
    JobResult result;
  };

  explicit Impl(SchedulerOptions opts)
      : options(std::move(opts)),
        registry(options.registry != nullptr ? *options.registry
                                             : default_engine_registry()),
        jobs_submitted(service_metrics.counter("service.jobs.submitted")),
        jobs_completed(service_metrics.counter("service.jobs.completed")),
        jobs_in_flight(service_metrics.gauge("service.jobs.in_flight")),
        queue_depth_gauge(service_metrics.gauge("service.queue.depth")),
        job_hist(service_metrics.histogram("service.job_seconds")),
        cancel_hist(
            service_metrics.histogram("service.cancel_latency_seconds")),
        queue_wait_hist(
            service_metrics.histogram("service.queue_wait_seconds")),
        started_at(Clock::now()),
        pool(options.pool_threads != 0
                 ? options.pool_threads
                 : std::max<std::size_t>(
                       1, std::thread::hardware_concurrency()),
             &queue_depth_gauge) {}

  /// Emits one job lifecycle record when an event log is attached.
  void event(std::string_view name, std::size_t job, obs::json::Value extra) {
    if (options.events != nullptr)
      options.events->job_event(name, static_cast<long long>(job),
                                std::move(extra));
  }
  void event(std::string_view name, std::size_t job) {
    event(name, job, obs::json::Value::object());
  }

  /// Bookkeeping shared by the racer and error completion paths: runs after
  /// on_complete returned and before done is published.
  void note_job_completed(double seconds) {
    jobs_completed.add();
    job_hist.record_seconds(seconds);
    std::size_t still =
        in_flight.fetch_sub(1, std::memory_order_relaxed) - 1;
    jobs_in_flight.set(static_cast<double>(still));
    completed_count.fetch_add(1, std::memory_order_relaxed);
  }

  void run_racer(JobState& js, std::size_t index, const std::string& name,
                 const EngineRunner& runner) {
    const std::size_t job_id = js.result.id;
    EngineOutcome out;
    bool skip = false;
    bool first_start = false;
    {
      std::lock_guard<std::mutex> lock(js.mu);
      if (js.decided) {
        // The race was decided before this racer even started (narrow pool,
        // fast winner): report it cancelled without paying for the run.
        out.verdict = "cancelled";
        out.cancelled = true;
        out.aborted = true;
        skip = true;
      } else if (!js.started) {
        js.started = true;
        first_start = true;
      }
    }
    const Clock::time_point start = Clock::now();
    if (!skip) {
      // Queue wait: submission to this racer actually getting a worker.
      // Skipped racers are excluded — they never waited for a run.
      queue_wait_hist.record_seconds(seconds_between(js.submitted_at, start));
      if (first_start) event("started", job_id);
      {
        obs::json::Value ev = obs::json::Value::object();
        ev["engine"] = name;
        event("racer-start", job_id, std::move(ev));
      }
      RunLimits limits;
      limits.max_states = js.spec.max_states;
      limits.max_seconds = js.spec.max_seconds;
      limits.family_store = js.spec.family_store;
      try {
        out = runner(*js.net, limits, &js.token, js.metrics.get());
      } catch (const std::exception& e) {
        out = EngineOutcome{};
        out.verdict = "failed";
        out.aborted = true;
        out.error = e.what();
      }
      if (out.seconds == 0) out.seconds = seconds_between(start, Clock::now());
      service_metrics.histogram("service.engine." + name + ".seconds")
          .record_seconds(out.seconds);
    }
    out.engine = name;

    const Clock::time_point end = Clock::now();
    bool completed = false;
    bool won = false;
    bool was_cancelled = false;
    double cancel_latency = 0;
    JobResult snapshot;
    {
      std::lock_guard<std::mutex> lock(js.mu);
      if (out.conclusive && !js.decided) {
        js.decided = true;
        js.cancel_at = end;
        js.result.winner = name;
        js.result.verdict = out.verdict;
        js.result.counterexample = out.counterexample;
        if (js.certificate.has_value() && !out.counterexample.empty()) {
          // Map the reduced-net trace back and replay it on the original
          // net — the certificate's acceptance oracle. A failure is a
          // reduction bug, not a property of the net: keep the verdict
          // (it transfers by the certificate argument) but flag the job.
          js.result.counterexample =
              js.certificate->map_to_original(out.counterexample);
          std::optional<petri::Marking> final_marking =
              reduce::replay_trace(*js.original, js.result.counterexample);
          if (!final_marking.has_value() ||
              !js.original->is_deadlocked(*final_marking))
            append_error(js.result,
                         name + " counterexample does not replay to a "
                                "deadlock on the original net (reduction "
                                "certificate violation)");
        }
        js.token.cancel();
        won = true;
      } else if (out.conclusive) {
        // A second racer finished conclusively before it saw the cancel.
        // Agreement is the expected (and tested) case; a disagreement is a
        // soundness alarm worth surfacing in the report.
        if (out.verdict != js.result.verdict)
          append_error(js.result,
                       out.engine + " disagrees with winner " +
                           js.result.winner + ": " + out.verdict + " vs " +
                           js.result.verdict);
      } else if (out.cancelled && !skip) {
        // Only racers that actually ran measure the drain, from the later of
        // token-fire and their own start; a skipped racer returning from the
        // queue says nothing about poll latency.
        cancel_latency = seconds_between(std::max(js.cancel_at, start), end);
        js.result.cancel_latency_seconds =
            std::max(js.result.cancel_latency_seconds, cancel_latency);
        was_cancelled = true;
      }
      // Emitted under js.mu and before this racer's decrement: "finished"
      // is emitted by the racer that takes `remaining` to 0, after its own
      // decrement, so it follows every other racer's record in the log.
      if (won) {
        obs::json::Value ev = obs::json::Value::object();
        ev["engine"] = name;
        ev["verdict"] = out.verdict;
        event("first-answer", job_id, std::move(ev));
      }
      if (was_cancelled) {
        obs::json::Value ev = obs::json::Value::object();
        ev["engine"] = name;
        event("cancelled", job_id, std::move(ev));
      }
      js.result.engines[index] = std::move(out);
      if (--js.remaining == 0) {
        finish_locked(js, end);
        completed = true;
        snapshot = js.result;
      }
    }
    if (won)
      service_metrics.counter("service.engine." + name + ".wins").add();
    if (was_cancelled) {
      service_metrics.counter("service.engine." + name + ".cancelled").add();
      // The per-job scalar keeps only the max drain; the histogram sees
      // every cancelled racer's drain, so p99 is a real fleet statistic.
      cancel_hist.record_seconds(cancel_latency);
    }
    // on_complete runs BEFORE done is published: wait()/wait_all() returning
    // guarantees every completion callback has also returned (the server
    // relies on this to print BYE after the last VERDICT).
    if (completed) {
      note_job_completed(snapshot.seconds);
      {
        obs::json::Value ev = obs::json::Value::object();
        ev["verdict"] = snapshot.verdict;
        ev["seconds"] = snapshot.seconds;
        event("finished", job_id, std::move(ev));
      }
      if (options.on_complete) options.on_complete(snapshot);
      // Notify while holding the mutex: a waiter freed to return by done may
      // destroy this JobState, so the broadcast must be ordered before any
      // waiter can re-acquire the lock and leave wait().
      std::lock_guard<std::mutex> lock(js.mu);
      js.done = true;
      js.cv.notify_all();
    }
  }

  static void append_error(JobResult& r, const std::string& msg) {
    if (!r.error.empty()) r.error += "; ";
    r.error += msg;
  }

  /// Called with js.mu held, once the last racer returned. Fills the final
  /// result but does NOT set done — that happens after on_complete ran.
  void finish_locked(JobState& js, Clock::time_point end) {
    js.result.seconds = seconds_between(js.submitted_at, end);
    if (js.result.winner.empty()) js.result.verdict = "undecided";
    js.result.expect_matched = js.spec.expect.empty() ||
                               js.result.verdict == js.spec.expect;
    js.result.metrics = js.metrics;
  }

  JobState* job(std::size_t id) {
    std::lock_guard<std::mutex> lock(jobs_mu);
    return id < jobs.size() ? jobs[id].get() : nullptr;
  }

  SchedulerOptions options;
  const EngineRegistry& registry;
  /// The scheduler's own telemetry scope; declared before the slot
  /// references and the pool (which publishes the queue-depth gauge).
  /// mutable: service_metrics() is conceptually const (snapshot reads), but
  /// slot registration is lazy.
  mutable obs::MetricsRegistry service_metrics;
  obs::Counter& jobs_submitted;
  obs::Counter& jobs_completed;
  obs::Gauge& jobs_in_flight;
  obs::Gauge& queue_depth_gauge;
  obs::Histogram& job_hist;
  obs::Histogram& cancel_hist;
  obs::Histogram& queue_wait_hist;
  std::atomic<std::size_t> in_flight{0};
  std::atomic<std::size_t> completed_count{0};
  Clock::time_point started_at;
  Pool pool;

  std::mutex jobs_mu;
  std::vector<std::unique_ptr<JobState>> jobs;
};

PortfolioScheduler::PortfolioScheduler(SchedulerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

PortfolioScheduler::~PortfolioScheduler() { wait_all(); }

std::size_t PortfolioScheduler::submit(const JobSpec& spec) {
  auto js = std::make_unique<Impl::JobState>();
  Impl::JobState* state = js.get();
  state->spec = spec;
  state->metrics = std::make_shared<obs::MetricsRegistry>();
  state->engine_names =
      spec.engines.empty() ? default_portfolio() : spec.engines;

  std::size_t id;
  {
    std::lock_guard<std::mutex> lock(impl_->jobs_mu);
    id = impl_->jobs.size();
    impl_->jobs.push_back(std::move(js));
  }
  state->result.id = id;
  state->result.model = spec.model;
  state->result.family_store = spec.family_store;
  state->result.expect = spec.expect;

  impl_->jobs_submitted.add();
  impl_->jobs_in_flight.set(static_cast<double>(
      impl_->in_flight.fetch_add(1, std::memory_order_relaxed) + 1));
  {
    obs::json::Value ev = obs::json::Value::object();
    ev["model"] = spec.model;
    impl_->event("submitted", id, std::move(ev));
  }

  // Resolve the portfolio and load the net up front; failures become an
  // immediate "error" result (one bad manifest line must not sink a batch).
  std::vector<const EngineRunner*> runners;
  std::string error;
  for (const std::string& name : state->engine_names) {
    const EngineRunner* r = impl_->registry.find(name);
    if (r == nullptr) {
      error = "no such engine '" + name + "'";
      break;
    }
    runners.push_back(r);
  }
  if (error.empty()) {
    try {
      state->net.emplace(load_net(spec.model));
      // Structural reduction, once per job: every racer sees the same
      // (smaller) net, paying the reduction cost once instead of per racer.
      auto level = reduce::parse_reduce_level(
          spec.reduce.empty() ? "off" : spec.reduce);
      if (level.has_value() && *level != reduce::ReduceLevel::kOff) {
        reduce::ReduceOptions ro;
        ro.level = *level;
        ro.metrics = state->metrics.get();
        reduce::ReductionResult red = reduce::reduce_net(*state->net, ro);
        state->result.reduction = reduce::to_report_run(red.stats);
        state->original = std::move(state->net);
        state->certificate = std::move(red.certificate);
        state->net.emplace(std::move(red.net));
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  if (!error.empty()) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result.verdict = "error";
      state->result.error = error;
      state->result.expect_matched = spec.expect.empty();
      state->result.metrics = state->metrics;
    }
    // Completion is delivered from the pool, not inline, so a caller that
    // acks the submission (the server's JOB line) gets to do so before the
    // on_complete notification fires.
    impl_->pool.submit([impl = impl_.get(), state] {
      JobResult snapshot;
      {
        std::lock_guard<std::mutex> lock(state->mu);
        snapshot = state->result;
      }
      impl->note_job_completed(snapshot.seconds);
      {
        obs::json::Value ev = obs::json::Value::object();
        ev["verdict"] = snapshot.verdict;
        impl->event("finished", snapshot.id, std::move(ev));
      }
      if (impl->options.on_complete) impl->options.on_complete(snapshot);
      // Notify under the lock — same lifetime reasoning as in run_racer.
      std::lock_guard<std::mutex> lock(state->mu);
      state->done = true;
      state->cv.notify_all();
    });
    return id;
  }

  state->submitted_at = Clock::now();
  state->remaining = state->engine_names.size();
  state->result.engines.resize(state->engine_names.size());
  for (std::size_t i = 0; i < state->engine_names.size(); ++i) {
    const std::string& name = state->engine_names[i];
    const EngineRunner* runner = runners[i];
    impl_->pool.submit([this, state, i, name, runner] {
      impl_->run_racer(*state, i, name, *runner);
    });
  }
  return id;
}

JobResult PortfolioScheduler::wait(std::size_t id) {
  Impl::JobState* js = impl_->job(id);
  if (js == nullptr)
    throw std::out_of_range("PortfolioScheduler::wait: no job " +
                            std::to_string(id));
  std::unique_lock<std::mutex> lock(js->mu);
  js->cv.wait(lock, [&] { return js->done; });
  return js->result;
}

void PortfolioScheduler::wait_all() {
  // New jobs may arrive while draining (server mode); loop until the count
  // is stable and every job is done.
  std::size_t waited = 0;
  while (true) {
    std::size_t n = submitted();
    if (waited == n) return;
    for (; waited < n; ++waited) (void)wait(waited);
  }
}

std::size_t PortfolioScheduler::pool_threads() const {
  return impl_->pool.workers();
}

std::size_t PortfolioScheduler::submitted() const {
  std::lock_guard<std::mutex> lock(impl_->jobs_mu);
  return impl_->jobs.size();
}

obs::MetricsRegistry& PortfolioScheduler::service_metrics() const {
  return impl_->service_metrics;
}

std::size_t PortfolioScheduler::queue_depth() const {
  return impl_->pool.queued();
}

std::size_t PortfolioScheduler::completed() const {
  return impl_->completed_count.load(std::memory_order_relaxed);
}

double PortfolioScheduler::uptime_seconds() const {
  return seconds_between(impl_->started_at, Clock::now());
}

std::vector<PortfolioScheduler::JobBrief> PortfolioScheduler::jobs_brief()
    const {
  // Two leaf locks, never held while a racer runs: jobs_mu to copy the
  // stable JobState pointers (jobs are never destroyed before the
  // scheduler), then each job's own mutex for its fields — racers hold
  // js.mu only around bookkeeping, not around engine runs, so this cannot
  // block on a slow job.
  std::vector<Impl::JobState*> states;
  {
    std::lock_guard<std::mutex> lock(impl_->jobs_mu);
    states.reserve(impl_->jobs.size());
    for (const auto& js : impl_->jobs) states.push_back(js.get());
  }
  std::vector<JobBrief> out;
  out.reserve(states.size());
  for (Impl::JobState* js : states) {
    JobBrief b;
    std::lock_guard<std::mutex> lock(js->mu);
    b.id = js->result.id;
    b.model = js->result.model;
    if (js->done) {
      b.state = "done";
      b.verdict = js->result.verdict;
      b.winner = js->result.winner;
      b.seconds = js->result.seconds;
    } else if (js->started) {
      b.state = "running";
      b.seconds = seconds_between(js->submitted_at, Clock::now());
    } else {
      b.state = "queued";
    }
    out.push_back(std::move(b));
  }
  return out;
}

std::vector<JobResult> run_batch(const Manifest& manifest,
                                 SchedulerOptions options) {
  PortfolioScheduler scheduler(std::move(options));
  for (const JobSpec& spec : manifest.jobs) scheduler.submit(spec);
  std::vector<JobResult> results;
  results.reserve(manifest.jobs.size());
  for (std::size_t id = 0; id < manifest.jobs.size(); ++id)
    results.push_back(scheduler.wait(id));
  return results;
}

void add_jobs_to_report(obs::RunReport& report,
                        const std::vector<JobResult>& results) {
  for (const JobResult& r : results) {
    obs::RunReport::JobRun job;
    job.id = static_cast<long long>(r.id);
    job.model = r.model;
    job.verdict = r.verdict;
    job.winner = r.winner;
    job.family_store = r.family_store;
    job.expect = r.expect;
    job.expect_matched = r.expect_matched;
    job.seconds = r.seconds;
    job.cancel_latency_seconds = r.cancel_latency_seconds;
    job.reduction = r.reduction;
    for (const EngineOutcome& o : r.engines) {
      obs::RunReport::EngineRun er;
      er.engine = o.engine;
      er.verdict = o.verdict;
      er.states = o.states;
      er.seconds = o.seconds;
      er.aborted = o.aborted;
      er.cancelled = o.cancelled;
      er.aborted_phase = o.aborted_phase;
      if (r.metrics != nullptr)
        er.counters =
            obs::registry_to_json(*r.metrics, "engine." + o.engine + ".");
      job.engines.push_back(std::move(er));
    }
    report.add_job(std::move(job));
  }
}

}  // namespace gpo::service
