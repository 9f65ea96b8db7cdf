#include "service/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "models/models.hpp"
#include "obs/event_log.hpp"
#include "parser/net_format.hpp"
#include "parser/pnml.hpp"
#include "reduce/reduce.hpp"

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

/// The global pool: W workers, one FIFO queue per worker, all under one
/// mutex. Tasks are whole racer runs (coarse, long-blocking items), so the
/// lock is far from contended. Task i goes to queue i mod W; a worker runs
/// the oldest task of its own queue, else the oldest of the next non-empty
/// one. A job's racers are submitted together, so with W equal to the
/// portfolio size each worker runs one engine through the jobs in order,
/// and a racer whose job another engine has already decided is skipped when
/// its turn comes. One shared FIFO instead starts every racer of a job at
/// once and served 55% fewer jobs/s (DESIGN.md, "Portfolio scheduler
/// architecture").
class Pool {
 public:
  /// `depth` (optional) is kept equal to the number of submitted-but-not-
  /// yet-started tasks — the live queue-depth gauge.
  explicit Pool(std::size_t workers, obs::Gauge* depth = nullptr)
      : queues_(workers == 0 ? 1 : workers), depth_(depth) {
    threads_.reserve(queues_.size());
    for (std::size_t i = 0; i < queues_.size(); ++i)
      threads_.emplace_back([this, i] { worker(i); });
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queues_[next_++ % queues_.size()].push_back(std::move(task));
      ++queued_;
      publish_depth();
    }
    cv_.notify_one();
  }

  /// Tasks submitted but not yet picked up by a worker.
  [[nodiscard]] std::size_t queued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queued_;
  }

 private:
  /// Sets the depth gauge; called with mu_ held.
  void publish_depth() {
    if (depth_ != nullptr) depth_->set(static_cast<double>(queued_));
  }

  void worker(std::size_t me) {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
        if (queued_ == 0) return;  // stopping, and nothing left to run
        std::size_t k = me;
        while (queues_[k].empty()) k = (k + 1) % queues_.size();
        task = std::move(queues_[k].front());
        queues_[k].pop_front();
        --queued_;
        publish_depth();
      }
      task();
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Guarded by mu_: the per-worker queues, their total size, the next
  /// queue to deal to, and the stop flag.
  std::vector<std::deque<std::function<void()>>> queues_;
  std::size_t queued_ = 0;
  std::size_t next_ = 0;
  bool stop_ = false;
  obs::Gauge* depth_;
  std::vector<std::thread> threads_;
};

}  // namespace

struct PortfolioScheduler::Impl {
  /// What only the race needs. The job's racer tasks share it, so it is
  /// freed with the last of them; complete() takes the result and the
  /// registry out of it first.
  struct JobState {
    std::size_t id = 0;
    JobSpec spec;
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
    bool decided = false;  // a winner fired the token
    bool started = false;  // some racer actually began running
    std::size_t remaining = 0;
    JobResult result;
  };

  /// What the scheduler keeps of every submitted job, for wait() and JOBS.
  struct Slot {
    enum class State : std::uint8_t { kQueued, kRunning, kDone };
    State state = State::kQueued;
    /// Set when the job starts running, for a running job's age.
    Clock::time_point submitted_at;
    /// id, model and expect from submission; the rest once done.
    JobRecord record;
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

  void mark_running(const JobState& js) {
    std::lock_guard<std::mutex> lock(jobs_mu);
    Slot& slot = slots[js.id];
    slot.state = Slot::State::kRunning;
    slot.submitted_at = js.submitted_at;
  }

  /// Runs once per job, when nothing else touches `js` any more: after its
  /// last racer returned, or on the pool task of an error job. Hands the
  /// full result to on_complete, drops it, and then publishes the job's
  /// record as done.
  void complete(JobState& js) {
    JobRecord record;
    {
      JobResult result = std::move(js.result);
      result.metrics = std::move(js.metrics);
      jobs_completed.add();
      job_hist.record_seconds(result.seconds);
      std::size_t still =
          in_flight.fetch_sub(1, std::memory_order_relaxed) - 1;
      jobs_in_flight.set(static_cast<double>(still));
      {
        obs::json::Value ev = obs::json::Value::object();
        ev["verdict"] = result.verdict;
        ev["seconds"] = result.seconds;
        event("finished", js.id, std::move(ev));
      }
      // on_complete runs BEFORE the job is published as done:
      // wait()/wait_all() returning guarantees every completion callback has
      // also returned (the server relies on this to print BYE after the last
      // VERDICT).
      if (options.on_complete) options.on_complete(result);
      record = std::move(static_cast<JobRecord&>(result));
    }  // the racer outcomes, counterexample and registry are freed here
    std::lock_guard<std::mutex> lock(jobs_mu);
    Slot& slot = slots[record.id];
    slot.record = std::move(record);
    slot.state = Slot::State::kDone;
    ++jobs_done;
    done_cv.notify_all();
  }

  void run_racer(JobState& js, std::size_t index, const std::string& name,
                 const EngineRunner& runner) {
    const std::size_t job_id = js.id;
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
      if (first_start) {
        mark_running(js);
        event("started", job_id);
      }
      {
        obs::json::Value ev = obs::json::Value::object();
        ev["engine"] = name;
        event("racer-start", job_id, std::move(ev));
      }
      engine::EngineRequest request;
      request.max_states = js.spec.max_states;
      request.max_seconds = js.spec.max_seconds;
      request.cancel = &js.token;
      request.stop_at_first_deadlock = true;
      if (auto store = core::parse_family_store(js.spec.family_store))
        request.family_store = *store;
      request.metrics = js.metrics.get();
      try {
        out = runner(*js.net, request);
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
    {
      std::lock_guard<std::mutex> lock(js.mu);
      if (out.conclusive && !js.decided) {
        js.decided = true;
        js.cancel_at = end;
        js.result.winner = name;
        js.result.verdict = out.verdict;
        js.result.counterexample = out.counterexample;
        if (js.certificate.has_value() && !out.counterexample.empty()) {
          // A replay failure is a reduction bug, not a property of the net:
          // keep the verdict (it transfers by the certificate argument) but
          // flag the job.
          reduce::MappedCounterexample mapped = reduce::map_counterexample(
              *js.original, *js.certificate, out.counterexample);
          js.result.counterexample = std::move(mapped.trace);
          if (!mapped.deadlock.has_value())
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
    if (completed) complete(js);
  }

  static void append_error(JobResult& r, const std::string& msg) {
    if (!r.error.empty()) r.error += "; ";
    r.error += msg;
  }

  /// Called with js.mu held, once the last racer returned: fills the final
  /// verdict and timing.
  static void finish_locked(JobState& js, Clock::time_point end) {
    js.result.seconds = seconds_between(js.submitted_at, end);
    if (js.result.winner.empty()) js.result.verdict = "undecided";
    js.result.expect_matched = js.spec.expect.empty() ||
                               js.result.verdict == js.spec.expect;
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
  Clock::time_point started_at;

  /// Guards the slots and jobs_done; a leaf lock that no racer holds while
  /// an engine runs. done_cv is broadcast whenever a job becomes done.
  std::mutex jobs_mu;
  std::condition_variable done_cv;
  std::vector<Slot> slots;
  std::size_t jobs_done = 0;

  /// Declared last, so it is destroyed first: its workers are joined before
  /// the slots and the lock they publish through go away.
  Pool pool;
};

PortfolioScheduler::PortfolioScheduler(SchedulerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

PortfolioScheduler::~PortfolioScheduler() { wait_all(); }

std::size_t PortfolioScheduler::submit(const JobSpec& spec) {
  auto state = std::make_shared<Impl::JobState>();
  state->spec = spec;
  state->metrics = std::make_shared<obs::MetricsRegistry>();
  const std::vector<std::string>& engine_names =
      spec.engines.empty() ? default_portfolio() : spec.engines;

  {
    std::lock_guard<std::mutex> lock(impl_->jobs_mu);
    state->id = impl_->slots.size();
    Impl::Slot& slot = impl_->slots.emplace_back();
    slot.record.id = state->id;
    slot.record.model = spec.model;
    slot.record.expect = spec.expect;
  }
  const std::size_t id = state->id;
  JobResult& result = state->result;
  result.id = id;
  result.model = spec.model;
  result.family_store = spec.family_store;
  result.expect = spec.expect;

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
  for (const std::string& name : engine_names) {
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
        result.reduction = reduce::to_report_run(red.stats);
        state->original = std::move(state->net);
        state->certificate = std::move(red.certificate);
        state->net.emplace(std::move(red.net));
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  if (!error.empty()) {
    result.verdict = "error";
    result.error = error;
    result.expect_matched = spec.expect.empty();
    // Completion is delivered from the pool, not inline, so a caller that
    // acks the submission (the server's JOB line) gets to do so before the
    // on_complete notification fires.
    impl_->pool.submit(
        [impl = impl_.get(), state] { impl->complete(*state); });
    return id;
  }

  state->submitted_at = Clock::now();
  state->remaining = engine_names.size();
  result.engines.resize(engine_names.size());
  for (std::size_t i = 0; i < engine_names.size(); ++i) {
    impl_->pool.submit([impl = impl_.get(), state, i,
                        name = engine_names[i], runner = runners[i]] {
      impl->run_racer(*state, i, name, *runner);
    });
  }
  return id;
}

JobRecord PortfolioScheduler::wait(std::size_t id) {
  std::unique_lock<std::mutex> lock(impl_->jobs_mu);
  if (id >= impl_->slots.size())
    throw std::out_of_range("PortfolioScheduler::wait: no job " +
                            std::to_string(id));
  impl_->done_cv.wait(lock, [&] {
    return impl_->slots[id].state == Impl::Slot::State::kDone;
  });
  return impl_->slots[id].record;
}

void PortfolioScheduler::wait_all() {
  // New jobs may arrive while draining (server mode): the predicate reads
  // the live job count.
  std::unique_lock<std::mutex> lock(impl_->jobs_mu);
  impl_->done_cv.wait(
      lock, [&] { return impl_->jobs_done == impl_->slots.size(); });
}

std::size_t PortfolioScheduler::pool_threads() const {
  return impl_->pool.workers();
}

std::size_t PortfolioScheduler::submitted() const {
  std::lock_guard<std::mutex> lock(impl_->jobs_mu);
  return impl_->slots.size();
}

obs::MetricsRegistry& PortfolioScheduler::service_metrics() const {
  return impl_->service_metrics;
}

std::size_t PortfolioScheduler::queue_depth() const {
  return impl_->pool.queued();
}

std::size_t PortfolioScheduler::completed() const {
  std::lock_guard<std::mutex> lock(impl_->jobs_mu);
  return impl_->jobs_done;
}

double PortfolioScheduler::uptime_seconds() const {
  return seconds_between(impl_->started_at, Clock::now());
}

std::vector<PortfolioScheduler::JobBrief> PortfolioScheduler::jobs_brief()
    const {
  // One leaf lock, never held while an engine runs: jobs_mu guards every
  // slot, and racers take it only to mark their job running or done, so
  // this cannot block on a slow job. A finished job answers from its
  // record; its race state is gone by then.
  std::lock_guard<std::mutex> lock(impl_->jobs_mu);
  const Clock::time_point now = Clock::now();
  std::vector<JobBrief> out;
  out.reserve(impl_->slots.size());
  for (const Impl::Slot& slot : impl_->slots) {
    JobBrief b;
    b.id = slot.record.id;
    b.model = slot.record.model;
    switch (slot.state) {
      case Impl::Slot::State::kDone:
        b.state = "done";
        b.verdict = slot.record.verdict;
        b.winner = slot.record.winner;
        b.seconds = slot.record.seconds;
        break;
      case Impl::Slot::State::kRunning:
        b.state = "running";
        b.seconds = seconds_between(slot.submitted_at, now);
        break;
      case Impl::Slot::State::kQueued:
        b.state = "queued";
        break;
    }
    out.push_back(std::move(b));
  }
  return out;
}

ResultCollector::ResultCollector(SchedulerOptions& options) {
  options.on_complete = [this, forward = std::move(options.on_complete)](
                            const JobResult& r) {
    if (forward) forward(r);
    std::lock_guard<std::mutex> lock(mu_);
    if (r.id >= results_.size()) results_.resize(r.id + 1);
    results_[r.id] = r;
  };
}

JobResult ResultCollector::wait(PortfolioScheduler& scheduler,
                                std::size_t id) {
  // on_complete returns before the job is published as done, so the result
  // is here once wait() returns.
  (void)scheduler.wait(id);
  std::lock_guard<std::mutex> lock(mu_);
  return results_.at(id);
}

std::vector<JobResult> ResultCollector::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(results_);
}

std::vector<JobResult> run_batch(const Manifest& manifest,
                                 SchedulerOptions options) {
  ResultCollector collector(options);
  {
    PortfolioScheduler scheduler(std::move(options));
    for (const JobSpec& spec : manifest.jobs) scheduler.submit(spec);
  }  // the destructor waits for every job
  return collector.take();
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
