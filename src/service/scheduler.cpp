#include "service/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
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

/// The global pool: W workers and one FIFO per racer rank (a racer's
/// position in its job's engine list), all under one mutex. Tasks are whole
/// racer runs (coarse, long-blocking items), so the lock is far from
/// contended. Rank 0 holds the jobs' first racers in submission order. A
/// later racer is queued when its job's first racer starts, and is *due*
/// rank * kLaterRacerDelay after that; it never starts before. A free
/// worker runs the later racer due first if it is due, else the oldest
/// first racer, else it sleeps until the next later racer is due. So a
/// job's first racer runs alone for kLaterRacerDelay, and the racers it
/// did not beat by then join it, ahead of any queued job (DESIGN.md,
/// "Portfolio scheduler architecture").
class Pool {
 public:
  explicit Pool(std::size_t workers) : ranks_(1) {
    if (workers == 0) workers = 1;
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back([this] { worker(); });
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

  /// Queues a racer task of `rank`; `due` matters only for a later racer
  /// (rank > 0).
  void submit(std::size_t rank, Clock::time_point due,
              std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (rank >= ranks_.size()) ranks_.resize(rank + 1);
      ranks_[rank].push_back(Task{due, std::move(task)});
    }
    cv_.notify_one();
  }

 private:
  struct Task {
    Clock::time_point due;
    std::function<void()> run;
  };

  /// With mu_ held: the queue whose front runs now, or nullptr when none
  /// does; then `wake` is when the next later racer is due (max() when no
  /// task is queued). Once stopping, later racers run without waiting:
  /// every job is complete by then, so they are skipped ones.
  std::deque<Task>* next_queue_locked(Clock::time_point& wake) {
    std::deque<Task>* later = nullptr;
    for (auto q = ranks_.begin() + 1; q != ranks_.end(); ++q)
      if (!q->empty() &&
          (later == nullptr || q->front().due < later->front().due))
        later = &*q;
    wake = Clock::time_point::max();
    if (later != nullptr && (stop_ || later->front().due <= Clock::now()))
      return later;
    if (!ranks_[0].empty()) return &ranks_[0];
    if (later != nullptr) wake = later->front().due;
    return nullptr;
  }

  void worker() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      Clock::time_point wake;
      std::deque<Task>* next = next_queue_locked(wake);
      if (next == nullptr) {
        if (stop_) return;  // nothing left to run
        if (wake == Clock::time_point::max())
          cv_.wait(lock);
        else
          cv_.wait_until(lock, wake);
        continue;
      }
      std::function<void()> task = std::move(next->front().run);
      next->pop_front();
      // A submit() may have woken this worker only: pass the wake-up on, so
      // that another idle worker sees what is still queued.
      if (std::any_of(ranks_.begin(), ranks_.end(),
                      [](const auto& q) { return !q.empty(); }))
        cv_.notify_one();
      lock.unlock();
      task();
      lock.lock();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  /// Guarded by mu_: the per-rank queues and the stop flag.
  std::vector<std::deque<Task>> ranks_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace

struct PortfolioScheduler::Impl {
  /// What only the race needs. The job's racer tasks share it, so it is
  /// freed with the last of them; complete() takes the result and the
  /// registry out of it and frees the nets first, so a settled job whose
  /// skipped racers still sit in the queue holds no net.
  struct JobState {
    std::size_t id = 0;
    JobSpec spec;
    /// Racer i runs runners[i]; result.engines[i] is its outcome.
    std::vector<const EngineRunner*> runners;
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
    /// A winner fired the token, or the net failed to load. Racers that
    /// had not started by then are recorded as skipped (settle_locked()).
    bool decided = false;
    std::vector<bool> started;  // racer i left the queue before the decision
    /// Racers that started and have not returned, plus those not started
    /// while the job is undecided; the job completes when it reaches 0.
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
                       1, std::thread::hardware_concurrency())) {}

  /// Emits one job lifecycle record when an event log is attached.
  void event(std::string_view name, std::size_t job, obs::json::Value extra) {
    if (options.events != nullptr)
      options.events->job_event(name, static_cast<long long>(job),
                                std::move(extra));
  }
  void event(std::string_view name, std::size_t job) {
    event(name, job, obs::json::Value::object());
  }

  /// Adds `delta` to the racers that wait for a worker, neither started nor
  /// skipped, and publishes the count as the queue-depth gauge.
  void add_waiting(std::ptrdiff_t delta) {
    std::lock_guard<std::mutex> lock(waiting_mu);
    waiting += delta;
    queue_depth_gauge.set(static_cast<double>(waiting));
  }

  /// Runs on the job's first racer, before any other racer is queued: loads
  /// the net and applies reduce=, so every racer sees the same (possibly
  /// smaller) net and the loading cost is paid on the pool, not in
  /// submit(). Returns the loader's message on failure, "" on success.
  std::string load(JobState& js) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu);
      Slot& slot = slots[js.id];
      slot.state = Slot::State::kRunning;
      slot.submitted_at = js.submitted_at;
    }
    try {
      js.net.emplace(load_net(js.spec.model));
      auto level = reduce::parse_reduce_level(
          js.spec.reduce.empty() ? "off" : js.spec.reduce);
      if (level.has_value() && *level != reduce::ReduceLevel::kOff) {
        reduce::ReduceOptions ro;
        ro.level = *level;
        ro.metrics = js.metrics.get();
        reduce::ReductionResult red = reduce::reduce_net(*js.net, ro);
        js.result.reduction = reduce::to_report_run(red.stats);
        js.original = std::move(js.net);
        js.certificate = std::move(red.certificate);
        js.net.emplace(std::move(red.net));
      }
      event("started", js.id);
    } catch (const std::exception& e) {
      js.net.reset();
      return e.what();
    }
    return "";
  }

  /// Runs once per job, when no racer runs any more: after its last running
  /// racer returned, when its net failed to load, or on the pool task of a
  /// job naming an unknown engine.
  /// Frees the nets, hands the full result to on_complete, drops it, and
  /// then publishes the job's record as done.
  void complete(JobState& js) {
    js.net.reset();
    js.original.reset();
    js.certificate.reset();
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

  /// Called with js.mu held when the job is decided: fires the token and
  /// records every racer that has not started as skipped, so the job
  /// completes as soon as its running racers return and its VERDICT never
  /// waits for queued losers. A skipped racer's task returns without
  /// touching the job when a worker pops it.
  void settle_locked(JobState& js) {
    js.decided = true;
    js.token.cancel();
    std::size_t skipped = 0;
    for (std::size_t i = 0; i < js.started.size(); ++i) {
      if (js.started[i]) continue;
      EngineOutcome& out = js.result.engines[i];
      out.verdict = "cancelled";
      out.cancelled = true;
      out.aborted = true;
      ++skipped;
    }
    js.remaining -= skipped;
    if (skipped > 0) add_waiting(-static_cast<std::ptrdiff_t>(skipped));
  }

  /// Runs on the job's first racer as it starts at `now`: loads the net,
  /// then queues the later racers, each due rank * kLaterRacerDelay from
  /// now. Returns false when the net failed to load: the job is then an
  /// "error" that never raced, completed here.
  bool start_job(const std::shared_ptr<JobState>& state,
                 Clock::time_point now) {
    JobState& js = *state;
    std::string error = load(js);
    if (error.empty()) {
      for (std::size_t i = 1; i < js.runners.size(); ++i)
        pool.submit(i, now + static_cast<Clock::rep>(i) * kLaterRacerDelay,
                    [this, state, i] { run_racer(state, i); });
      return true;
    }
    {
      std::lock_guard<std::mutex> lock(js.mu);
      settle_locked(js);  // the later racers, never queued, are skipped
      js.result.verdict = "error";
      js.result.error = std::move(error);
      js.result.engines.clear();
      (void)finish_racer_locked(js, Clock::now());  // no other racer ran
    }
    complete(js);
    return false;
  }

  /// Runs racer `index` of the job, unless the job was decided while it
  /// waited; the first racer (index 0) starts the job first (start_job()).
  void run_racer(const std::shared_ptr<JobState>& state, std::size_t index) {
    JobState& js = *state;
    std::string name;
    {
      std::lock_guard<std::mutex> lock(js.mu);
      if (js.decided) return;  // already recorded as skipped
      js.started[index] = true;
      name = js.result.engines[index].engine;
    }
    add_waiting(-1);
    // Queue wait: submission to this racer actually getting a worker (the
    // first racer loads the net after that).
    const Clock::time_point picked = Clock::now();
    queue_wait_hist.record_seconds(seconds_between(js.submitted_at, picked));
    if (index == 0 && !start_job(state, picked)) return;
    const Clock::time_point start = Clock::now();
    {
      obs::json::Value ev = obs::json::Value::object();
      ev["engine"] = name;
      event("racer-start", js.id, std::move(ev));
    }
    engine::EngineRequest request;
    request.max_states = js.spec.max_states;
    request.max_seconds = js.spec.max_seconds;
    request.cancel = &js.token;
    request.stop_at_first_deadlock = true;
    if (auto store = core::parse_family_store(js.spec.family_store))
      request.family_store = *store;
    request.metrics = js.metrics.get();
    EngineOutcome out;
    try {
      out = (*js.runners[index])(*js.net, request);
    } catch (const std::exception& e) {
      out = EngineOutcome{};
      out.verdict = "failed";
      out.aborted = true;
      out.error = e.what();
    }
    if (out.seconds == 0) out.seconds = seconds_between(start, Clock::now());
    out.engine = name;
    service_metrics.histogram("service.engine." + name + ".seconds")
        .record_seconds(out.seconds);

    const Clock::time_point end = Clock::now();
    bool done = false;
    bool won = false;
    bool was_cancelled = false;
    double cancel_latency = 0;
    {
      std::lock_guard<std::mutex> lock(js.mu);
      if (out.conclusive && !js.decided) {
        settle_locked(js);
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
      } else if (out.cancelled) {
        // The drain runs from the later of token-fire and this racer's
        // start; skipped racers never ran, so they measure nothing.
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
        event("first-answer", js.id, std::move(ev));
      }
      if (was_cancelled) {
        obs::json::Value ev = obs::json::Value::object();
        ev["engine"] = name;
        event("cancelled", js.id, std::move(ev));
      }
      js.result.engines[index] = std::move(out);
      done = finish_racer_locked(js, end);
    }
    if (won)
      service_metrics.counter("service.engine." + name + ".wins").add();
    if (was_cancelled) {
      service_metrics.counter("service.engine." + name + ".cancelled").add();
      // The per-job scalar keeps only the max drain; the histogram sees
      // every cancelled racer's drain, so p99 is a real fleet statistic.
      cancel_hist.record_seconds(cancel_latency);
    }
    if (done) complete(js);
  }

  static void append_error(JobResult& r, const std::string& msg) {
    if (!r.error.empty()) r.error += "; ";
    r.error += msg;
  }

  /// Called with js.mu held as a started racer returns. The last one fills
  /// the final verdict and timing and returns true: its caller then
  /// completes the job, outside the lock.
  static bool finish_racer_locked(JobState& js, Clock::time_point end) {
    if (--js.remaining > 0) return false;
    JobResult& r = js.result;
    r.seconds = seconds_between(js.submitted_at, end);
    r.expect_matched = js.spec.expect.empty() || r.verdict == js.spec.expect;
    return true;
  }

  SchedulerOptions options;
  const EngineRegistry& registry;
  /// The scheduler's own telemetry scope; declared before the slot
  /// references. mutable: service_metrics() is conceptually const (snapshot reads), but
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

  /// Guards `waiting`, the racers queued and neither started nor skipped
  /// (add_waiting()). The pool also holds skipped racers' tasks until a
  /// worker discards them, so its own count would overstate the backlog.
  std::mutex waiting_mu;
  std::ptrdiff_t waiting = 0;

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

  for (const std::string& name : engine_names) {
    const EngineRunner* r = impl_->registry.find(name);
    if (r == nullptr) {
      // An immediate "error" result (one bad manifest line must not sink a
      // batch), delivered from the pool, not inline, so a caller that acks
      // the submission (the server's JOB line) gets to do so before the
      // on_complete notification fires.
      result.verdict = "error";
      result.error = "no such engine '" + name + "'";
      result.expect_matched = spec.expect.empty();
      impl_->pool.submit(0, Clock::now(), [impl = impl_.get(), state] {
        impl->complete(*state);
      });
      return id;
    }
    state->runners.push_back(r);
  }

  // Only the first racer is queued here: it loads the net on the pool (a
  // load failure becomes an "error" verdict there) and then queues the
  // others, so submit() stays microseconds.
  state->submitted_at = Clock::now();
  state->remaining = engine_names.size();
  state->started.assign(engine_names.size(), false);
  result.engines.resize(engine_names.size());
  for (std::size_t i = 0; i < engine_names.size(); ++i)
    result.engines[i].engine = engine_names[i];
  impl_->add_waiting(static_cast<std::ptrdiff_t>(engine_names.size()));
  impl_->pool.submit(0, state->submitted_at, [impl = impl_.get(), state] {
    impl->run_racer(state, 0);
  });
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
  std::lock_guard<std::mutex> lock(impl_->waiting_mu);
  return static_cast<std::size_t>(impl_->waiting);
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
