#include "service/server.hpp"

#include <iostream>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>

#include "obs/heartbeat.hpp"
#include "obs/json.hpp"

namespace gpo::service {

namespace {

namespace json = obs::json;

std::string format_verdict(const JobResult& r) {
  std::ostringstream line;
  line << "VERDICT " << r.id << ' ' << r.verdict;
  line << " winner=" << (r.winner.empty() ? "-" : r.winner);
  line << " seconds=" << r.seconds;
  line << " cancel-latency=" << r.cancel_latency_seconds;
  if (!r.error.empty()) line << " error=\"" << r.error << '"';
  return line.str();
}

json::Value histogram_json(const obs::MetricsRegistry::Snapshot& s) {
  json::Value h = json::Value::object();
  h["count"] = static_cast<long long>(s.count);
  h["p50"] = s.p50;
  h["p90"] = s.p90;
  h["p99"] = s.p99;
  h["max"] = s.max;
  return h;
}

/// The STATS reply: one ordered JSON object built from the scheduler's
/// introspection surface + service-metrics snapshot. Everything read here
/// is relaxed atomics or leaf locks — never blocked by a running racer.
json::Value stats_json(const PortfolioScheduler& sch) {
  json::Value doc = json::Value::object();
  doc["uptime_seconds"] = sch.uptime_seconds();

  const auto snaps = sch.service_metrics().snapshot("service.");
  auto value_of = [&](std::string_view name) -> double {
    for (const auto& s : snaps)
      if (s.name == name) return s.value;
    return 0;
  };
  json::Value jobs = json::Value::object();
  jobs["submitted"] =
      static_cast<long long>(value_of("service.jobs.submitted"));
  jobs["in_flight"] =
      static_cast<long long>(value_of("service.jobs.in_flight"));
  jobs["completed"] = static_cast<long long>(sch.completed());
  doc["jobs"] = std::move(jobs);

  json::Value pool = json::Value::object();
  pool["threads"] = static_cast<long long>(sch.pool_threads());
  pool["queue_depth"] = static_cast<long long>(sch.queue_depth());
  doc["pool"] = std::move(pool);

  json::Value mem = json::Value::object();
  mem["peak_rss_bytes"] = static_cast<long long>(obs::peak_rss_bytes());
  doc["memory"] = std::move(mem);

  // Per-engine win/cancel counts, grouped from the lazily-registered
  // "service.engine.<name>.<field>" slots.
  json::Value engines = json::Value::object();
  constexpr std::string_view kPrefix = "service.engine.";
  for (const auto& s : snaps) {
    if (s.name.size() <= kPrefix.size() ||
        std::string_view(s.name).substr(0, kPrefix.size()) != kPrefix)
      continue;
    std::string rest = s.name.substr(kPrefix.size());
    std::size_t dot = rest.rfind('.');
    if (dot == std::string::npos) continue;
    std::string engine = rest.substr(0, dot);
    std::string field = rest.substr(dot + 1);
    if (s.kind == obs::MetricKind::kCounter)
      engines[engine][field] = static_cast<long long>(s.count);
    else if (s.kind == obs::MetricKind::kHistogram)
      engines[engine][field] = histogram_json(s);
  }
  doc["engines"] = std::move(engines);

  json::Value hists = json::Value::object();
  for (const auto& s : snaps)
    if (s.kind == obs::MetricKind::kHistogram) hists[s.name] = histogram_json(s);
  doc["histograms"] = std::move(hists);
  return doc;
}

json::Value jobs_json(const PortfolioScheduler& sch) {
  json::Value arr = json::Value::array();
  for (const PortfolioScheduler::JobBrief& b : sch.jobs_brief()) {
    json::Value j = json::Value::object();
    j["id"] = static_cast<long long>(b.id);
    j["model"] = b.model;
    j["state"] = b.state;
    if (!b.verdict.empty()) j["verdict"] = b.verdict;
    if (!b.winner.empty()) j["winner"] = b.winner;
    j["seconds"] = b.seconds;
    arr.push_back(std::move(j));
  }
  return arr;
}

json::Value health_json(const PortfolioScheduler& sch) {
  json::Value doc = json::Value::object();
  doc["status"] = "ok";
  doc["uptime_seconds"] = sch.uptime_seconds();
  doc["jobs_in_flight"] = static_cast<long long>(
      static_cast<long long>(sch.submitted()) -
      static_cast<long long>(sch.completed()));
  doc["pool_threads"] = static_cast<long long>(sch.pool_threads());
  doc["peak_rss_bytes"] = static_cast<long long>(obs::peak_rss_bytes());
  return doc;
}

}  // namespace

std::size_t serve(std::istream& in, std::ostream& out,
                  const ServerOptions& options) {
  std::mutex out_mu;

  SchedulerOptions sched;
  sched.pool_threads = options.pool_threads;
  sched.registry = options.registry;
  sched.events = options.events;
  sched.on_complete = [&](const JobResult& r) {
    std::lock_guard<std::mutex> lock(out_mu);
    out << format_verdict(r) << '\n' << std::flush;
  };
  PortfolioScheduler scheduler(std::move(sched));

  std::unique_ptr<obs::Heartbeat> heartbeat;
  if (options.progress_secs > 0) {
    heartbeat = std::make_unique<obs::Heartbeat>(
        scheduler.service_metrics(), nullptr, options.progress_secs,
        std::cerr);
    heartbeat->start();
  }

  {
    const EngineRegistry& reg =
        options.registry != nullptr ? *options.registry
                                    : default_engine_registry();
    std::ostringstream ready;
    ready << "READY " << scheduler.pool_threads();
    std::string sep = " ";
    for (const std::string& name : reg.names()) {
      ready << sep << name;
      sep = ",";
    }
    std::lock_guard<std::mutex> lock(out_mu);
    out << ready.str() << '\n' << std::flush;
  }

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream words(line);
    std::string verb;
    words >> verb;
    if (verb.empty()) continue;
    if (verb == "QUIT") break;
    if (verb == "STATS" || verb == "JOBS" || verb == "HEALTH") {
      // Answered inline on the serving thread; the introspection calls
      // never wait on running racers, so the reply is immediate even while
      // a slow job races.
      json::Value doc = verb == "STATS"   ? stats_json(scheduler)
                        : verb == "JOBS" ? jobs_json(scheduler)
                                         : health_json(scheduler);
      std::lock_guard<std::mutex> lock(out_mu);
      out << verb << ' ' << doc.dump_string(0) << '\n' << std::flush;
      continue;
    }
    if (verb != "CHECK") {
      std::lock_guard<std::mutex> lock(out_mu);
      out << "ERR line " << line_no << ": unknown verb '" << verb << "'\n"
          << std::flush;
      continue;
    }
    // Everything after "CHECK " is one manifest job line.
    std::string rest;
    std::getline(words, rest);
    try {
      JobSpec spec = parse_job_line(rest, line_no);
      // Holding the output lock across submit() keeps the JOB ack ahead of
      // the job's VERDICT: completions always arrive on pool workers (never
      // inline in submit), and those workers block on this mutex.
      std::lock_guard<std::mutex> lock(out_mu);
      std::size_t id = scheduler.submit(spec);
      out << "JOB " << id << '\n' << std::flush;
    } catch (const ManifestError& e) {
      std::lock_guard<std::mutex> lock(out_mu);
      out << "ERR " << e.what() << '\n' << std::flush;
    }
  }

  scheduler.wait_all();
  const std::size_t n = scheduler.completed();
  {
    std::lock_guard<std::mutex> lock(out_mu);
    out << "BYE " << n << '\n' << std::flush;
  }
  return n;
}

}  // namespace gpo::service
