#include "service/service_cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "obs/diag.hpp"
#include "obs/event_log.hpp"
#include "obs/heartbeat.hpp"
#include "obs/report.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "util/parse_number.hpp"

namespace gpo::service {

namespace {

int batch_usage() {
  std::cerr
      << "usage: julie batch <manifest> [options]\n"
      << "  --report FILE      write a JSON run report with one jobs[] entry\n"
      << "                     per manifest line (schema:\n"
      << "                     bench/report_schema.json)\n"
      << "  --events FILE      write a JSONL event log of job lifecycle\n"
      << "                     transitions (overrides the manifest's\n"
      << "                     events= directive)\n"
      << "  --progress [SECS]  heartbeat line on stderr every SECS (def 1)\n"
      << "                     with live queue depth\n"
      << "  --stats            print the scheduler's service.* metrics\n"
      << "                     (latency percentiles) on stderr at the end\n"
      << "  --pool-threads N   global worker-pool width shared by ALL jobs\n"
      << "                     and racers (default: hardware concurrency,\n"
      << "                     at most 256); there is no per-job --threads\n"
      << "  --quiet            suppress the per-job progress lines\n"
      << "manifest line: <model> [engines=E1,..] [max-seconds=S]\n"
      << "               [max-states=N] [expect=deadlock|no-deadlock]\n"
      << "               [family-store=explicit|zdd]\n"
      << "               [reduce=off|safe|aggressive]\n"
      << "  engines= defaults to por,gpo-intern,bdd,unfold; the order is\n"
      << "  a priority: each later racer starts only if the job is still\n"
      << "  open 5 ms per place after the first racer started\n"
      << "manifest directive: events=FILE\n";
  return 2;
}

void print_job(const JobResult& r) {
  std::cout << "job " << r.id << " " << r.model << ": " << r.verdict;
  if (!r.winner.empty()) std::cout << " (winner " << r.winner << ")";
  if (!r.expect.empty() && !r.expect_matched)
    std::cout << " EXPECTED " << r.expect;
  if (!r.error.empty()) std::cout << " [" << r.error << "]";
  if (r.reduction.has_value())
    std::cout << " [reduce " << r.reduction->level << ": "
              << r.reduction->places_before << "p/"
              << r.reduction->transitions_before << "t -> "
              << r.reduction->places_after << "p/"
              << r.reduction->transitions_after << "t]";
  std::cout << "  (" << r.seconds << "s";
  if (r.cancel_latency_seconds > 0)
    std::cout << ", cancel latency " << r.cancel_latency_seconds << "s";
  std::cout << ")\n";
}

/// Stderr dump of the scheduler's own telemetry scope (--stats): one line
/// per slot, histograms with their percentile estimates.
void print_service_stats(const obs::MetricsRegistry& reg) {
  obs::DiagSink& sink = obs::DiagSink::instance();
  sink.line("service stats:");
  for (const obs::MetricsRegistry::Snapshot& s : reg.snapshot("service.")) {
    char buf[160];
    switch (s.kind) {
      case obs::MetricKind::kCounter:
        std::snprintf(buf, sizeof(buf), "  %s = %llu", s.name.c_str(),
                      static_cast<unsigned long long>(s.count));
        break;
      case obs::MetricKind::kGauge:
        std::snprintf(buf, sizeof(buf), "  %s = %g", s.name.c_str(), s.value);
        break;
      case obs::MetricKind::kTimer:
        std::snprintf(buf, sizeof(buf), "  %s = %.6fs (n=%llu)",
                      s.name.c_str(), s.value,
                      static_cast<unsigned long long>(s.count));
        break;
      case obs::MetricKind::kHistogram:
        std::snprintf(buf, sizeof(buf),
                      "  %s = {n=%llu p50=%.6fs p90=%.6fs p99=%.6fs "
                      "max=%.6fs}",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.count), s.p50, s.p90,
                      s.p99, s.max);
        break;
    }
    sink.line(buf);
  }
}

/// `--progress [SECS]`: consumes an optional numeric argument (same pattern
/// as julie's solo flag). Returns the interval, default 1 s.
double parse_progress_arg(int argc, char** argv, int& i) {
  if (i + 1 < argc) {
    char* end = nullptr;
    double secs = std::strtod(argv[i + 1], &end);
    if (end != argv[i + 1] && *end == '\0' && secs > 0) {
      ++i;
      return secs;
    }
  }
  return 1.0;
}

}  // namespace

int batch_main(int argc, char** argv) {
  std::string manifest_file, report_file, events_file;
  SchedulerOptions sched;
  bool quiet = false;
  bool want_stats = false;
  double progress_secs = 0;

  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs an argument\n";
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "--report") {
      report_file = next();
    } else if (arg == "--events") {
      events_file = next();
    } else if (arg == "--progress") {
      progress_secs = parse_progress_arg(argc, argv, i);
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--pool-threads") {
      sched.pool_threads = util::parse_thread_count(arg, next());
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h" ||
               (!arg.empty() && arg[0] == '-')) {
      if (arg != "--help" && arg != "-h")
        std::cerr << "unknown option " << arg << "\n";
      return batch_usage();
    } else if (manifest_file.empty()) {
      manifest_file = arg;
    } else {
      std::cerr << "extra argument '" << arg << "'\n";
      return batch_usage();
    }
  }
  if (manifest_file.empty()) return batch_usage();

  Manifest manifest;
  try {
    manifest = parse_manifest_file(manifest_file);
  } catch (const std::exception& e) {
    std::cerr << "error: " << manifest_file << ": " << e.what() << "\n";
    return 2;
  }
  if (manifest.jobs.empty()) {
    std::cerr << "error: " << manifest_file << " contains no jobs\n";
    return 2;
  }

  // The CLI flag wins over the manifest's events= directive.
  const std::string events_path =
      !events_file.empty() ? events_file : manifest.events_path;
  std::unique_ptr<obs::EventLog> events;
  if (!events_path.empty()) {
    try {
      events = std::make_unique<obs::EventLog>(events_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    sched.events = events.get();
  }

  // Direct scheduler use (not run_batch): the heartbeat, the --stats dump
  // and the report's histograms section all read scheduler.service_metrics,
  // which run_batch would destroy on return. As in run_batch, a
  // ResultCollector keeps the full results (racer outcomes, per-engine
  // counters) for the report.
  ResultCollector collector(sched);
  PortfolioScheduler scheduler(std::move(sched));
  std::unique_ptr<obs::Heartbeat> heartbeat;
  if (progress_secs > 0) {
    heartbeat = std::make_unique<obs::Heartbeat>(
        scheduler.service_metrics(), nullptr, progress_secs, std::cerr);
    heartbeat->start();
  }

  for (const JobSpec& spec : manifest.jobs) scheduler.submit(spec);
  scheduler.wait_all();
  const std::vector<JobResult> results = collector.take();

  if (heartbeat != nullptr) heartbeat->stop();
  if (events != nullptr) events->close();

  std::size_t failures = 0;
  for (const JobResult& r : results) {
    if (!quiet) print_job(r);
    if (r.verdict == "error" || !r.expect_matched ||
        (r.verdict == "undecided" && !r.expect.empty()))
      ++failures;
  }
  if (!quiet)
    std::cout << results.size() << " jobs, " << failures << " failures\n";
  if (want_stats) print_service_stats(scheduler.service_metrics());

  if (!report_file.empty()) {
    obs::RunReport report("julie batch");
    report.set_command("julie batch " + manifest_file);
    add_jobs_to_report(report, results);
    if (!events_path.empty()) report.set_events_path(events_path);
    std::ofstream out(report_file);
    if (!out) {
      std::cerr << "cannot write " << report_file << "\n";
      return 1;
    }
    report.write(out, nullptr, &scheduler.service_metrics());
    if (!quiet) std::cout << "wrote " << report_file << "\n";
  }
  return failures == 0 ? 0 : 1;
}

int serve_main(int argc, char** argv) {
  ServerOptions options;
  std::string events_file;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--pool-threads" && i + 1 < argc) {
      options.pool_threads = util::parse_thread_count(arg, argv[++i]);
    } else if (arg == "--events" && i + 1 < argc) {
      events_file = argv[++i];
    } else if (arg == "--progress") {
      options.progress_secs = parse_progress_arg(argc, argv, i);
    } else {
      std::cerr << "usage: julie serve [--pool-threads N] [--events FILE]\n"
                << "                   [--progress [SECS]]\n"
                << "line protocol on stdin/stdout; see src/service/"
                   "server.hpp\n";
      return 2;
    }
  }
  std::unique_ptr<obs::EventLog> events;
  if (!events_file.empty()) {
    try {
      events = std::make_unique<obs::EventLog>(events_file);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    options.events = events.get();
  }
  serve(std::cin, std::cout, options);
  return 0;
}

}  // namespace gpo::service
