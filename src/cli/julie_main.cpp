// julie — command-line front-end to the verification engines, named after the
// prototype tool of the paper. Loads a net from a .net/.pnml file or one of
// the built-in parameterized models and runs the selected analyses.
//
//   julie --model nsdp:8 --engine gpo
//   julie --engine full --dot rg.dot examples/nets/fig7.net
//   julie --model rw:12 --engine all
//   julie --model asat:4 --safety crit_4,crit_5
//   julie --model nsdp:4 --structure --liveness
//   julie --model over:3 --write-pnml over3.pnml
//
// Subcommands (portfolio verification service, src/service/):
//   julie batch bench/portfolio.manifest --report out.json
//   julie serve --pool-threads 4
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "mc/ctl.hpp"
#include "models/models.hpp"
#include "obs/diag.hpp"
#include "obs/event_log.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "parser/net_format.hpp"
#include "parser/pnml.hpp"
#include "petri/dot.hpp"
#include "petri/structure.hpp"
#include "reach/explorer.hpp"
#include "reduce/reduce.hpp"
#include "safety/safety.hpp"
#include "service/service_cli.hpp"
#include "util/parse_number.hpp"

namespace {

using gpo::engine::EngineOutcome;
using gpo::petri::PetriNet;

/// The engine table's names joined by `sep`, e.g. for the usage text.
std::string engine_list(const char* sep) {
  std::string out;
  for (const std::string& e : gpo::engine::names())
    out += (out.empty() ? "" : sep) + e;
  return out;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] [net-file(.net|.pnml)]\n"
      << "       " << argv0 << " batch <manifest> [--report FILE]\n"
      << "                     run a portfolio batch (engines racing with\n"
      << "                     first-to-answer cancellation); see\n"
      << "                     `" << argv0 << " batch --help`\n"
      << "       " << argv0 << " serve [--pool-threads N]\n"
      << "                     line-protocol verification server on\n"
      << "                     stdin/stdout (CHECK/VERDICT)\n"
      << "  --model NAME:N     built-in model instead of a net file; NAME in\n"
      << "                     {nsdp, asat, over, rw, diamond, chain,\n"
      << "                      fig3, fig5, fig7}\n"
      << "  --engine E         " << engine_list(" | ") << " | all\n"
      << "                     (default: gpo)\n"
      << "  --family-store S   zdd | explicit — family storage backend for\n"
      << "                     the gpo/gpo-intern engines (default zdd:\n"
      << "                     canonical set families as shared\n"
      << "                     zero-suppressed DDs, r0 built from the\n"
      << "                     conflict graph without listing its sets;\n"
      << "                     explicit lists r0 and fails past its cap,\n"
      << "                     e.g. nsdp:12 and up)\n"
      << "  --reduce L         off | safe | aggressive — structural net\n"
      << "                     reduction before the deadlock engines run\n"
      << "                     (default off). The engines analyze the\n"
      << "                     reduced net; the verdict transfers through\n"
      << "                     the reduction certificate and deadlock\n"
      << "                     counterexamples are replayed on the original\n"
      << "                     net as an acceptance check. Not applied to\n"
      << "                     --safety/--ctl/--liveness/--structure, which\n"
      << "                     inspect original-net markings\n"
      << "  --safety P1,P2,..  check 'P1..Pk never simultaneously marked'\n"
      << "                     via the deadlock reduction (uses --engine;\n"
      << "                     any engine but unfold)\n"
      << "  --liveness         report transitions that can never fire\n"
      << "  --structure        siphon/trap and invariant analysis\n"
      << "  --max-states N     state cap for explicit engines\n"
      << "  --max-seconds S    wall-clock cap per engine\n"
      << "  --threads N        worker threads for the exhaustive engine\n"
      << "                     (full, also under --engine all and\n"
      << "                     --liveness); the result, counterexample\n"
      << "                     included, does not depend on N (default 1,\n"
      << "                     at most 256)\n"
      << "  --stats            print per-engine telemetry counters on stderr\n"
      << "                     (states/sec, peak frontier, interner dedup,\n"
      << "                     op-cache hit rate)\n"
      << "  --progress [SECS]  heartbeat on stderr every SECS seconds\n"
      << "                     (default 1): states/sec, frontier, peak RSS,\n"
      << "                     interner occupancy, current phase\n"
      << "  --report FILE      write a machine-readable JSON run report\n"
      << "                     (schema: bench/report_schema.json)\n"
      << "  --events FILE      write a JSONL event log (span open/close\n"
      << "                     records with monotonic timestamps; validate\n"
      << "                     with bench/validate_report.py --events)\n"
      << "  --trace FILE       write the phase tree as chrome://tracing JSON\n"
      << "  --dot FILE         write the net structure as Graphviz DOT\n"
      << "  --write-net FILE   serialize the net in .net format\n"
      << "  --write-pnml FILE  serialize the net as PNML\n"
      << "  --quiet            one summary line per engine only (stdout);\n"
      << "                     diagnostics stay on stderr\n";
  return 2;
}

void print_outcome(const EngineOutcome& r) {
  std::cout << "  " << r.engine << ": ";
  if (r.aborted) {
    std::cout << "ABORTED (limit hit";
    if (!r.aborted_phase.empty()) std::cout << " in " << r.aborted_phase;
    std::cout << ")";
  } else {
    if (r.states >= 0) std::cout << "states=" << r.states << " ";
    if (r.peak_nodes > 0) std::cout << "peak-bdd=" << r.peak_nodes << " ";
    std::cout << (r.deadlock ? "DEADLOCK" : "no deadlock");
  }
  std::cout << "  (" << r.seconds << "s)\n";
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

void run_structure(const PetriNet& net) {
  using namespace gpo::petri;
  std::cout << "structural analysis:\n"
            << "  free choice: " << (is_free_choice(net) ? "yes" : "no")
            << "\n";
  auto stp = siphon_trap_property(net);
  std::cout << "  siphon-trap property: " << (stp.holds ? "holds" : "FAILS")
            << (stp.exhaustive ? "" : " (non-exhaustive)") << "\n";
  if (stp.counterexample_siphon) {
    std::cout << "    unprotected siphon: {";
    bool first = true;
    for (std::size_t p = stp.counterexample_siphon->find_first();
         p < stp.counterexample_siphon->size();
         p = stp.counterexample_siphon->find_next(p + 1)) {
      if (!first) std::cout << ",";
      std::cout << net.place(static_cast<PlaceId>(p)).name;
      first = false;
    }
    std::cout << "}\n";
  }
  bool complete = true;
  auto flows = place_semiflows(net, 1024, &complete);
  auto certified = safeness_certified_places(net, flows);
  std::cout << "  place semiflows: " << flows.size()
            << (complete ? "" : "+ (capped)") << "\n"
            << "  1-safeness certified structurally for " << certified.count()
            << "/" << net.place_count() << " places\n";
}

/// The one registry-driven stats formatter (replaces the former per-engine
/// hand-rolled printers): snapshots every counter the engine published under
/// its prefix and prints them in registration order — the same names, in the
/// same order, that `--report` serializes. Diagnostics go to stderr so
/// stdout stays one line per engine.
void print_engine_stats(const gpo::obs::MetricsRegistry& reg,
                        const std::string& engine,
                        const std::string& prefix) {
  auto snaps = reg.snapshot(prefix);
  if (snaps.empty()) return;
  std::ostringstream line;
  line << "  stats[" << engine << "]:";
  for (const auto& s : snaps) {
    line << ' ' << s.name.substr(prefix.size()) << '=';
    switch (s.kind) {
      case gpo::obs::MetricKind::kCounter:
        line << s.count;
        break;
      case gpo::obs::MetricKind::kGauge:
        line << s.value;
        break;
      case gpo::obs::MetricKind::kTimer:
        line << s.value << 's';
        break;
      case gpo::obs::MetricKind::kHistogram:
        line << "{n=" << s.count << " p50=" << s.p50 << "s p90=" << s.p90
             << "s p99=" << s.p99 << "s max=" << s.max << "s}";
        break;
    }
  }
  gpo::obs::diag_line(line.str());
}

void run_liveness(const PetriNet& net, std::size_t max_states,
                  double max_seconds, std::size_t num_threads) {
  gpo::reach::ExplorerOptions opt;
  opt.max_states = max_states;
  opt.max_seconds = max_seconds;
  opt.num_threads = num_threads;
  auto r = gpo::reach::ExplicitExplorer(net, opt).explore();
  if (r.limit_hit) {
    std::cout << "liveness: exploration hit its limit; results partial\n";
  }
  std::size_t dead = net.transition_count() - r.fireable_transitions.count();
  std::cout << "liveness: " << r.fireable_transitions.count() << "/"
            << net.transition_count() << " transitions fireable";
  if (dead > 0 && !r.limit_hit) {
    std::cout << "; dead:";
    for (gpo::petri::TransitionId t = 0; t < net.transition_count(); ++t)
      if (!r.fireable_transitions.test(t))
        std::cout << " " << net.transition(t).name;
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // Subcommand dispatch: `julie batch ...` / `julie serve ...` hand the rest
  // of argv to the service layer; everything else is the classic one-net CLI.
  if (argc > 1 && std::strcmp(argv[1], "batch") == 0)
    return gpo::service::batch_main(argc - 2, argv + 2);
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0)
    return gpo::service::serve_main(argc - 2, argv + 2);

  std::string engine = "gpo";
  // Unset unless --family-store names one: the engine table's default.
  std::optional<gpo::core::FamilyStore> family_store;
  gpo::reduce::ReduceLevel reduce_level = gpo::reduce::ReduceLevel::kOff;
  std::string model_spec;
  std::string net_file;
  std::string dot_file, write_net_file, write_pnml_file;
  std::string safety_spec;
  std::string ctl_spec;
  bool want_liveness = false, want_structure = false;
  std::size_t max_states = SIZE_MAX;
  double max_seconds = 300.0;
  std::size_t num_threads = 1;
  bool want_stats = false;
  bool quiet = false;
  double progress_secs = 0;  // 0 = no heartbeat
  std::string report_file, trace_file, events_file;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs an argument\n";
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "--model") {
      model_spec = next();
    } else if (arg == "--engine") {
      engine = next();
    } else if (arg == "--family-store") {
      std::string store = next();
      auto parsed = gpo::core::parse_family_store(store);
      if (!parsed) {
        std::cerr << "--family-store must be 'explicit' or 'zdd', got '"
                  << store << "'\n";
        return 2;
      }
      family_store = *parsed;
    } else if (arg == "--reduce") {
      std::string level = next();
      auto parsed = gpo::reduce::parse_reduce_level(level);
      if (!parsed) {
        std::cerr << "--reduce must be 'off', 'safe' or 'aggressive', got '"
                  << level << "'\n";
        return 2;
      }
      reduce_level = *parsed;
    } else if (arg == "--safety") {
      safety_spec = next();
    } else if (arg == "--ctl") {
      ctl_spec = next();
    } else if (arg == "--liveness") {
      want_liveness = true;
    } else if (arg == "--structure") {
      want_structure = true;
    } else if (arg == "--max-states") {
      max_states = gpo::util::parse_flag_number<std::size_t>(arg, next());
    } else if (arg == "--max-seconds") {
      max_seconds = gpo::util::parse_flag_number<double>(arg, next());
    } else if (arg == "--threads") {
      num_threads = gpo::util::parse_thread_count(arg, next());
      if (num_threads == 0) num_threads = 1;
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--progress") {
      progress_secs = 1.0;
      if (i + 1 < argc) {  // the SECS argument is optional
        char* end = nullptr;
        double v = std::strtod(argv[i + 1], &end);
        if (end != argv[i + 1] && *end == '\0' && v > 0) {
          progress_secs = v;
          ++i;
        }
      }
    } else if (arg == "--report") {
      report_file = next();
    } else if (arg == "--events") {
      events_file = next();
    } else if (arg == "--trace") {
      trace_file = next();
    } else if (arg == "--dot") {
      dot_file = next();
    } else if (arg == "--write-net") {
      write_net_file = next();
    } else if (arg == "--write-pnml") {
      write_pnml_file = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option " << arg << "\n";
      return usage(argv[0]);
    } else {
      net_file = arg;
    }
  }

  // Engine names are checked before any net is built or output file opened.
  if (engine != "all" && !gpo::engine::is_engine(engine)) {
    std::cerr << "unknown engine '" << engine << "'; use one of "
              << engine_list(", ") << " or all\n";
    return 2;
  }
  if (!safety_spec.empty() && !gpo::safety::supports_engine(engine)) {
    std::string accepted;
    for (const std::string& e : gpo::engine::names())
      if (gpo::safety::supports_engine(e))
        accepted += (accepted.empty() ? "" : ", ") + e;
    std::cerr << "--safety cannot run engine '" << engine
              << "'; use one of " << accepted << "\n";
    return 2;
  }

  // Only the exhaustive explorer is parallel; say so rather than silently
  // running the chosen engine on one thread.
  const bool threads_used =
      want_liveness || (safety_spec.empty() && ctl_spec.empty() &&
                        (engine == "full" || engine == "all"));
  if (num_threads > 1 && !threads_used)
    std::cerr << "warning: --threads applies to --engine full only; " << engine
              << " runs sequentially\n";

  // One registry + tracer for the whole run. Engines only pay for the live
  // counters when some telemetry sink (--stats/--progress/--report/--trace)
  // asked for them — otherwise they see null pointers.
  gpo::obs::MetricsRegistry registry;
  gpo::obs::Tracer tracer;
  const bool telemetry = want_stats || progress_secs > 0 ||
                         !report_file.empty() || !trace_file.empty() ||
                         !events_file.empty();
  gpo::obs::MetricsRegistry* reg = telemetry ? &registry : nullptr;
  gpo::obs::Tracer* tr = telemetry ? &tracer : nullptr;

  // Crash forensics: on a fatal signal or std::terminate, dump the live
  // span stack and watched metrics to stderr (async-signal-safe raw path;
  // see obs/postmortem.hpp). Installed unconditionally — it costs nothing
  // until something dies.
  gpo::obs::Postmortem::install();
  gpo::obs::Postmortem::set_context(tr, reg);

  // Structured JSONL event log: span open/close records flow through the
  // tracer's event sink. Opened before any Span is created so the log sees
  // the whole run.
  std::unique_ptr<gpo::obs::EventLog> events;
  if (!events_file.empty()) {
    try {
      events = std::make_unique<gpo::obs::EventLog>(events_file);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    tracer.set_event_sink(events.get());
  }

  gpo::obs::RunReport report("julie");
  {
    std::string cmd;
    for (int a = 0; a < argc; ++a) {
      if (a > 0) cmd += ' ';
      cmd += argv[a];
    }
    report.set_command(cmd);
  }
  if (!events_file.empty()) report.set_events_path(events_file);

  std::optional<gpo::obs::Heartbeat> heartbeat;
  if (progress_secs > 0) {
    heartbeat.emplace(registry, tr, progress_secs, std::cerr);
    heartbeat->start();
  }
  // Every exit path below goes through here, so the report/trace files get
  // written (and the heartbeat prints its final line) no matter which
  // analysis ran.
  auto finish = [&](int rc) {
    if (heartbeat) heartbeat->stop();
    if (events != nullptr) {
      tracer.set_event_sink(nullptr);  // no span may outlive the closed log
      events->close();
      if (!quiet) std::cout << "wrote " << events_file << "\n";
    }
    if (!report_file.empty()) {
      std::ofstream out(report_file);
      if (!out) {
        std::cerr << "cannot write " << report_file << "\n";
        if (rc == 0) rc = 1;
      } else {
        report.write(out, &tracer, &registry);
        if (!quiet) std::cout << "wrote " << report_file << "\n";
      }
    }
    if (!trace_file.empty()) {
      std::ofstream out(trace_file);
      if (!out) {
        std::cerr << "cannot write " << trace_file << "\n";
        if (rc == 0) rc = 1;
      } else {
        gpo::obs::write_chrome_trace(out, tracer.records());
        if (!quiet) std::cout << "wrote " << trace_file << "\n";
      }
    }
    return rc;
  };

  std::optional<PetriNet> net;
  try {
    gpo::obs::Span parse_span(tr, "parse");
    if (!model_spec.empty()) {
      try {
        net = gpo::models::make_by_spec(model_spec);
      } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return finish(2);
      }
      if (!net) {
        std::cerr << "unknown model '" << model_spec << "'\n";
        return finish(2);
      }
    } else if (!net_file.empty()) {
      bool is_pnml = net_file.size() >= 5 &&
                     net_file.substr(net_file.size() - 5) == ".pnml";
      net = is_pnml ? gpo::parser::parse_pnml_file(net_file)
                    : gpo::parser::parse_net_file(net_file);
    } else {
      return finish(usage(argv[0]));
    }
  } catch (const std::exception& e) {
    std::cerr << "error loading net: " << e.what() << "\n";
    return finish(1);
  }
  report.set_net(std::string(net->name()), net->place_count(),
                 net->transition_count());

  if (!quiet)
    std::cout << "net '" << net->name() << "': " << net->place_count()
              << " places, " << net->transition_count() << " transitions\n";

  auto write_file = [&](const std::string& path, auto writer) {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    writer(out);
    if (!quiet) std::cout << "wrote " << path << "\n";
    return true;
  };
  if (!write_file(dot_file,
                  [&](std::ostream& o) { gpo::petri::write_net_dot(o, *net); }))
    return finish(1);
  if (!write_file(write_net_file,
                  [&](std::ostream& o) { gpo::parser::write_net(o, *net); }))
    return finish(1);
  if (!write_file(write_pnml_file,
                  [&](std::ostream& o) { gpo::parser::write_pnml(o, *net); }))
    return finish(1);

  if (want_structure) {
    gpo::obs::Span span(tr, "structure");
    run_structure(*net);
  }
  if (want_liveness) {
    gpo::obs::Span span(tr, "liveness");
    run_liveness(*net, max_states, max_seconds, num_threads);
  }

  if (!ctl_spec.empty()) {
    try {
      gpo::obs::Span span(tr, "ctl");
      gpo::mc::CtlOptions opt;
      opt.max_states = max_states == SIZE_MAX ? 5'000'000 : max_states;
      auto r = gpo::mc::check_ctl(*net, ctl_spec, opt);
      std::cout << "CTL '" << ctl_spec << "': "
                << (r.holds ? "holds" : "FAILS") << " ("
                << r.satisfying_states << "/" << r.state_count
                << " states satisfy it"
                << (r.limit_hit ? ", state limit hit" : "") << ")\n";
      if (!r.holds && !r.counterexample.empty()) {
        std::cout << "  counterexample:";
        for (auto t : r.counterexample)
          std::cout << " " << net->transition(t).name;
        std::cout << "\n";
      }
      return finish(r.holds ? 0 : 10);
    } catch (const std::exception& e) {
      std::cerr << "CTL error: " << e.what() << "\n";
      return finish(2);
    }
  }

  if (!safety_spec.empty()) {
    gpo::safety::SafetyProperty prop;
    for (const std::string& name : split_csv(safety_spec)) {
      auto p = net->find_place(name);
      if (p == gpo::petri::kInvalidPlace) {
        std::cerr << "unknown place '" << name << "' in --safety\n";
        return 2;
      }
      prop.never_all_marked.push_back(p);
    }
    gpo::safety::SafetyOptions opt;
    opt.max_states = max_states;
    opt.max_seconds = max_seconds;
    opt.family_store = family_store;
    opt.metrics = reg;
    opt.tracer = tr;
    opt.engine = engine;
    gpo::safety::SafetyResult r;
    try {
      r = gpo::safety::check_safety(*net, prop, opt);
    } catch (const std::exception& e) {
      std::cout << "safety '" << safety_spec << "': failed: " << e.what()
                << "\n";
      return finish(1);
    }
    std::cout << "safety '" << safety_spec << "': "
              << (r.violated ? "VIOLATED" : (r.limit_hit ? "UNDECIDED (limit)"
                                                         : "holds"))
              << " (" << r.states_explored << " states, " << r.seconds
              << "s)\n";
    if (r.witness)
      std::cout << "  witness: "
                << gpo::reach::marking_to_string(*net, *r.witness) << "\n";
    if (want_stats) print_engine_stats(registry, engine, "safety.");
    gpo::obs::RunReport::EngineRun er;
    er.engine = engine;
    er.model = model_spec.empty() ? net_file : model_spec;
    er.verdict =
        r.violated ? "violated" : (r.limit_hit ? "undecided" : "holds");
    er.states = static_cast<double>(r.states_explored);
    er.seconds = r.seconds;
    er.aborted = r.limit_hit;
    er.aborted_phase = r.interrupted_phase;
    er.counters = gpo::obs::registry_to_json(registry, "safety.");
    report.add_engine(std::move(er));
    return finish(r.violated ? 10 : r.limit_hit ? 1 : 0);
  }

  // Structural reduction, applied ONCE here so every engine sees the same
  // (smaller) net; engines analyze whichever net they are given.
  // The verdict transfers through the certificate; counterexamples are mapped
  // back and replayed on the original net below (replay is the acceptance
  // oracle). Property analyses above run on the original net.
  std::optional<PetriNet> reduced;
  std::optional<gpo::reduce::ReductionCertificate> certificate;
  const PetriNet* analysis_net = &*net;
  if (reduce_level != gpo::reduce::ReduceLevel::kOff) {
    gpo::obs::Span span(tr, "reduce");
    gpo::reduce::ReduceOptions ro;
    ro.level = reduce_level;
    ro.metrics = reg;
    ro.tracer = tr;
    auto red = gpo::reduce::reduce_net(*net, ro);
    if (!quiet)
      std::cout << "reduce(" << gpo::reduce::reduce_level_name(reduce_level)
                << "): " << red.stats.places_before << "p/"
                << red.stats.transitions_before << "t -> "
                << red.stats.places_after << "p/"
                << red.stats.transitions_after << "t in "
                << red.stats.iterations << " sweeps ("
                << red.stats.seconds << "s)\n";
    if (want_stats) print_engine_stats(registry, "reduce", "reduce.");
    report.set_reduction(gpo::reduce::to_report_run(red.stats));
    reduced = std::move(red.net);
    certificate = std::move(red.certificate);
    analysis_net = &*reduced;
  }

  // Certificate acceptance: map a reduced-net deadlock counterexample back
  // and replay it on the original net. A failure here is a reduction bug, not
  // a property of the net — surface it loudly and fail the run.
  bool certificate_violation = false;
  auto accept_counterexample = [&](const EngineOutcome& out) {
    if (!certificate || out.counterexample.empty()) return;
    if (!gpo::reduce::map_counterexample(*net, *certificate,
                                         out.counterexample)
             .deadlock.has_value()) {
      std::cerr << "ERROR: " << out.engine << " counterexample does not "
                << "replay to a deadlock on the original net (reduction "
                << "certificate violation)\n";
      certificate_violation = true;
    }
  };

  // The verdict contract: engines that reached a verdict set the exit code
  // (10 on any deadlock, else 0); a run where none did exits 1.
  bool any_verdict = false;
  bool any_deadlock = false;
  auto run_one = [&](const std::string& e) {
    const std::string prefix = "engine." + e + ".";
    if (reg != nullptr) {
      // The live-progress slots are shared between engines; reset them so
      // the heartbeat shows per-engine progress under --engine all.
      reg->counter("progress.states").store(0);
      reg->gauge("progress.frontier").set(0);
    }
    gpo::obs::Span span(tr, "engine/" + e);
    gpo::obs::RunReport::EngineRun er;
    er.engine = e;
    er.model = model_spec.empty() ? net_file : model_spec;
    gpo::engine::EngineRequest req;
    req.max_states = max_states;
    req.max_seconds = max_seconds;
    req.threads = num_threads;
    if (family_store) req.family_store = *family_store;
    req.metrics = reg;
    req.metrics_prefix = prefix;
    req.tracer = tr;
    EngineOutcome out;
    try {
      out = gpo::engine::run(e, *analysis_net, req);
    } catch (const std::exception& ex) {
      std::cout << "  " << e << ": failed: " << ex.what() << "\n";
      er.verdict = "failed";
      er.aborted = true;
      report.add_engine(std::move(er));
      return;
    }
    if (out.deadlock) accept_counterexample(out);
    if (out.unsafe_net) gpo::obs::diag_line("  WARNING: net is not 1-safe");
    any_verdict |= out.conclusive;
    any_deadlock |= out.conclusive && out.deadlock;
    print_outcome(out);
    // A limit abort is the "soft crash" case: leave the same forensic
    // breadcrumbs (phase, metrics) the fatal-signal handler would.
    if (out.aborted && telemetry) {
      std::string reason = "limit hit";
      if (!out.aborted_phase.empty()) reason += " in " + out.aborted_phase;
      gpo::obs::Postmortem::dump(reason);
    }
    if (want_stats) print_engine_stats(registry, e, prefix);
    er.verdict = out.verdict;
    er.states = out.states;
    er.seconds = out.seconds;
    er.aborted = out.aborted;
    er.aborted_phase = out.aborted_phase;
    er.counters = gpo::obs::registry_to_json(registry, prefix);
    report.add_engine(std::move(er));
  };

  if (engine == "all") {
    for (const std::string& e : gpo::engine::names()) run_one(e);
  } else {
    run_one(engine);
  }
  if (certificate_violation || !any_verdict) return finish(1);
  return finish(any_deadlock ? 10 : 0);
}
