// gpobench_probe — the traced half of the benchmark. Calls each layer's
// public functions in-process, wraps every call in a span of the benchmark's
// own Tracer ("<layer>/<what>"), and prints the per-layer metrics as one JSON
// object on stdout. Spans stay in memory and are written as a chrome://tracing
// file at exit; each layer's self time (span time minus child spans) is part
// of the printed metrics. No span is added inside the engines: the ones the
// engines already open ("reduced-search", ...) nest under the benchmark's.
//
//   gpobench_probe gpo   TRACE_OUT CELL...             core, bdd, petri
//   gpobench_probe reach TRACE_OUT SEED STEPS CELL...  reach, por, petri, util
//   gpobench_probe serve TRACE_OUT POOL JOB_FILE       service
//
// A CELL is "model,engine[,option=value...]" with options store=zdd and
// threads=N. A JOB_FILE holds one "<due-seconds> <manifest job line>" per
// line, the job line being what follows CHECK on the serve wire.
// Besides the metrics, the JSON carries "checks": what each call answered, so
// run.py can compare verdicts and state counts with its table.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdd/symbolic_reach.hpp"
#include "core/gpo.hpp"
#include "core/zdd_family.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "petri/conflict.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"
#include "service/manifest.hpp"
#include "service/scheduler.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Cell {
  std::string text;  // as given on the command line
  std::string model;
  std::string engine;
  std::string store;  // "" = engine default
  std::size_t threads = 1;
};

Cell parse_cell(const std::string& text) {
  Cell c;
  c.text = text;
  std::vector<std::string> parts;
  std::stringstream ss(text);
  for (std::string p; std::getline(ss, p, ',');) parts.push_back(p);
  if (parts.size() < 2) throw std::invalid_argument("bad cell '" + text + "'");
  c.model = parts[0];
  c.engine = parts[1];
  for (std::size_t i = 2; i < parts.size(); ++i) {
    const std::string& kv = parts[i];
    if (kv.rfind("store=", 0) == 0)
      c.store = kv.substr(6);
    else if (kv.rfind("threads=", 0) == 0)
      c.threads = std::stoul(kv.substr(8));
    else
      throw std::invalid_argument("bad cell option '" + kv + "'");
  }
  return c;
}

gpo::petri::PetriNet load(const std::string& model) {
  auto net = gpo::models::make_by_spec(model);
  if (!net) throw std::invalid_argument("unknown model '" + model + "'");
  return std::move(*net);
}

/// Ordered metric sink plus the per-call check records, printed as JSON.
class Output {
 public:
  void set(const std::string& name, double v) { slot(name) = v; }
  void add(const std::string& name, double v) { slot(name) += v; }
  void check(const std::string& call, const std::string& verdict,
             double states) {
    checks_.push_back({call, verdict, states});
  }
  void print() const {
    std::printf("{\"metrics\": {");
    const char* sep = "";
    for (const std::string& n : order_) {
      std::printf("%s\"%s\": %.17g", sep, n.c_str(), values_.at(n));
      sep = ", ";
    }
    std::printf("}, \"checks\": [");
    sep = "";
    for (const Check& c : checks_) {
      std::printf("%s{\"call\": \"%s\", \"verdict\": \"%s\", \"states\": %.17g}",
                  sep, c.call.c_str(), c.verdict.c_str(), c.states);
      sep = ", ";
    }
    std::printf("]}\n");
  }

 private:
  struct Check {
    std::string call, verdict;
    double states;
  };
  double& slot(const std::string& name) {
    auto [it, fresh] = values_.emplace(name, 0.0);
    if (fresh) order_.push_back(name);
    return it->second;
  }
  std::map<std::string, double> values_;
  std::vector<std::string> order_;
  std::vector<Check> checks_;
};

/// Summed duration of the spans named `name` below span index `root`
/// (0-based), in milliseconds.
double child_span_ms(const std::vector<gpo::obs::Tracer::Record>& recs,
                     std::size_t root, const std::string& name) {
  double ms = 0;
  for (std::size_t i = root + 1; i < recs.size(); ++i) {
    if (recs[i].name != name) continue;
    for (std::uint32_t p = recs[i].parent; p != 0; p = recs[p - 1].parent)
      if (p - 1 == root) {
        ms += static_cast<double>(recs[i].dur_us) / 1e3;
        break;
      }
  }
  return ms;
}

/// "<layer>.self_ms" for every layer: a span belongs to the layer named
/// before the '/' of its name, or to its parent's layer (engine-internal
/// spans). Self time is the span's duration minus its children's.
void layer_self_times(const std::vector<gpo::obs::Tracer::Record>& recs,
                      Output& out) {
  std::vector<std::string> layer(recs.size());
  std::vector<double> self(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    std::size_t slash = recs[i].name.find('/');
    if (slash != std::string::npos)
      layer[i] = recs[i].name.substr(0, slash);
    else if (recs[i].parent != 0)
      layer[i] = layer[recs[i].parent - 1];
    self[i] = static_cast<double>(recs[i].dur_us) / 1e3;
    if (recs[i].parent != 0) self[recs[i].parent - 1] -= self[i];
  }
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (!layer[i].empty()) out.add(layer[i] + ".self_ms", self[i]);
}

const char* verdict_of(bool deadlock) {
  return deadlock ? "deadlock" : "no-deadlock";
}

// -- gpo: conflict analysis, r0, run_gpo, symbolic reachability -------------

template <typename Context>
double time_r0(gpo::obs::Tracer& tr, const std::string& what,
               const Context& ctx, const gpo::petri::ConflictInfo& ci) {
  gpo::obs::Span span(&tr, "core/r0 " + what);
  Clock::time_point t0 = Clock::now();
  auto r0 = ctx.initial_valid_sets(ci);
  double ms = ms_since(t0);
  if (r0.is_empty()) throw std::runtime_error("empty r0 for " + what);
  return ms;
}

void probe_gpo(const std::vector<Cell>& cells, gpo::obs::Tracer& tr,
               Output& out) {
  double engine_s = 0;
  for (const Cell& c : cells) {
    const gpo::petri::PetriNet net = load(c.model);
    const std::size_t nt = net.transition_count();
    std::optional<gpo::petri::ConflictInfo> ci;
    {
      gpo::obs::Span span(&tr, "petri/conflict " + c.model);
      Clock::time_point t0 = Clock::now();
      ci.emplace(net);
      out.add("petri.conflict_ms", ms_since(t0));
    }
    if (c.engine == "bdd") {
      gpo::bdd::SymbolicResult r;
      {
        gpo::obs::Span span(&tr, "bdd/symbolic " + c.text);
        Clock::time_point t0 = Clock::now();
        r = gpo::bdd::SymbolicReachability(net).analyze();
        out.add("bdd.symbolic_ms", ms_since(t0));
      }
      out.add("bdd.symbolic_peak_nodes", static_cast<double>(r.peak_nodes));
      out.add("bdd.symbolic_iterations", static_cast<double>(r.iterations));
      engine_s += r.seconds;
      out.check(c.text, r.blowup ? "aborted" : verdict_of(r.deadlock_found),
                r.state_count);
      continue;
    }
    const bool zdd = c.store == "zdd";
    gpo::core::FamilyKind kind;
    if (c.engine == "gpo")
      kind = gpo::core::FamilyKind::kExplicit;
    else if (c.engine == "gpo-bdd")
      kind = gpo::core::FamilyKind::kBdd;
    else if (c.engine == "gpo-intern")
      kind = gpo::core::FamilyKind::kInterned;
    else
      throw std::invalid_argument("gpo probe: unsupported engine " + c.engine);

    // r0 on the representation this cell's engine uses.
    if (kind == gpo::core::FamilyKind::kBdd) {
      gpo::core::BddFamily::Context ctx(nt);
      out.add("core.r0_ms", time_r0(tr, c.text, ctx, *ci));
    } else if (zdd) {
      gpo::core::ZddFamily::Context ctx(nt);
      out.add("core.r0_ms", time_r0(tr, c.text, ctx, *ci));
    } else if (kind == gpo::core::FamilyKind::kInterned) {
      gpo::core::InternedFamily::Context ctx(nt);
      out.add("core.r0_ms", time_r0(tr, c.text, ctx, *ci));
    } else {
      gpo::core::ExplicitFamily::Context ctx(nt);
      out.add("core.r0_ms", time_r0(tr, c.text, ctx, *ci));
    }

    gpo::obs::MetricsRegistry reg;
    gpo::core::GpoOptions opt;
    opt.metrics = &reg;
    opt.metrics_prefix = "gpo.";
    opt.tracer = &tr;
    if (zdd) opt.family_store = gpo::core::FamilyStore::kZdd;
    const std::size_t root = tr.records().size();
    gpo::core::GpoResult r;
    {
      gpo::obs::Span span(&tr, "core/run_gpo " + c.text);
      Clock::time_point t0 = Clock::now();
      r = gpo::core::run_gpo(net, kind, opt);
      out.add("core.run_gpo_ms", ms_since(t0));
    }
    const auto recs = tr.records();
    out.add("core.reduced_search_ms", child_span_ms(recs, root, "reduced-search"));
    out.add("core.ignoring_guard_ms", child_span_ms(recs, root, "ignoring-guard"));
    out.add("core.delegated_search_ms",
            child_span_ms(recs, root, "delegated-search"));
    out.add("core.mcs_ms", reg.value("gpo.mcs_seconds").value_or(0) * 1e3);
    out.add("core.family_ops_ms",
            reg.value("gpo.family_ops_seconds").value_or(0) * 1e3);
    out.add("core.gpn_states", static_cast<double>(r.state_count));
    out.add("core.multiple_steps", static_cast<double>(r.multiple_steps));
    const gpo::core::GpoFamilyStats& fs = r.family_stats;
    if (fs.available) {
      out.add("bdd.family_nodes", static_cast<double>(
                                      fs.backend == "zdd" ? fs.zdd_nodes
                                                          : fs.distinct_families));
      out.add("bdd.families_bytes", static_cast<double>(fs.families_bytes));
      out.add("bdd.cache_hits", static_cast<double>(fs.op_cache_hits));
      out.add("bdd.cache_lookups",
              static_cast<double>(fs.op_cache_hits + fs.op_cache_misses));
      out.add("bdd.cache_evictions", static_cast<double>(fs.op_cache_evictions));
    }
    engine_s += r.seconds;
    out.check(c.text, r.limit_hit ? "aborted" : verdict_of(r.deadlock_found),
              static_cast<double>(r.state_count));
  }
  out.set("engine_s", engine_s);
}

// -- reach: explicit and stubborn-set explorers, successor and hash cost ----

volatile std::uint64_t hash_sink = 0;

void random_walk(const gpo::petri::PetriNet& net, std::uint64_t seed,
                 std::size_t steps, gpo::obs::Tracer& tr, Output& out) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> picks(steps);
  for (std::uint32_t& p : picks) p = static_cast<std::uint32_t>(rng());

  // Untimed replay of the walk keeps a sample of the markings for hashing.
  std::vector<gpo::petri::Marking> sample;
  std::vector<gpo::petri::TransitionId> en;
  gpo::petri::Marking m = net.initial_marking();
  for (std::size_t i = 0; i < steps && sample.size() < 4096; ++i) {
    net.enabled_transitions(m, en);
    m = en.empty() ? net.initial_marking()
                   : net.fire(en[picks[i] % en.size()], m);
    sample.push_back(m);
  }

  std::size_t fired = 0;
  {
    gpo::obs::Span span(&tr, "petri/walk " + std::string(net.name()));
    m = net.initial_marking();
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < steps; ++i) {
      net.enabled_transitions(m, en);
      if (en.empty()) {
        m = net.initial_marking();
      } else {
        m = net.fire(en[picks[i] % en.size()], m);
        ++fired;
      }
    }
    out.add("walk_ns", ms_since(t0) * 1e6);
    out.add("walk_steps", static_cast<double>(steps));
  }
  if (fired == 0) throw std::runtime_error("random walk fired nothing");

  std::uint64_t sink = 0;
  const std::size_t reps = 64;
  {
    gpo::obs::Span span(&tr, "util/hash " + std::string(net.name()));
    Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r)
      for (const gpo::petri::Marking& s : sample) sink += s.hash_value(r);
    out.add("hash_ns", ms_since(t0) * 1e6);
    out.add("hash_calls", static_cast<double>(reps * sample.size()));
  }
  hash_sink = sink;  // keeps the hash loop from being optimized away
}

void probe_reach(const std::vector<Cell>& cells, std::uint64_t seed,
                 std::size_t steps, gpo::obs::Tracer& tr, Output& out) {
  double engine_s = 0;
  double seq_states = 0, seq_edges = 0, seq_s = 0;
  std::map<std::string, double> wall_1t, wall_nt;
  std::vector<std::string> walked;
  for (const Cell& c : cells) {
    const gpo::petri::PetriNet net = load(c.model);
    if (std::find(walked.begin(), walked.end(), c.model) == walked.end()) {
      walked.push_back(c.model);
      {
        gpo::obs::Span span(&tr, "petri/conflict " + c.model);
        Clock::time_point t0 = Clock::now();
        gpo::petri::ConflictInfo ci(net);
        out.add("petri.conflict_ms", ms_since(t0));
      }
      random_walk(net, seed + walked.size(), steps, tr, out);
    }
    gpo::obs::MetricsRegistry reg;
    if (c.engine == "full") {
      gpo::reach::ExplorerOptions opt;
      opt.num_threads = c.threads;
      opt.metrics = &reg;
      gpo::obs::Span span(&tr, "reach/explore " + c.text);
      Clock::time_point t0 = Clock::now();
      double call_ms = 0, engine_ms = 0;
      {
        gpo::reach::ExplorerResult r =
            gpo::reach::ExplicitExplorer(net, opt).explore();
        call_ms = ms_since(t0);
        engine_ms = r.seconds * 1e3;
        engine_s += r.seconds;
        if (c.threads == 1) {
          seq_states += static_cast<double>(r.state_count);
          seq_edges += static_cast<double>(r.edge_count);
          seq_s += r.seconds;
          wall_1t[c.model] = call_ms;
        } else {
          wall_nt[c.model] = call_ms;
          out.add("reach.steals", static_cast<double>(r.stats.steal_count));
        }
        out.check(c.text, r.limit_hit ? "aborted" : verdict_of(r.deadlock_found),
                  static_cast<double>(r.state_count));
      }
      // Teardown: the part of the call after the engine stopped its own
      // clock (visited-set release) plus destroying the result.
      out.add("reach.explore_ms", call_ms);
      out.add("reach.teardown_ms", ms_since(t0) - engine_ms);
    } else if (c.engine == "por") {
      gpo::por::StubbornOptions opt;
      opt.metrics = &reg;
      gpo::obs::Span span(&tr, "por/explore " + c.text);
      Clock::time_point t0 = Clock::now();
      gpo::reach::ExplorerResult r =
          gpo::por::StubbornExplorer(net, opt).explore();
      out.add("por.explore_ms", ms_since(t0));
      out.add("por.states", static_cast<double>(r.state_count));
      out.add("por_engine_s", r.seconds);
      engine_s += r.seconds;
      out.check(c.text, r.limit_hit ? "aborted" : verdict_of(r.deadlock_found),
                static_cast<double>(r.state_count));
    } else {
      throw std::invalid_argument("reach probe: unsupported engine " +
                                  c.engine);
    }
  }
  if (seq_s > 0) {
    out.set("reach.states_per_s", seq_states / seq_s);
    out.set("reach.edges_per_s", seq_edges / seq_s);
  }
  for (const auto& [model, ms] : wall_nt)
    if (wall_1t.count(model) != 0)
      out.set("reach.speedup_4t", wall_1t[model] / ms);
  out.set("engine_s", engine_s);
}

// -- serve: the open-loop job schedule replayed through one scheduler -------

void probe_serve(std::size_t pool, const std::string& job_file,
                 gpo::obs::Tracer& tr, Output& out) {
  std::ifstream in(job_file);
  if (!in) throw std::runtime_error("cannot read " + job_file);
  std::vector<std::pair<double, std::string>> jobs;
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    double due = 0;
    std::string rest;
    words >> due;
    std::getline(words >> std::ws, rest);
    if (!rest.empty()) jobs.emplace_back(due, rest);
  }

  gpo::service::SchedulerOptions so;
  so.pool_threads = pool;
  gpo::service::PortfolioScheduler sch(std::move(so));
  {
    gpo::obs::Span span(&tr, "service/replay");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(jobs[i].first)));
      gpo::obs::Span submit(&tr, "service/submit");
      (void)sch.submit(gpo::service::parse_job_line(jobs[i].second, i + 1));
    }
    sch.wait_all();
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    gpo::service::JobResult r = sch.wait(i);
    out.check(r.model, r.error.empty() ? r.verdict : "error", -1);
  }

  double wins = 0, started = 0;
  for (const auto& s : sch.service_metrics().snapshot("service.")) {
    if (s.name == "service.queue_wait_seconds") {
      out.set("service.queue_wait_p50_ms", s.p50 * 1e3);
      out.set("service.queue_wait_p99_ms", s.p99 * 1e3);
    } else if (s.name == "service.cancel_latency_seconds") {
      out.set("service.cancel_latency_p99_ms", s.p99 * 1e3);
    } else if (s.name == "service.job_seconds") {
      out.set("job_p50_s", s.p50);
    }
    const std::string pre = "service.engine.";
    if (s.name.rfind(pre, 0) != 0) continue;
    std::string rest = s.name.substr(pre.size());
    std::size_t dot = rest.rfind('.');
    std::string engine = rest.substr(0, dot), field = rest.substr(dot + 1);
    if (field == "wins") {
      out.set("service.wins." + engine, s.value);
      wins += s.value;
    } else if (field == "seconds") {
      out.set("service.racer_p50_ms." + engine, s.p50 * 1e3);
      started += static_cast<double>(s.count);
    }
  }
  out.set("service.racers_started", started);
  out.set("service.useful_racer_ratio", started == 0 ? 0 : wins / started);
}

int usage() {
  std::cerr << "usage: gpobench_probe gpo TRACE_OUT CELL...\n"
               "       gpobench_probe reach TRACE_OUT SEED STEPS CELL...\n"
               "       gpobench_probe serve TRACE_OUT POOL JOB_FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const std::string trace_out = argv[2];
  gpo::obs::Tracer tracer;
  Output out;
  try {
    if (mode == "gpo") {
      std::vector<Cell> cells;
      for (int i = 3; i < argc; ++i) cells.push_back(parse_cell(argv[i]));
      probe_gpo(cells, tracer, out);
    } else if (mode == "reach" && argc >= 5) {
      std::vector<Cell> cells;
      for (int i = 5; i < argc; ++i) cells.push_back(parse_cell(argv[i]));
      probe_reach(cells, std::stoull(argv[3]), std::stoul(argv[4]), tracer,
                  out);
    } else if (mode == "serve" && argc == 5) {
      probe_serve(std::stoul(argv[3]), argv[4], tracer, out);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "gpobench_probe: " << e.what() << "\n";
    return 1;
  }
  const auto records = tracer.records();
  layer_self_times(records, out);
  std::ofstream trace(trace_out);
  gpo::obs::write_chrome_trace(trace, records);
  if (!trace) {
    std::cerr << "gpobench_probe: cannot write " << trace_out << "\n";
    return 1;
  }
  out.print();
  return 0;
}
