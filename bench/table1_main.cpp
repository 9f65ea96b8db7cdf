// Regenerates Table 1 of the paper: for every instance of the four benchmark
// families (NSDP, ASAT, OVER, RW) it runs
//   * exhaustive reachability           -> "States" column,
//   * the stubborn-set explorer         -> "SPIN+PO" columns (states, time),
//   * symbolic (BDD) reachability       -> "SMV" columns (peak nodes, time),
//   * generalized partial-order analysis-> "GPO" columns (states, time),
// and prints the same rows the paper reports, plus a CSV dump
// (table1_results.csv) for downstream plotting. Engines that exceed the
// per-run budget are reported as ">cap", mirroring the paper's "> 24 hours"
// entries. GPO runs with the BDD-backed set family (the explicit family is
// covered by bench/ablation_family).
//
// Usage: bench_table1 [--quick] [--max-seconds S] [--csv FILE] [--threads N]
//                     [--report FILE] [--reduce L]
// --threads N runs the exhaustive "States" column on N threads (the result
// is identical to one thread's).
// --report FILE additionally writes the schema-stable JSON run report
// (bench/report_schema.json) shared with `julie --report`.
// --reduce L (safe|aggressive) runs the structural net-reduction pipeline
// once per instance and feeds every engine the reduced net (verdicts are
// preserved by construction; see src/reduce/). The CSV gains the
// before/after place and transition counts plus the reduction time.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "models/models.hpp"
#include "obs/report.hpp"
#include "reduce/reduce.hpp"
#include "util/parse_number.hpp"

namespace {

using gpo::petri::PetriNet;

using gpo::engine::EngineOutcome;

struct Row {
  std::string problem;
  EngineOutcome full, por, smv, gpo;
  std::size_t gpo_delegated = 0;
};

/// `value` is the cell's states, or the bdd cell's peak arena size.
std::string fmt_count(const EngineOutcome& o, double value) {
  if (o.aborted) return "> cap";
  std::ostringstream ss;
  if (value >= 1e7)
    ss << std::scientific << std::setprecision(2) << value;
  else
    ss << static_cast<long long>(value);
  return ss.str();
}

std::string fmt_time(const EngineOutcome& o) {
  if (o.aborted) return "-";
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(o.seconds < 0.01 ? 4 : 2)
     << o.seconds;
  return ss.str();
}

double peak(const EngineOutcome& o) {
  return static_cast<double>(o.peak_nodes);
}

Row run_row(const std::string& name, const PetriNet& net, double budget,
            std::size_t threads, gpo::obs::MetricsRegistry& reg) {
  // Each engine publishes its counters under "engine.<name>." into the
  // per-row registry, for --report and the GPO-deleg column.
  auto run = [&](const char* engine, std::size_t max_states = SIZE_MAX) {
    gpo::engine::EngineRequest req;
    req.max_seconds = budget;
    req.max_states = max_states;
    req.threads = threads;  // only the exhaustive engine uses it
    req.metrics = &reg;
    return gpo::engine::run(engine, net, req);
  };
  Row row;
  row.problem = name;
  row.full = run("full", 50'000'000);
  row.por = run("por");
  row.smv = run("bdd");
  row.gpo = run("gpo-bdd");
  row.gpo_delegated = reg.counter("engine.gpo-bdd.delegated_states").value();
  return row;
}

gpo::obs::RunReport::EngineRun engine_run(const std::string& model,
                                          const EngineOutcome& o,
                                          const gpo::obs::MetricsRegistry& reg) {
  gpo::obs::RunReport::EngineRun er;
  er.engine = o.engine;
  er.model = model;
  er.verdict = o.verdict;
  er.states = o.states;
  er.seconds = o.seconds;
  er.aborted = o.aborted;
  er.counters = gpo::obs::registry_to_json(reg, "engine." + o.engine + ".");
  return er;
}

}  // namespace

int main(int argc, char** argv) {
  double budget = 60.0;
  bool quick = false;
  std::size_t threads = 1;
  gpo::reduce::ReduceLevel reduce_level = gpo::reduce::ReduceLevel::kOff;
  std::string csv_path = "table1_results.csv";
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    using gpo::util::flag_value;
    if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strcmp(argv[i], "--max-seconds")) {
      budget = gpo::util::parse_flag_number<double>(
          "--max-seconds", flag_value(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--csv")) {
      csv_path = flag_value(argc, argv, i);
    } else if (!std::strcmp(argv[i], "--report")) {
      report_path = flag_value(argc, argv, i);
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = gpo::util::parse_flag_number<std::size_t>(
          "--threads", flag_value(argc, argv, i));
      if (threads == 0) threads = 1;
    } else if (!std::strcmp(argv[i], "--reduce")) {
      auto level = gpo::reduce::parse_reduce_level(flag_value(argc, argv, i));
      if (!level.has_value()) {
        std::cerr << "--reduce must be off, safe or aggressive, got '"
                  << argv[i] << "'\n";
        return 2;
      }
      reduce_level = *level;
    } else {
      gpo::util::unknown_flag(
          argv[i],
          "usage: bench_table1 [--quick] [--max-seconds S] [--csv FILE] "
          "[--threads N] [--report FILE] [--reduce L]");
    }
  }

  gpo::obs::RunReport report("bench_table1");
  {
    std::string cmd;
    for (int a = 0; a < argc; ++a) {
      if (a > 0) cmd += ' ';
      cmd += argv[a];
    }
    report.set_command(cmd);
  }

  struct Instance {
    std::string label;
    PetriNet net;
  };
  std::vector<Instance> instances;
  std::vector<std::size_t> nsdp_sizes = quick
                                            ? std::vector<std::size_t>{2, 4}
                                            : std::vector<std::size_t>{2, 4, 6,
                                                                       8, 10};
  for (std::size_t n : nsdp_sizes)
    instances.push_back({"NSDP(" + std::to_string(n) + ")",
                         gpo::models::make_nsdp(n)});
  for (std::size_t n : quick ? std::vector<std::size_t>{2}
                             : std::vector<std::size_t>{2, 4, 8})
    instances.push_back({"ASAT(" + std::to_string(n) + ")",
                         gpo::models::make_arbiter_tree(n)});
  for (std::size_t n : quick ? std::vector<std::size_t>{2, 3}
                             : std::vector<std::size_t>{2, 3, 4, 5})
    instances.push_back({"OVER(" + std::to_string(n) + ")",
                         gpo::models::make_overtake(n)});
  for (std::size_t n : quick ? std::vector<std::size_t>{6}
                             : std::vector<std::size_t>{6, 9, 12, 15})
    instances.push_back({"RW(" + std::to_string(n) + ")",
                         gpo::models::make_readers_writers(n)});
  // Extended evaluation beyond the paper's four families.
  for (std::size_t n : quick ? std::vector<std::size_t>{4}
                             : std::vector<std::size_t>{4, 8, 12})
    instances.push_back({"CYS(" + std::to_string(n) + ")",
                         gpo::models::make_cyclic_scheduler(n)});
  for (std::size_t n : quick ? std::vector<std::size_t>{4}
                             : std::vector<std::size_t>{4, 5, 6})
    instances.push_back({"RING(" + std::to_string(n) + ")",
                         gpo::models::make_slotted_ring(n)});

  std::cout << "Table 1 reproduction — Generalized Partial Order Analysis\n"
            << "(SPIN+PO proxied by the stubborn-set explorer, SMV by the\n"
            << " from-scratch BDD engine; see DESIGN.md for substitutions)\n";
  if (threads > 1)
    std::cout << "(exhaustive column: parallel explorer, " << threads
              << " threads)\n";
  const bool reducing = reduce_level != gpo::reduce::ReduceLevel::kOff;
  if (reducing)
    std::cout << "(all engines run on the "
              << gpo::reduce::reduce_level_name(reduce_level)
              << "-reduced net; Net column shows places/transitions "
                 "before -> after)\n";
  std::cout << "\n";
  std::cout << std::left << std::setw(10) << "Problem" << std::right;
  if (reducing) std::cout << std::setw(20) << "Net(p/t)";
  std::cout << std::setw(10) << "States"                      //
            << std::setw(10) << "PO-states" << std::setw(9) << "PO-t(s)"  //
            << std::setw(12) << "BDD-peak" << std::setw(9) << "BDD-t(s)"  //
            << std::setw(11) << "GPO-states" << std::setw(9) << "GPO-t(s)"
            << std::setw(11) << "GPO-deleg" << "\n";
  std::cout << std::string(reducing ? 111 : 91, '-') << "\n";

  std::ofstream csv(csv_path);
  csv << "problem,full_states,full_s,por_states,por_s,bdd_peak,bdd_s,"
         "gpo_states,gpo_s,gpo_delegated";
  if (reducing)
    csv << ",places_before,places_after,transitions_before,"
           "transitions_after,reduce_s";
  csv << "\n";

  for (const Instance& inst : instances) {
    // A fresh registry per instance keeps the four engines' counters from
    // accumulating across rows.
    gpo::obs::MetricsRegistry reg;
    const PetriNet* net = &inst.net;
    std::optional<gpo::reduce::ReductionResult> red;
    if (reducing) {
      gpo::reduce::ReduceOptions ro;
      ro.level = reduce_level;
      red.emplace(gpo::reduce::reduce_net(inst.net, ro));
      net = &red->net;
    }
    Row row = run_row(inst.label, *net, budget, threads, reg);
    std::cout << std::left << std::setw(10) << row.problem << std::right;
    if (reducing) {
      std::ostringstream nets;
      nets << red->stats.places_before << "p/"
           << red->stats.transitions_before << "t->"
           << red->stats.places_after << "p/"
           << red->stats.transitions_after << "t";
      std::cout << std::setw(20) << nets.str();
    }
    std::cout << std::setw(10) << fmt_count(row.full, row.full.states)  //
              << std::setw(10) << fmt_count(row.por, row.por.states)    //
              << std::setw(9) << fmt_time(row.por)                      //
              << std::setw(12) << fmt_count(row.smv, peak(row.smv))     //
              << std::setw(9) << fmt_time(row.smv)                      //
              << std::setw(11) << fmt_count(row.gpo, row.gpo.states)    //
              << std::setw(9) << fmt_time(row.gpo)                      //
              << std::setw(11) << row.gpo_delegated << "\n"
              << std::flush;
    csv << row.problem << ',' << row.full.states << ',' << row.full.seconds
        << ',' << row.por.states << ',' << row.por.seconds << ','
        << peak(row.smv) << ',' << row.smv.seconds << ',' << row.gpo.states
        << ',' << row.gpo.seconds << ',' << row.gpo_delegated;
    if (reducing)
      csv << ',' << red->stats.places_before << ','
          << red->stats.places_after << ','
          << red->stats.transitions_before << ','
          << red->stats.transitions_after << ',' << red->stats.seconds;
    csv << "\n";
    if (!report_path.empty())
      for (const EngineOutcome* o : {&row.full, &row.por, &row.smv, &row.gpo})
        report.add_engine(engine_run(inst.label, *o, reg));
  }
  std::cout << "\nCSV written to " << csv_path << "\n";
  if (!report_path.empty()) {
    std::ofstream out(report_path);
    if (!out) {
      std::cerr << "cannot write " << report_path << "\n";
      return 1;
    }
    report.write(out, nullptr, nullptr);
    std::cout << "report written to " << report_path << "\n";
  }
  return 0;
}
