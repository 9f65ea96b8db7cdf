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
// --threads N runs the exhaustive "States" column on the parallel sharded
// explorer with N workers (counts are identical to the sequential engine).
// --report FILE additionally writes the schema-stable JSON run report
// (bench/report_schema.json) shared with `julie --report`.
// --reduce L (safe|aggressive) runs the structural net-reduction pipeline
// once per instance and feeds every engine the reduced net (verdicts are
// preserved by construction; see src/reduce/). The CSV gains the
// before/after place and transition counts plus the reduction time.
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/symbolic_reach.hpp"
#include "core/gpo.hpp"
#include "models/models.hpp"
#include "obs/report.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"
#include "reduce/reduce.hpp"

namespace {

using gpo::petri::PetriNet;

struct Cell {
  double value = 0;   // states or nodes
  double seconds = 0;
  bool aborted = false;
  bool deadlock = false;
};

struct Row {
  std::string problem;
  Cell full, por, smv, gpo;
  double smv_states = -1;  // the smv cell's value is peak nodes
  std::size_t gpo_delegated = 0;
  // --reduce: pre-engine net shrink (before == after when off / no-op).
  std::size_t places_before = 0, places_after = 0;
  std::size_t transitions_before = 0, transitions_after = 0;
  double reduce_seconds = 0;
};

std::string fmt_count(const Cell& c) {
  if (c.aborted) return "> cap";
  std::ostringstream ss;
  if (c.value >= 1e7)
    ss << std::scientific << std::setprecision(2) << c.value;
  else
    ss << static_cast<long long>(c.value);
  return ss.str();
}

std::string fmt_time(const Cell& c) {
  if (c.aborted) return "-";
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(c.seconds < 0.01 ? 4 : 2) << c.seconds;
  return ss.str();
}

Row run_row(const std::string& name, const PetriNet& net, double budget,
            std::size_t threads,
            gpo::obs::MetricsRegistry* reg) {
  // Each engine publishes its counters under its default prefix ("full.",
  // "por.", "bdd.", "gpo.") into the per-row registry for --report.
  Row row;
  row.problem = name;

  {
    gpo::reach::ExplorerOptions opt;
    opt.max_seconds = budget;
    opt.max_states = 50'000'000;
    opt.num_threads = threads;
    opt.metrics = reg;
    auto r = gpo::reach::ExplicitExplorer(net, opt).explore();
    row.full = {static_cast<double>(r.state_count), r.seconds, r.limit_hit,
                r.deadlock_found};
  }
  {
    gpo::por::StubbornOptions opt;
    opt.max_seconds = budget;
    opt.metrics = reg;
    auto r = gpo::por::StubbornExplorer(net, opt).explore();
    row.por = {static_cast<double>(r.state_count), r.seconds, r.limit_hit,
               r.deadlock_found};
  }
  {
    gpo::bdd::SymbolicOptions opt;
    opt.max_seconds = budget;
    opt.metrics = reg;
    auto r = gpo::bdd::SymbolicReachability(net, opt).analyze();
    row.smv = {static_cast<double>(r.peak_nodes), r.seconds, r.blowup,
               r.deadlock_found};
    row.smv_states = r.state_count;
  }
  {
    gpo::core::GpoOptions opt;
    opt.max_seconds = budget;
    opt.metrics = reg;
    auto r = gpo::core::run_gpo(net, gpo::core::FamilyKind::kBdd, opt);
    row.gpo = {static_cast<double>(r.state_count), r.seconds, r.limit_hit,
               r.deadlock_found};
    row.gpo_delegated = r.delegated_states;
  }
  return row;
}

gpo::obs::RunReport::EngineRun engine_run(const std::string& engine,
                                          const std::string& model,
                                          const Cell& c, double states,
                                          const gpo::obs::MetricsRegistry& reg,
                                          const std::string& prefix) {
  gpo::obs::RunReport::EngineRun er;
  er.engine = engine;
  er.model = model;
  er.verdict =
      c.aborted ? "aborted" : (c.deadlock ? "deadlock" : "no-deadlock");
  er.states = states;
  er.seconds = c.seconds;
  er.aborted = c.aborted;
  er.counters = gpo::obs::registry_to_json(reg, prefix);
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
    if (!std::strcmp(argv[i], "--quick")) quick = true;
    if (!std::strcmp(argv[i], "--max-seconds") && i + 1 < argc)
      budget = std::stod(argv[++i]);
    if (!std::strcmp(argv[i], "--csv") && i + 1 < argc) csv_path = argv[++i];
    if (!std::strcmp(argv[i], "--report") && i + 1 < argc)
      report_path = argv[++i];
    if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = std::stoul(argv[++i]);
      if (threads == 0) threads = 1;
    }
    if (!std::strcmp(argv[i], "--reduce") && i + 1 < argc) {
      auto level = gpo::reduce::parse_reduce_level(argv[++i]);
      if (!level.has_value()) {
        std::cerr << "--reduce must be off, safe or aggressive, got '"
                  << argv[i] << "'\n";
        return 2;
      }
      reduce_level = *level;
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
    std::optional<PetriNet> reduced;
    Row red_stats;
    if (reducing) {
      gpo::reduce::ReduceOptions ro;
      ro.level = reduce_level;
      gpo::reduce::ReductionResult red = gpo::reduce::reduce_net(inst.net, ro);
      red_stats.places_before = red.stats.places_before;
      red_stats.places_after = red.stats.places_after;
      red_stats.transitions_before = red.stats.transitions_before;
      red_stats.transitions_after = red.stats.transitions_after;
      red_stats.reduce_seconds = red.stats.seconds;
      reduced.emplace(std::move(red.net));
      net = &*reduced;
    }
    Row row = run_row(inst.label, *net, budget, threads,
                      report_path.empty() ? nullptr : &reg);
    row.places_before = red_stats.places_before;
    row.places_after = red_stats.places_after;
    row.transitions_before = red_stats.transitions_before;
    row.transitions_after = red_stats.transitions_after;
    row.reduce_seconds = red_stats.reduce_seconds;
    std::cout << std::left << std::setw(10) << row.problem << std::right;
    if (reducing) {
      std::ostringstream nets;
      nets << row.places_before << "p/" << row.transitions_before << "t->"
           << row.places_after << "p/" << row.transitions_after << "t";
      std::cout << std::setw(20) << nets.str();
    }
    std::cout << std::setw(10) << fmt_count(row.full)       //
              << std::setw(10) << fmt_count(row.por)        //
              << std::setw(9) << fmt_time(row.por)          //
              << std::setw(12) << fmt_count(row.smv)        //
              << std::setw(9) << fmt_time(row.smv)          //
              << std::setw(11) << fmt_count(row.gpo)        //
              << std::setw(9) << fmt_time(row.gpo)          //
              << std::setw(11) << row.gpo_delegated << "\n"
              << std::flush;
    csv << row.problem << ',' << row.full.value << ',' << row.full.seconds
        << ',' << row.por.value << ',' << row.por.seconds << ','
        << row.smv.value << ',' << row.smv.seconds << ',' << row.gpo.value
        << ',' << row.gpo.seconds << ',' << row.gpo_delegated;
    if (reducing)
      csv << ',' << row.places_before << ',' << row.places_after << ','
          << row.transitions_before << ',' << row.transitions_after << ','
          << row.reduce_seconds;
    csv << "\n";
    if (!report_path.empty()) {
      report.add_engine(
          engine_run("full", inst.label, row.full, row.full.value, reg,
                     "full."));
      report.add_engine(
          engine_run("por", inst.label, row.por, row.por.value, reg, "por."));
      report.add_engine(
          engine_run("bdd", inst.label, row.smv, row.smv_states, reg, "bdd."));
      report.add_engine(
          engine_run("gpo-bdd", inst.label, row.gpo, row.gpo.value, reg,
                     "gpo."));
    }
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
