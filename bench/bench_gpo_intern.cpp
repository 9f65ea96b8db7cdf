// Family-storage ablation driver: runs the GPO engine three times per model —
// the seed ExplicitFamily path (deep-copied families, per-probe re-hashing),
// FamilyKind::kInterned (hash-consed families, memoized op cache), and the
// ZDD-backed store (--family-store zdd: one canonical diagram per family) —
// over the Fig-1 diamond, Fig-2 conflict chain and the four Table-1 families,
// checks the verdicts match, and emits BENCH_gpo.json so the perf/memory
// trajectory can be charted across PRs.
//
// Usage: bench_gpo_intern [--smoke] [--slow] [--max-seconds S] [--out FILE]
//                         [--report FILE]
//   --smoke         small instances + tight budget (CI bench-smoke job)
//   --slow          also run zdd-only memory-wall rows (nsdp:10, chain:18)
//                   that the explicit backends cannot hold in RAM
//   --max-seconds   per-engine wall-clock budget (default 60)
//   --out           JSON output path (default BENCH_gpo.json)
//   --report        also write the schema-stable run report shared with
//                   `julie --report` (bench/report_schema.json)
//
// JSON schema (schema_version 5):
//   { "schema_version": 5, "benchmark": "bench_gpo_intern", "smoke": bool,
//     "models": [ { "model": str, "states": int, "seed_wall_ms": float,
//                   "interned_wall_ms": float, "zdd_wall_ms": float,
//                   "speedup": float, "mcs_enum_ms": float,
//                   "family_ops_ms": float, "peak_families": int,
//                   "intern_calls": int, "dedup_ratio": float,
//                   "op_cache_hit_rate": float, "families_bytes": int,
//                   "zdd_families_bytes": int, "zdd_nodes": int,
//                   "peak_rss_bytes": int, "zdd_only": bool,
//                   "reduce_ms": float, "reduced_places": int,
//                   "reduced_transitions": int, "reduced_wall_ms": float,
//                   "reduced_speedup": float,
//                   "verdicts_match": bool } ] }
//   The per-phase columns split the interned run's wall: mcs_enum_ms is the
//   candidate-MCS enumeration (plan_expansion incl. trial m_updates, the
//   engine's mcs_seconds timer), family_ops_ms the deadlock checks plus
//   successor construction (family_ops_seconds).
//   zdd_only rows skip the explicit/interned runs (their seed/interned
//   columns are 0) — they exist to chart the memory wall the ZDD store
//   breaks. peak_rss_bytes is the process high-water mark sampled after the
//   row, so it is monotone down the table; read it as "the run up to and
//   including this row fit in this much".
//   The reduced_* columns chart the net-reduction preprocessing pipeline
//   (src/reduce/, level aggressive): reduce_ms is the pipeline wall,
//   reduced_places/transitions the shrunk net, reduced_wall_ms the interned
//   engine re-run on the reduced net, and reduced_speedup the end-to-end
//   ratio interned_wall_ms / (reduce_ms + reduced_wall_ms). The reduced
//   run's verdict (and, on a deadlock, its certificate-mapped counterexample
//   replayed on the original net) folds into verdicts_match, so any
//   unsoundness in the pipeline fails the benchmark. zdd_only rows report
//   the shrink but skip the reduced engine re-run (reduced_wall_ms 0).
// Exit status: 0 on success, 1 on any verdict mismatch.
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/gpo.hpp"
#include "models/models.hpp"
#include "obs/report.hpp"
#include "reduce/reduce.hpp"
#include "util/parse_number.hpp"
#include "util/stopwatch.hpp"

namespace {

using gpo::petri::PetriNet;

struct Row {
  std::string model;
  std::size_t states = 0;
  double seed_ms = 0;
  double interned_ms = 0;
  double zdd_ms = 0;
  /// Interned-run phase split (from the engine's mcs_seconds /
  /// family_ops_seconds timers).
  double mcs_enum_ms = 0;
  double family_ops_ms = 0;
  std::size_t peak_families = 0;
  std::size_t intern_calls = 0;
  double dedup_ratio = 0;
  double op_cache_hit_rate = 0;
  std::size_t families_bytes = 0;
  std::size_t zdd_families_bytes = 0;
  std::size_t zdd_nodes = 0;
  /// Process high-water RSS after this row; monotone down the table.
  std::size_t peak_rss_bytes = 0;
  /// Memory-wall row (--slow): only the ZDD backend ran.
  bool zdd_only = false;
  bool verdicts_match = true;
  /// Net-reduction preprocessing (level aggressive): pipeline wall, shrunk
  /// net, and the interned engine re-run on the reduced net.
  double reduce_ms = 0;
  std::size_t reduced_places = 0;
  std::size_t reduced_transitions = 0;
  double reduced_wall_ms = 0;

  [[nodiscard]] double speedup() const {
    return interned_ms > 0 ? seed_ms / interned_ms : 0.0;
  }
  /// End-to-end: unreduced interned run vs reduce + reduced interned run.
  [[nodiscard]] double reduced_speedup() const {
    double total = reduce_ms + reduced_wall_ms;
    return reduced_wall_ms > 0 && total > 0 ? interned_ms / total : 0.0;
  }
};

Row run_row(const std::string& label, const PetriNet& net, double budget,
            bool zdd_only, gpo::obs::MetricsRegistry* reg,
            gpo::obs::RunReport* report) {
  Row row;
  row.model = label;
  row.zdd_only = zdd_only;
  gpo::core::GpoOptions opt;
  opt.max_seconds = budget;
  opt.metrics = reg;

  gpo::core::GpoResult seed, interned;
  if (!zdd_only) {
    opt.metrics_prefix = "seed.";
    gpo::util::Stopwatch seed_timer;
    seed = gpo::core::run_gpo(net, gpo::core::FamilyKind::kExplicit, opt);
    row.seed_ms = seed_timer.elapsed_seconds() * 1000.0;

    opt.metrics_prefix = "intern.";
    gpo::util::Stopwatch interned_timer;
    interned = gpo::core::run_gpo(net, gpo::core::FamilyKind::kInterned, opt);
    row.interned_ms = interned_timer.elapsed_seconds() * 1000.0;

    if (reg != nullptr) {
      row.mcs_enum_ms =
          reg->value("intern.mcs_seconds").value_or(0.0) * 1000.0;
      row.family_ops_ms =
          reg->value("intern.family_ops_seconds").value_or(0.0) * 1000.0;
    }
  }

  opt.metrics_prefix = "zdd.";
  opt.family_store = gpo::core::FamilyStore::kZdd;
  gpo::util::Stopwatch zdd_timer;
  auto zdd = gpo::core::run_gpo(net, gpo::core::FamilyKind::kExplicit, opt);
  row.zdd_ms = zdd_timer.elapsed_seconds() * 1000.0;
  opt.family_store = gpo::core::FamilyStore::kExplicit;

  // Net-reduction preprocessing: shrink once (aggressive), then re-run the
  // interned engine on the smaller net. The mapped counterexample must
  // replay to a deadlock of the ORIGINAL net, so the bench doubles as a
  // soundness check on the certificate machinery.
  bool reduced_ok = true;
  {
    gpo::reduce::ReduceOptions ro;
    ro.level = gpo::reduce::ReduceLevel::kAggressive;
    gpo::util::Stopwatch reduce_timer;
    gpo::reduce::ReductionResult red = gpo::reduce::reduce_net(net, ro);
    row.reduce_ms = reduce_timer.elapsed_seconds() * 1000.0;
    row.reduced_places = red.stats.places_after;
    row.reduced_transitions = red.stats.transitions_after;
    if (!zdd_only) {
      opt.metrics_prefix = "reduced.";
      gpo::util::Stopwatch reduced_timer;
      auto reduced = gpo::core::run_gpo(red.net,
                                        gpo::core::FamilyKind::kInterned, opt);
      row.reduced_wall_ms = reduced_timer.elapsed_seconds() * 1000.0;
      // Verdicts are only comparable when both runs finished: a reduced run
      // completing inside a budget the unreduced run blew is the point of
      // the pipeline, not a mismatch.
      if (!reduced.limit_hit && !interned.limit_hit)
        reduced_ok = reduced.deadlock_found == interned.deadlock_found;
      if (reduced.deadlock_found && !reduced.counterexample.empty())
        reduced_ok &= gpo::reduce::map_counterexample(net, red.certificate,
                                                      reduced.counterexample)
                          .deadlock.has_value();
    }
  }

  if (report != nullptr && reg != nullptr) {
    auto add = [&](const char* engine, const auto& r, double seconds,
                   const std::string& prefix) {
      gpo::obs::RunReport::EngineRun er;
      er.engine = engine;
      er.model = label;
      er.verdict = r.limit_hit      ? "aborted"
                   : r.deadlock_found ? "deadlock"
                                      : "no-deadlock";
      er.states = static_cast<double>(r.state_count);
      er.seconds = seconds;
      er.aborted = r.limit_hit;
      er.aborted_phase = r.interrupted_phase;
      er.counters = gpo::obs::registry_to_json(*reg, prefix);
      report->add_engine(std::move(er));
    };
    if (!zdd_only) {
      add("gpo", seed, row.seed_ms / 1000.0, "seed.");
      add("gpo-intern", interned, row.interned_ms / 1000.0, "intern.");
    }
    add("gpo-zdd-store", zdd, row.zdd_ms / 1000.0, "zdd.");
  }

  row.states = zdd.state_count;
  row.zdd_families_bytes = zdd.family_stats.families_bytes;
  row.zdd_nodes = zdd.family_stats.zdd_nodes;
  if (!zdd_only) {
    row.states = interned.state_count;
    row.peak_families = interned.family_stats.distinct_families;
    row.intern_calls = interned.family_stats.intern_calls;
    row.dedup_ratio = interned.family_stats.dedup_ratio;
    row.op_cache_hit_rate = interned.family_stats.op_cache_hit_rate;
    row.families_bytes = interned.family_stats.families_bytes;
    // The ZDD enumerates witnesses in diagram order, so the counterexample
    // is compared only between the two explicit backends; the zdd run must
    // agree on everything order-independent.
    row.verdicts_match = seed.state_count == interned.state_count &&
                         seed.deadlock_found == interned.deadlock_found &&
                         seed.multiple_steps == interned.multiple_steps &&
                         seed.single_steps == interned.single_steps &&
                         seed.counterexample == interned.counterexample &&
                         !interned.limit_hit == !seed.limit_hit &&
                         zdd.state_count == seed.state_count &&
                         zdd.deadlock_found == seed.deadlock_found &&
                         zdd.multiple_steps == seed.multiple_steps &&
                         zdd.single_steps == seed.single_steps &&
                         zdd.limit_hit == seed.limit_hit;
  }
  row.verdicts_match = row.verdicts_match && reduced_ok;
  row.peak_rss_bytes = gpo::obs::peak_rss_bytes();
  return row;
}

std::string json_number(double v) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(4) << v;
  return ss.str();
}

void write_json(std::ostream& out, const std::vector<Row>& rows, bool smoke) {
  out << "{\n"
      << "  \"schema_version\": 5,\n"
      << "  \"benchmark\": \"bench_gpo_intern\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"models\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\n"
        << "      \"model\": \"" << r.model << "\",\n"
        << "      \"states\": " << r.states << ",\n"
        << "      \"seed_wall_ms\": " << json_number(r.seed_ms) << ",\n"
        << "      \"interned_wall_ms\": " << json_number(r.interned_ms)
        << ",\n"
        << "      \"zdd_wall_ms\": " << json_number(r.zdd_ms) << ",\n"
        << "      \"speedup\": " << json_number(r.speedup()) << ",\n"
        << "      \"mcs_enum_ms\": " << json_number(r.mcs_enum_ms) << ",\n"
        << "      \"family_ops_ms\": " << json_number(r.family_ops_ms)
        << ",\n"
        << "      \"peak_families\": " << r.peak_families << ",\n"
        << "      \"intern_calls\": " << r.intern_calls << ",\n"
        << "      \"dedup_ratio\": " << json_number(r.dedup_ratio) << ",\n"
        << "      \"op_cache_hit_rate\": " << json_number(r.op_cache_hit_rate)
        << ",\n"
        << "      \"families_bytes\": " << r.families_bytes << ",\n"
        << "      \"zdd_families_bytes\": " << r.zdd_families_bytes << ",\n"
        << "      \"zdd_nodes\": " << r.zdd_nodes << ",\n"
        << "      \"peak_rss_bytes\": " << r.peak_rss_bytes << ",\n"
        << "      \"zdd_only\": " << (r.zdd_only ? "true" : "false") << ",\n"
        << "      \"reduce_ms\": " << json_number(r.reduce_ms) << ",\n"
        << "      \"reduced_places\": " << r.reduced_places << ",\n"
        << "      \"reduced_transitions\": " << r.reduced_transitions << ",\n"
        << "      \"reduced_wall_ms\": " << json_number(r.reduced_wall_ms)
        << ",\n"
        << "      \"reduced_speedup\": " << json_number(r.reduced_speedup())
        << ",\n"
        << "      \"verdicts_match\": " << (r.verdicts_match ? "true" : "false")
        << "\n"
        << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool slow = false;
  double budget = 60.0;
  std::string out_path = "BENCH_gpo.json";
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) smoke = true;
    if (!std::strcmp(argv[i], "--slow")) slow = true;
    if (!std::strcmp(argv[i], "--max-seconds") && i + 1 < argc)
      budget = gpo::util::parse_flag_number<double>("--max-seconds", argv[++i]);
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[++i];
    if (!std::strcmp(argv[i], "--report") && i + 1 < argc)
      report_path = argv[++i];
  }
  if (smoke && budget > 5.0) budget = 5.0;

  gpo::obs::RunReport report("bench_gpo_intern");
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
    bool zdd_only = false;
  };
  std::vector<Instance> instances;
  using namespace gpo::models;
  if (smoke) {
    instances.push_back({"diamond:4", make_diamond(4)});
    instances.push_back({"chain:8", make_conflict_chain(8)});
    instances.push_back({"nsdp:4", make_nsdp(4)});
    instances.push_back({"nsdp:6", make_nsdp(6)});
    instances.push_back({"asat:4", make_arbiter_tree(4)});
    instances.push_back({"over:3", make_overtake(3)});
    instances.push_back({"rw:6", make_readers_writers(6)});
  } else {
    instances.push_back({"diamond:8", make_diamond(8)});
    instances.push_back({"chain:10", make_conflict_chain(10)});
    instances.push_back({"chain:14", make_conflict_chain(14)});
    instances.push_back({"nsdp:6", make_nsdp(6)});
    instances.push_back({"nsdp:8", make_nsdp(8)});
    instances.push_back({"asat:8", make_arbiter_tree(8)});
    instances.push_back({"over:4", make_overtake(4)});
    instances.push_back({"rw:8", make_readers_writers(8)});
    instances.push_back({"rw:12", make_readers_writers(12)});
  }
  if (slow) {
    // Memory-wall rows: the explicit family stores cannot hold these in a
    // CI-sized address space, so only the ZDD backend runs.
    instances.push_back({"nsdp:10", make_nsdp(10), /*zdd_only=*/true});
    instances.push_back({"chain:18", make_conflict_chain(18),
                         /*zdd_only=*/true});
  }

  std::vector<Row> rows;
  bool all_match = true;
  std::cout << std::left << std::setw(12) << "model" << std::right
            << std::setw(8) << "states" << std::setw(12) << "seed-ms"
            << std::setw(12) << "intern-ms" << std::setw(11) << "zdd-ms"
            << std::setw(9) << "speedup" << std::setw(10) << "families"
            << std::setw(7) << "hit%" << std::setw(12) << "fam-bytes"
            << std::setw(12) << "zdd-bytes" << std::setw(11) << "rss-mb"
            << std::setw(11) << "reduced-ms" << std::setw(9) << "red-spd"
            << "\n";
  for (const Instance& inst : instances) {
    gpo::obs::MetricsRegistry reg;  // fresh per instance
    Row row = run_row(inst.label, inst.net, budget, inst.zdd_only, &reg,
                      report_path.empty() ? nullptr : &report);
    std::cout << std::left << std::setw(12) << row.model << std::right
              << std::setw(8) << row.states << std::setw(12) << std::fixed
              << std::setprecision(2) << row.seed_ms << std::setw(12)
              << row.interned_ms << std::setw(11) << row.zdd_ms
              << std::setw(8) << std::setprecision(1) << row.speedup() << "x"
              << std::setw(10) << row.peak_families << std::setw(6)
              << static_cast<int>(row.op_cache_hit_rate * 100) << "%"
              << std::setw(12) << row.families_bytes << std::setw(12)
              << row.zdd_families_bytes << std::setw(11)
              << std::setprecision(1)
              << static_cast<double>(row.peak_rss_bytes) / (1024.0 * 1024.0)
              << std::setw(11) << std::setprecision(2)
              << row.reduce_ms + row.reduced_wall_ms << std::setw(8)
              << std::setprecision(1) << row.reduced_speedup() << "x"
              << (row.zdd_only ? "  [zdd-only]" : "")
              << (row.verdicts_match ? "" : "  VERDICT MISMATCH") << "\n";
    all_match &= row.verdicts_match;
    rows.push_back(std::move(row));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  write_json(out, rows, smoke);
  std::cout << "JSON written to " << out_path << "\n";
  if (!report_path.empty()) {
    std::ofstream rout(report_path);
    if (!rout) {
      std::cerr << "cannot write " << report_path << "\n";
      return 1;
    }
    report.write(rout, nullptr, nullptr);
    std::cout << "report written to " << report_path << "\n";
  }
  if (!all_match) {
    std::cerr << "ERROR: verdict mismatch\n";
    return 1;
  }
  return 0;
}
