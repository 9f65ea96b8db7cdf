// Safety verification end to end: does the asynchronous arbiter tree
// guarantee mutual exclusion? The check runs through the paper's
// safety-to-deadlock reduction (Section 4's remark) on every engine, after a
// structural pre-analysis (siphons/traps, invariants) that is free of any
// state-space exploration.
//
//   $ ./example_mutex_safety [clients]
#include <iostream>

#include "models/models.hpp"
#include "petri/structure.hpp"
#include "reach/explorer.hpp"
#include "safety/safety.hpp"
#include "util/parse_number.hpp"

int main(int argc, char** argv) {
  std::size_t n = 4;
  if (argc > 1)
    n = gpo::util::parse_flag_number<std::size_t>("count", argv[1]);
  auto net = gpo::models::make_arbiter_tree(n);
  std::cout << "arbiter tree with " << n << " clients: " << net.place_count()
            << " places, " << net.transition_count() << " transitions\n\n";

  // Structural pre-analysis: certificates that need no exploration.
  std::cout << "structural analysis:\n";
  auto stp = gpo::petri::siphon_trap_property(net);
  std::cout << "  siphon-trap property: "
            << (stp.holds ? "holds (every siphon stays marked)" : "fails")
            << "\n";
  auto flows = gpo::petri::place_semiflows(net);
  auto certified = gpo::petri::safeness_certified_places(net, flows);
  std::cout << "  " << flows.size() << " place semiflows certify "
            << certified.count() << "/" << net.place_count()
            << " places 1-safe\n\n";

  // The property: clients at leaves n and n+1 are never both critical.
  gpo::safety::SafetyProperty prop{
      {net.find_place("crit_" + std::to_string(n)),
       net.find_place("crit_" + std::to_string(n + 1))}};

  std::cout << "mutual exclusion of crit_" << n << " and crit_" << n + 1
            << " via the deadlock reduction:\n";
  for (auto [engine, name] : {std::pair{"full", "exhaustive"},
                              std::pair{"por", "stubborn  "},
                              std::pair{"bdd", "symbolic  "},
                              std::pair{"gpo-bdd", "gpo (bdd) "}}) {
    gpo::safety::SafetyOptions opt;
    opt.engine = engine;
    opt.max_seconds = 60;
    auto r = gpo::safety::check_safety(net, prop, opt);
    std::cout << "  " << name << ": "
              << (r.violated ? "VIOLATED" : "holds") << " ("
              << r.states_explored << " states, " << r.seconds << "s)\n";
  }

  // Sanity: a property that is genuinely violated — some client does reach
  // its critical section.
  gpo::safety::SafetyProperty reachable{
      {net.find_place("crit_" + std::to_string(n))}};
  auto r = gpo::safety::check_safety(net, reachable);  // gpo-bdd
  std::cout << "\ncontrol check — 'crit_" << n << " is never marked': "
            << (r.violated ? "correctly refuted" : "UNEXPECTEDLY held");
  if (r.witness)
    std::cout << " with witness "
              << gpo::reach::marking_to_string(net, *r.witness);
  std::cout << "\n";
  return 0;
}
