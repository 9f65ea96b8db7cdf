// The paper's flagship workload: the non-serialized dining philosophers
// (NSDP). Runs all four engines side by side and shows why generalized
// partial-order analysis wins — its state count does not grow with the
// number of philosophers while every other engine's does.
//
//   $ ./example_dining_philosophers [max_n]
#include <iomanip>
#include <iostream>

#include "bdd/symbolic_reach.hpp"
#include "core/gpo.hpp"
#include "models/models.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"
#include "util/parse_number.hpp"

int main(int argc, char** argv) {
  std::size_t max_n = 8;
  if (argc > 1)
    max_n = gpo::util::parse_flag_number<std::size_t>("count", argv[1]);

  std::cout << "Non-serialized dining philosophers: each philosopher may\n"
               "grab either fork first, so 'everyone holds one fork' is a\n"
               "reachable deadlock.\n\n";
  std::cout << std::setw(4) << "n" << std::setw(12) << "full"   //
            << std::setw(12) << "stubborn" << std::setw(12) << "bdd-peak"
            << std::setw(12) << "GPO" << std::setw(11) << "deadlock" << "\n"
            << std::string(63, '-') << "\n";

  for (std::size_t n = 2; n <= max_n; n += 2) {
    auto net = gpo::models::make_nsdp(n);

    gpo::reach::ExplorerOptions eo;
    eo.max_states = 2'000'000;
    auto full = gpo::reach::ExplicitExplorer(net, eo).explore();

    auto por = gpo::por::StubbornExplorer(net).explore();

    gpo::bdd::SymbolicOptions so;
    so.max_seconds = 20;
    auto sym = gpo::bdd::SymbolicReachability(net, so).analyze();

    auto g = gpo::core::run_gpo(net, gpo::core::FamilyKind::kBdd);

    std::cout << std::setw(4) << n << std::setw(12)
              << (full.limit_hit ? std::string("> cap")
                                 : std::to_string(full.state_count))
              << std::setw(12) << por.state_count << std::setw(12)
              << (sym.blowup ? std::string("> cap")
                             : std::to_string(sym.peak_nodes))
              << std::setw(12) << g.state_count << std::setw(11)
              << (g.deadlock_found ? "yes" : "no") << "\n";
  }

  // Show one concrete deadlock with its firing sequence.
  auto net = gpo::models::make_nsdp(4);
  auto g = gpo::core::run_gpo(net, gpo::core::FamilyKind::kBdd);
  if (g.deadlock_found) {
    std::cout << "\nGPO deadlock witness for n=4: "
              << gpo::reach::marking_to_string(net, *g.deadlock_witness)
              << "\n";
  }
  auto ground = gpo::reach::ExplicitExplorer(net).explore();
  std::cout << "one shortest path into deadlock:";
  for (auto t : ground.counterexample)
    std::cout << " " << net.transition(t).name;
  std::cout << "\n";
  return 0;
}
