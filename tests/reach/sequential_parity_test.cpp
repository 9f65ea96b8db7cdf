// One-thread vs four-thread parity of the exhaustive explorer on complete
// runs: the level-synchronous search must agree on every count, the first
// deadlock and the counterexample, and every counterexample must replay to
// its first_deadlock. Tier-1, so every build runs it, not only the jobs that
// select the "parallel" set (parallel_explorer_test.cpp covers 2/4/8 threads
// and stopped and state-limited runs).
#include <gtest/gtest.h>

#include <string>

#include "models/models.hpp"
#include "reach/explorer.hpp"

namespace gpo::reach {
namespace {

using petri::Marking;
using petri::PetriNet;

void expect_parity(const PetriNet& net, const std::string& what) {
  ExplorerResult seq = ExplicitExplorer(net).explore();
  ExplorerOptions opt;
  opt.num_threads = 4;
  ExplorerResult par = ExplicitExplorer(net, opt).explore();
  ASSERT_FALSE(seq.limit_hit) << what;
  ASSERT_FALSE(par.limit_hit) << what;
  EXPECT_EQ(seq.stats.threads, 1u) << what;
  EXPECT_EQ(par.stats.threads, 4u) << what;
  EXPECT_EQ(seq.state_count, par.state_count) << what;
  EXPECT_EQ(seq.edge_count, par.edge_count) << what;
  EXPECT_EQ(seq.deadlock_count, par.deadlock_count) << what;
  EXPECT_EQ(seq.fireable_transitions, par.fireable_transitions) << what;
  EXPECT_EQ(seq.deadlock_found, par.deadlock_found) << what;
  EXPECT_EQ(seq.first_deadlock, par.first_deadlock) << what;
  EXPECT_EQ(seq.counterexample, par.counterexample) << what;
  if (seq.deadlock_found) {
    ASSERT_TRUE(seq.first_deadlock.has_value()) << what;
    Marking m = net.initial_marking();
    for (petri::TransitionId t : seq.counterexample) {
      ASSERT_TRUE(net.enabled(t, m)) << what;
      m = net.fire(t, m);
    }
    EXPECT_EQ(m, *seq.first_deadlock) << what;
    EXPECT_TRUE(net.is_deadlocked(m)) << what;
  }
}

TEST(SequentialParity, Table1Models) {
  for (const char* spec : {"nsdp:6", "asat:4", "over:4", "rw:9", "cyclic:8",
                           "ring:5", "chain:6", "diamond:8", "fig7"})
    expect_parity(*models::make_by_spec(spec), spec);
}

TEST(SequentialParity, RandomNets) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    models::RandomNetParams p;
    p.machines = 3 + seed % 3;
    p.states_per_machine = 3 + seed % 4;
    p.transitions = 10 + seed % 12;
    p.sync_percent = 40;
    p.seed = seed;
    expect_parity(models::make_random_net(p),
                  "random(seed=" + std::to_string(seed) + ")");
  }
}

}  // namespace
}  // namespace gpo::reach
