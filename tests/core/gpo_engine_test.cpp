// End-to-end tests of the generalized partial-order analysis procedure
// (Section 3.3): the headline reductions on the paper's example families,
// deadlock verdicts with verified witnesses, and the anti-ignoring guard.
#include <gtest/gtest.h>

#include "core/gpo.hpp"
#include "models/models.hpp"
#include "reach/explorer.hpp"

namespace gpo::core {
namespace {

using petri::PetriNet;

class BothFamilies : public ::testing::TestWithParam<FamilyKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, BothFamilies,
                         ::testing::Values(FamilyKind::kExplicit,
                                           FamilyKind::kBdd,
                                           FamilyKind::kInterned),
                         [](const auto& info) {
                           return family_kind_name(info.param);
                         });

TEST_P(BothFamilies, ConflictChainNeedsTwoStates) {
  // The paper's Fig. 2 headline: 2^{N+1}-1 states for classical partial
  // order analysis, 2 for GPO — independent of N.
  for (std::size_t n : {1u, 4u, 8u}) {
    auto r = run_gpo(models::make_conflict_chain(n), GetParam());
    EXPECT_EQ(r.state_count, 2u) << "n=" << n;
    EXPECT_TRUE(r.deadlock_found);  // terminal states are deadlocks
    EXPECT_TRUE(r.witness_is_dead);
    EXPECT_EQ(r.multiple_steps, 1u);
    EXPECT_EQ(r.single_steps, 0u);
  }
}

TEST_P(BothFamilies, DiamondNeedsTwoStates) {
  for (std::size_t n : {1u, 3u, 6u}) {
    auto r = run_gpo(models::make_diamond(n), GetParam());
    EXPECT_EQ(r.state_count, 2u) << "n=" << n;
    EXPECT_TRUE(r.deadlock_found);
  }
}

TEST_P(BothFamilies, NsdpStateCountIsConstantInN) {
  // Table 1 NSDP: the GPO graph size does not grow with the number of
  // philosophers (the paper reports 3 for its model; ours needs 5 because
  // fork pickup is a two-stage grab).
  std::size_t baseline = 0;
  for (std::size_t n : {2u, 3u, 4u, 5u}) {
    auto r = run_gpo(models::make_nsdp(n), GetParam());
    EXPECT_TRUE(r.deadlock_found) << "n=" << n;
    EXPECT_TRUE(r.witness_is_dead) << "n=" << n;
    if (baseline == 0)
      baseline = r.state_count;
    else
      EXPECT_EQ(r.state_count, baseline) << "n=" << n;
  }
  EXPECT_LE(baseline, 6u);
}

TEST_P(BothFamilies, NsdpWitnessIsRealDeadlock) {
  PetriNet net = models::make_nsdp(3);
  auto r = run_gpo(net, GetParam());
  ASSERT_TRUE(r.deadlock_found);
  ASSERT_TRUE(r.deadlock_witness.has_value());
  EXPECT_TRUE(net.is_deadlocked(*r.deadlock_witness));
}

TEST_P(BothFamilies, ReadersWritersNeedsTwoStates) {
  // Table 1 RW: GPO reports 2 states regardless of the process count, and
  // the model is deadlock-free.
  for (std::size_t n : {3u, 6u, 9u}) {
    auto r = run_gpo(models::make_readers_writers(n), GetParam());
    EXPECT_EQ(r.state_count, 2u) << "n=" << n;
    EXPECT_FALSE(r.deadlock_found) << "n=" << n;
  }
}

TEST_P(BothFamilies, ArbiterTreeGrowsSlowlyAndIsDeadlockFree) {
  std::size_t prev = 0;
  for (std::size_t n : {2u, 4u, 8u}) {
    auto r = run_gpo(models::make_arbiter_tree(n), GetParam());
    EXPECT_FALSE(r.deadlock_found) << "n=" << n;
    EXPECT_GE(r.state_count, prev);
    prev = r.state_count;
  }
  EXPECT_LE(prev, 32u);  // sub-linear in the full graph's exponential growth
}

TEST_P(BothFamilies, OvertakeFindsProtocolDeadlock) {
  // The stranded-asker deadlock requires a re-contested conflict, which is
  // beyond the valid-set formalism's one-shot choices; the anti-ignoring
  // guard must delegate and still find it.
  for (std::size_t n : {2u, 4u, 5u}) {
    auto r = run_gpo(models::make_overtake(n), GetParam());
    EXPECT_TRUE(r.deadlock_found) << "n=" << n;
  }
}

TEST_P(BothFamilies, OvertakeGuardDelegates) {
  GpoOptions opt;
  auto with_guard = run_gpo(models::make_overtake(4), GetParam(), opt);
  EXPECT_TRUE(with_guard.deadlock_found);
  EXPECT_GT(with_guard.ignoring_expansions, 0u);
  EXPECT_GT(with_guard.delegated_states, 0u);

  opt.ignoring_guard = false;
  auto without = run_gpo(models::make_overtake(4), GetParam(), opt);
  // Without the elided footnote-2 check the reduction is unsound here: the
  // livelock loop of car 0 starves every other transition.
  EXPECT_FALSE(without.deadlock_found);
}

TEST_P(BothFamilies, GuardIsIdleWhenNothingStarves) {
  for (auto make : {+[] { return models::make_nsdp(3); },
                    +[] { return models::make_readers_writers(4); },
                    +[] { return models::make_conflict_chain(4); }}) {
    auto r = run_gpo(make(), GetParam());
    EXPECT_EQ(r.ignoring_expansions, 0u);
    EXPECT_EQ(r.delegated_states, 0u);
  }
}

TEST_P(BothFamilies, StopAtFirstDeadlock) {
  GpoOptions opt;
  opt.stop_at_first_deadlock = true;
  auto r = run_gpo(models::make_nsdp(4), GetParam(), opt);
  EXPECT_TRUE(r.deadlock_found);
  auto full = run_gpo(models::make_nsdp(4), GetParam());
  EXPECT_LE(r.state_count, full.state_count);
}

TEST_P(BothFamilies, StateLimitReported) {
  GpoOptions opt;
  opt.max_states = 3;
  auto r = run_gpo(models::make_overtake(3), GetParam(), opt);
  EXPECT_TRUE(r.limit_hit);
}

TEST_P(BothFamilies, BuildGraphProducesLabels) {
  GpoOptions opt;
  opt.build_graph = true;
  auto r = run_gpo(models::make_fig7(), GetParam(), opt);
  EXPECT_EQ(r.graph.node_labels.size(), r.state_count);
  EXPECT_EQ(r.graph.edges.size(), r.edge_count);
  ASSERT_FALSE(r.graph.edges.empty());
  // First step fires the {A,B} conflict pair simultaneously.
  EXPECT_NE(r.graph.edges[0].label.find("A"), std::string::npos);
  EXPECT_NE(r.graph.edges[0].label.find("B"), std::string::npos);
}

TEST_P(BothFamilies, Fig7ThreeStates) {
  auto r = run_gpo(models::make_fig7(), GetParam());
  EXPECT_EQ(r.state_count, 3u);
  EXPECT_EQ(r.multiple_steps, 2u);
  EXPECT_TRUE(r.deadlock_found);  // the terminal markings are dead
}

TEST_P(BothFamilies, FragmentationBailOutIsSoundOnSlottedRing) {
  // ring(3) re-contests every conflict each revolution: the GPN state space
  // fragments past the classical graph (30 markings). The bail-out must
  // concede and still produce the right verdict.
  GpoOptions opt;
  opt.delegate_after_states = 500;
  auto r = run_gpo(models::make_slotted_ring(3), GetParam(), opt);
  EXPECT_TRUE(r.bailed_to_classical);
  EXPECT_GT(r.delegated_states, 0u);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_FALSE(r.limit_hit);
}

TEST_P(BothFamilies, CyclicSchedulerStaysLinear) {
  for (std::size_t n : {4u, 8u}) {
    auto r = run_gpo(models::make_cyclic_scheduler(n), GetParam());
    EXPECT_FALSE(r.deadlock_found);
    EXPECT_FALSE(r.bailed_to_classical);
    EXPECT_LE(r.state_count, n + 2);
  }
}

TEST_P(BothFamilies, CounterexampleReplaysIntoWitness) {
  for (auto make : {+[] { return models::make_nsdp(4); },
                    +[] { return models::make_conflict_chain(5); },
                    +[] { return models::make_diamond(4); },
                    +[] { return models::make_fig7(); }}) {
    PetriNet net = make();
    auto r = run_gpo(net, GetParam());
    ASSERT_TRUE(r.deadlock_found) << net.name();
    ASSERT_FALSE(r.counterexample.empty()) << net.name();
    petri::Marking m = net.initial_marking();
    for (petri::TransitionId t : r.counterexample) {
      ASSERT_TRUE(net.enabled(t, m)) << net.name();
      m = net.fire(t, m);
    }
    EXPECT_EQ(m, *r.deadlock_witness) << net.name();
    EXPECT_TRUE(net.is_deadlocked(m)) << net.name();
  }
}

TEST(GpoCounterexample, RandomNetsReplay) {
  for (std::uint64_t seed = 1100; seed < 1160; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 3;
    p.transitions = 5 + seed % 10;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    GpoOptions opt;
    opt.max_seconds = 20;
    auto r = run_gpo(net, FamilyKind::kExplicit, opt);
    if (!r.deadlock_found || r.limit_hit) continue;
    if (r.counterexample.empty()) continue;  // delegated detection
    petri::Marking m = net.initial_marking();
    for (petri::TransitionId t : r.counterexample) {
      ASSERT_TRUE(net.enabled(t, m)) << "seed=" << seed;
      m = net.fire(t, m);
    }
    EXPECT_EQ(m, *r.deadlock_witness) << "seed=" << seed;
    EXPECT_TRUE(net.is_deadlocked(m)) << "seed=" << seed;
  }
}

TEST(GpoFamilies, ExplicitAndBddAgreeOnModels) {
  for (auto make : {+[] { return models::make_nsdp(4); },
                    +[] { return models::make_arbiter_tree(4); },
                    +[] { return models::make_overtake(4); },
                    +[] { return models::make_readers_writers(6); },
                    +[] { return models::make_conflict_chain(6); }}) {
    PetriNet net = make();
    auto e = run_gpo(net, FamilyKind::kExplicit);
    auto b = run_gpo(net, FamilyKind::kBdd);
    EXPECT_EQ(e.state_count, b.state_count) << net.name();
    EXPECT_EQ(e.deadlock_found, b.deadlock_found) << net.name();
    EXPECT_EQ(e.multiple_steps, b.multiple_steps) << net.name();
    EXPECT_EQ(e.single_steps, b.single_steps) << net.name();
  }
}

// gpo-bdd reports the BDD manager's kernel counters like the zdd store:
// nodes, bytes and computed-cache traffic, in the result and in --stats.
TEST(GpoFamilies, BddReportsKernelCounters) {
  PetriNet net = models::make_nsdp(8);
  obs::MetricsRegistry reg;
  GpoOptions opt;
  opt.metrics = &reg;
  opt.metrics_prefix = "gpo.";
  const GpoResult r = run_gpo(net, FamilyKind::kBdd, opt);
  const GpoFamilyStats& fs = r.family_stats;
  ASSERT_TRUE(fs.available);
  EXPECT_EQ(fs.backend, "bdd");
  EXPECT_GT(fs.distinct_families, 2u);  // BDD nodes, terminals included
  EXPECT_GT(fs.op_cache_misses, 0u);
  EXPECT_GT(fs.op_cache_capacity, 0u);
  EXPECT_LE(fs.op_cache_occupied, fs.op_cache_capacity);
  EXPECT_GT(fs.families_bytes, 0u);
  EXPECT_EQ(reg.value("gpo.bdd.nodes"),
            static_cast<double>(fs.distinct_families));
  EXPECT_EQ(reg.value("gpo.bdd.cache_misses"),
            static_cast<double>(fs.op_cache_misses));
  EXPECT_FALSE(reg.value("gpo.family_intern_calls").has_value());
}

TEST(GpoExplicit, ThrowsPastR0CapAndBddDoesNot) {
  PetriNet net = models::make_conflict_chain(24);  // 2^24 maximal sets
  EXPECT_THROW((void)run_gpo(net, FamilyKind::kExplicit),
               std::length_error);
  auto r = run_gpo(net, FamilyKind::kBdd);
  EXPECT_EQ(r.state_count, 2u);
}

}  // namespace
}  // namespace gpo::core
