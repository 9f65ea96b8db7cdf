#include "por/stubborn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"

namespace gpo::por {
namespace {

using petri::ConflictInfo;
using petri::Marking;
using petri::PetriNet;
using petri::TransitionId;

TEST(StubbornSet, SingletonForIndependentTransition) {
  PetriNet net = models::make_diamond(3);
  ConflictInfo ci(net);
  auto s = stubborn_enabled_set(net, ci, net.initial_marking(), {0});
  EXPECT_EQ(s, std::vector<TransitionId>{0});
}

TEST(StubbornSet, PullsInConflictingTransitions) {
  PetriNet net = models::make_fig7();
  ConflictInfo ci(net);
  TransitionId a = net.find_transition("A");
  TransitionId b = net.find_transition("B");
  auto s = stubborn_enabled_set(net, ci, net.initial_marking(), {a});
  EXPECT_EQ(s, (std::vector<TransitionId>{a, b}));
}

TEST(StubbornSet, DisabledSeedPullsInScapegoatProducers) {
  // c disabled for lack of p1; the producer a of p1 must join, and since a
  // is enabled the returned enabled subset is {a}.
  petri::NetBuilder bld;
  auto p0 = bld.add_place("p0", true);
  auto p1 = bld.add_place("p1");
  auto p2 = bld.add_place("p2");
  auto ta = bld.add_transition("a");
  bld.connect(ta, {p0}, {p1});
  auto tc = bld.add_transition("c");
  bld.connect(tc, {p1}, {p2});
  PetriNet net = bld.build();
  ConflictInfo ci(net);
  auto s = stubborn_enabled_set(net, ci, net.initial_marking(), {tc});
  EXPECT_EQ(s, std::vector<TransitionId>{ta});
}

TEST(StubbornSet, AlwaysContainsAnEnabledKeyTransition) {
  PetriNet net = models::make_nsdp(3);
  ConflictInfo ci(net);
  Marking m = net.initial_marking();
  for (TransitionId t : net.enabled_transitions(m)) {
    auto s = stubborn_enabled_set(net, ci, m, {t});
    EXPECT_FALSE(s.empty());
    for (TransitionId u : s) EXPECT_TRUE(net.enabled(u, m));
  }
}

TEST(StubbornExplorer, DiamondIsLinear) {
  // The motivating Fig. 1 reduction: n+1 states instead of 2^n.
  for (std::size_t n : {2u, 4u, 8u}) {
    auto result = StubbornExplorer(models::make_diamond(n)).explore();
    EXPECT_EQ(result.state_count, n + 1) << "n=" << n;
    EXPECT_TRUE(result.deadlock_found);
  }
}

TEST(StubbornExplorer, ConflictChainIsAnticipationTree) {
  // The paper's Fig. 2: partial order methods still need 2^{n+1}-1 states.
  for (std::size_t n : {2u, 4u, 6u}) {
    auto result =
        StubbornExplorer(models::make_conflict_chain(n)).explore();
    EXPECT_EQ(result.state_count, (std::size_t{2} << n) - 1) << "n=" << n;
  }
}

TEST(StubbornExplorer, NeverMoreStatesThanFull) {
  for (const char* which : {"nsdp", "asat", "over", "rw"}) {
    PetriNet net = std::string(which) == "nsdp" ? models::make_nsdp(4)
                   : std::string(which) == "asat"
                       ? models::make_arbiter_tree(4)
                   : std::string(which) == "over" ? models::make_overtake(4)
                                                  : models::make_readers_writers(5);
    auto full = reach::ExplicitExplorer(net).explore();
    auto red = StubbornExplorer(net).explore();
    EXPECT_LE(red.state_count, full.state_count) << which;
    EXPECT_EQ(red.deadlock_found, full.deadlock_found) << which;
  }
}

class StrategyTest : public ::testing::TestWithParam<SeedStrategy> {};

TEST_P(StrategyTest, DeadlockPreservedOnRandomNets) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 3 + seed % 3;
    p.transitions = 5 + seed % 10;
    p.sync_percent = 40;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    reach::ExplorerOptions eo;
    eo.max_states = 100000;
    auto ground = reach::ExplicitExplorer(net, eo).explore();
    if (ground.limit_hit) continue;
    StubbornOptions so;
    so.strategy = GetParam();
    auto red = StubbornExplorer(net, so).explore();
    EXPECT_EQ(red.deadlock_found, ground.deadlock_found) << "seed=" << seed;
    EXPECT_LE(red.state_count, ground.state_count) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values(SeedStrategy::kBestOverSeeds,
                                           SeedStrategy::kFirstEnabled,
                                           SeedStrategy::kWholeConflictSet));

TEST(StubbornExplorer, CounterexampleReplays) {
  PetriNet net = models::make_nsdp(3);
  auto result = StubbornExplorer(net).explore();
  ASSERT_TRUE(result.deadlock_found);
  Marking m = net.initial_marking();
  for (TransitionId t : result.counterexample) {
    ASSERT_TRUE(net.enabled(t, m));
    m = net.fire(t, m);
  }
  EXPECT_TRUE(net.is_deadlocked(m));
}

TEST(StubbornExplorer, PublishesTheExhaustiveEnginesAccounting) {
  // A single token on a cycle: every stubborn set is the one enabled
  // transition, so both engines do the same search and must report the same
  // counters, visited-store bytes included.
  constexpr std::size_t kPlaces = 6;
  petri::NetBuilder bld;
  std::vector<petri::PlaceId> ring;
  for (std::size_t i = 0; i < kPlaces; ++i)
    ring.push_back(bld.add_place("p" + std::to_string(i), i == 0));
  for (std::size_t i = 0; i < kPlaces; ++i)
    bld.connect(bld.add_transition("t" + std::to_string(i)), {ring[i]},
                {ring[(i + 1) % kPlaces]});
  PetriNet net = bld.build();

  obs::MetricsRegistry reg;
  reach::ExplorerOptions eo;
  eo.metrics = &reg;
  auto full = reach::ExplicitExplorer(net, eo).explore();
  StubbornOptions so;
  so.metrics = &reg;
  auto por = StubbornExplorer(net, so).explore();
  EXPECT_EQ(full.state_count, kPlaces);
  EXPECT_EQ(por.state_count, full.state_count);
  EXPECT_EQ(por.edge_count, full.edge_count);
  for (const char* name : {"states", "edges"})
    EXPECT_EQ(reg.value(std::string("por.") + name),
              reg.value(std::string("full.") + name))
        << name;
  ASSERT_TRUE(reg.value("mem.full.visited_bytes").has_value());
  EXPECT_EQ(reg.value("mem.por.visited_bytes"),
            reg.value("mem.full.visited_bytes"));
}

// States, edges and deadlocks of `por` under each seed strategy, recorded
// from the closure that recomputed every seed in full. The reused-scratch
// closure stops a seed early once it ties the best set so far; these counts
// pin that it still picks the same ample set at every marking, ties
// included.
struct PinnedRun {
  const char* spec;
  SeedStrategy strategy;
  std::size_t states;
  std::size_t edges;
  std::size_t deadlocks;
};

constexpr PinnedRun kPinnedRuns[] = {
    {"nsdp:8", SeedStrategy::kBestOverSeeds, 4095, 11264, 2},
    {"nsdp:8", SeedStrategy::kFirstEnabled, 6561, 27270, 2},
    {"nsdp:8", SeedStrategy::kWholeConflictSet, 6561, 34442, 2},
    {"ring:6", SeedStrategy::kBestOverSeeds, 1476, 3954, 0},
    {"ring:6", SeedStrategy::kFirstEnabled, 1575, 4441, 0},
    {"ring:6", SeedStrategy::kWholeConflictSet, 1575, 4470, 0},
    {"over:4", SeedStrategy::kBestOverSeeds, 55, 64, 5},
    {"over:4", SeedStrategy::kFirstEnabled, 99, 154, 5},
    {"over:4", SeedStrategy::kWholeConflictSet, 99, 154, 5},
    {"asat:4", SeedStrategy::kBestOverSeeds, 77, 86, 0},
    {"asat:4", SeedStrategy::kFirstEnabled, 93, 120, 0},
    {"asat:4", SeedStrategy::kWholeConflictSet, 93, 120, 0},
    {"rw:9", SeedStrategy::kBestOverSeeds, 19, 36, 0},
    {"rw:9", SeedStrategy::kFirstEnabled, 27, 52, 0},
    {"rw:9", SeedStrategy::kWholeConflictSet, 521, 2578, 0},
    {"cyclic:8", SeedStrategy::kBestOverSeeds, 30, 30, 0},
    {"cyclic:8", SeedStrategy::kFirstEnabled, 30, 30, 0},
    {"cyclic:8", SeedStrategy::kWholeConflictSet, 30, 30, 0},
};

TEST(StubbornExplorer, AmpleSetsArePinned) {
  for (const PinnedRun& run : kPinnedRuns) {
    PetriNet net = *models::make_by_spec(run.spec);
    StubbornOptions so;
    so.strategy = run.strategy;
    auto result = StubbornExplorer(net, so).explore();
    const std::string what = std::string(run.spec) + " strategy=" +
                             std::to_string(static_cast<int>(run.strategy));
    EXPECT_EQ(result.state_count, run.states) << what;
    EXPECT_EQ(result.edge_count, run.edges) << what;
    EXPECT_EQ(result.deadlock_count, run.deadlocks) << what;
  }
}

TEST(StubbornSet, AgreesWithTheExplorersAmpleSetOnEverySeed) {
  // stubborn_enabled_set is the explorer's closure without the early exit:
  // every seed's set must contain its seed and be made of enabled
  // transitions only, ascending.
  PetriNet net = models::make_slotted_ring(3);
  ConflictInfo ci(net);
  auto result = reach::ExplicitExplorer(net).explore();
  ASSERT_FALSE(result.limit_hit);
  Marking m = net.initial_marking();
  for (TransitionId t : net.enabled_transitions(m)) {
    auto s = stubborn_enabled_set(net, ci, m, {t});
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_NE(std::find(s.begin(), s.end(), t), s.end());
    for (TransitionId u : s) EXPECT_TRUE(net.enabled(u, m));
  }
}

TEST(StubbornExplorer, StateLimit) {
  StubbornOptions so;
  so.max_states = 5;
  auto result = StubbornExplorer(models::make_nsdp(6), so).explore();
  EXPECT_TRUE(result.limit_hit);
}

}  // namespace
}  // namespace gpo::por
