#include "unfold/unfolding.hpp"

#include <gtest/gtest.h>

#include <set>

#include "models/models.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"

namespace gpo::unfold {
namespace {

using petri::Marking;
using petri::PetriNet;

/// The reachable markings of `net` as a set.
std::set<Marking> reachable_set(const PetriNet& net,
                                std::size_t cap = 200000) {
  std::set<Marking> out;
  reach::ExplorerOptions opt;
  opt.max_states = cap;
  opt.bad_state = [&](const Marking& m) {
    out.insert(m);
    return false;
  };
  auto r = reach::ExplicitExplorer(net, opt).explore();
  EXPECT_FALSE(r.limit_hit);
  return out;
}

/// Completeness + soundness, checked literally: replaying the prefix as a
/// net, its cuts map exactly onto the original net's reachable markings.
void expect_prefix_exact(const PetriNet& net) {
  Prefix prefix = unfold(net);
  ASSERT_FALSE(prefix.limit_hit) << net.name();
  PetriNet occurrence = prefix_as_net(net, prefix);

  std::set<Marking> via_prefix;
  reach::ExplorerOptions opt;
  opt.max_states = 500000;
  opt.bad_state = [&](const Marking& cut) {
    via_prefix.insert(cut_to_marking(net, prefix, cut));
    return false;
  };
  auto r = reach::ExplicitExplorer(occurrence, opt).explore();
  ASSERT_FALSE(r.limit_hit) << net.name();
  EXPECT_FALSE(r.safeness_violation) << net.name();  // occurrence nets are safe

  EXPECT_EQ(via_prefix, reachable_set(net)) << net.name();
}

TEST(Unfolding, SequenceNet) {
  // p0 -> a -> p1 -> b -> p2: the prefix is the net itself (acyclic,
  // conflict-free): 2 events, no cutoffs.
  petri::NetBuilder bld;
  auto p0 = bld.add_place("p0", true);
  auto p1 = bld.add_place("p1");
  auto p2 = bld.add_place("p2");
  auto a = bld.add_transition("a");
  bld.connect(a, {p0}, {p1});
  auto b = bld.add_transition("b");
  bld.connect(b, {p1}, {p2});
  PetriNet net = bld.build();
  Prefix prefix = unfold(net);
  EXPECT_EQ(prefix.events.size(), 2u);
  EXPECT_EQ(prefix.conditions.size(), 3u);
  EXPECT_EQ(prefix.cutoff_count, 0u);
  expect_prefix_exact(net);
}

TEST(Unfolding, DiamondIsLinearInN) {
  // The unfolding's claim to fame: n concurrent transitions need n events
  // (no interleavings at all), versus 2^n reachable markings.
  for (std::size_t n : {2u, 4u, 8u, 16u}) {
    PetriNet net = models::make_diamond(n);
    Prefix prefix = unfold(net);
    EXPECT_EQ(prefix.events.size(), n) << n;
    EXPECT_EQ(prefix.cutoff_count, 0u) << n;
  }
  expect_prefix_exact(models::make_diamond(4));
}

TEST(Unfolding, ConflictChainPrefixIsLinearToo) {
  // n conflict pairs: the unfolding keeps both branches of each pair but
  // never multiplies across pairs: 2n events.
  for (std::size_t n : {2u, 4u, 8u}) {
    PetriNet net = models::make_conflict_chain(n);
    Prefix prefix = unfold(net);
    EXPECT_EQ(prefix.events.size(), 2 * n) << n;
  }
  expect_prefix_exact(models::make_conflict_chain(3));
}

TEST(Unfolding, CycleNeedsCutoff) {
  // p0 -> a -> p1 -> b -> p0: the loop closes on a repeated marking, so the
  // prefix ends in a cut-off event.
  petri::NetBuilder bld;
  auto p0 = bld.add_place("p0", true);
  auto p1 = bld.add_place("p1");
  auto a = bld.add_transition("a");
  bld.connect(a, {p0}, {p1});
  auto b = bld.add_transition("b");
  bld.connect(b, {p1}, {p0});
  PetriNet net = bld.build();
  Prefix prefix = unfold(net);
  EXPECT_EQ(prefix.events.size(), 2u);
  EXPECT_EQ(prefix.cutoff_count, 1u);  // b returns to m0
  expect_prefix_exact(net);
}

TEST(Unfolding, ExactCoverageOnBenchmarks) {
  expect_prefix_exact(models::make_fig3());
  expect_prefix_exact(models::make_fig7());
  expect_prefix_exact(models::make_nsdp(2));
  expect_prefix_exact(models::make_nsdp(3));
  expect_prefix_exact(models::make_overtake(3));
  expect_prefix_exact(models::make_readers_writers(3));
  expect_prefix_exact(models::make_cyclic_scheduler(3));
  expect_prefix_exact(models::make_arbiter_tree(2));
}

TEST(Unfolding, ExactCoverageOnRandomNets) {
  for (std::uint64_t seed = 1300; seed < 1330; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 2;
    p.states_per_machine = 3;
    p.transitions = 4 + seed % 8;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    UnfoldOptions opt;
    opt.max_events = 20000;
    Prefix prefix = unfold(net, opt);
    if (prefix.limit_hit) continue;
    PetriNet occurrence = prefix_as_net(net, prefix);
    std::set<Marking> via_prefix;
    reach::ExplorerOptions eo;
    eo.max_states = 300000;
    eo.bad_state = [&](const Marking& cut) {
      via_prefix.insert(cut_to_marking(net, prefix, cut));
      return false;
    };
    auto r = reach::ExplicitExplorer(occurrence, eo).explore();
    if (r.limit_hit) continue;
    EXPECT_EQ(via_prefix, reachable_set(net)) << "seed=" << seed;
  }
}

TEST(Unfolding, EventMarksAreReachable) {
  PetriNet net = models::make_nsdp(3);
  auto reachable = reachable_set(net);
  Prefix prefix = unfold(net);
  for (const Event& e : prefix.events)
    EXPECT_TRUE(reachable.contains(e.mark));
}

TEST(Unfolding, LocalConfigSizesAreMonotoneInMcMillanOrder) {
  // Events are inserted in ascending |[e]| order; cut-offs must compare
  // against a strictly smaller configuration with the same mark.
  PetriNet net = models::make_overtake(3);
  Prefix prefix = unfold(net);
  for (std::size_t i = 1; i < prefix.events.size(); ++i)
    EXPECT_LE(prefix.events[i - 1].local_size, prefix.events[i].local_size);
  EXPECT_GT(prefix.cutoff_count, 0u);
}

TEST(Unfolding, DeadlockViaPrefixMatchesGroundTruth) {
  for (auto make : {+[] { return models::make_nsdp(3); },
                    +[] { return models::make_overtake(3); },
                    +[] { return models::make_readers_writers(3); },
                    +[] { return models::make_arbiter_tree(2); },
                    +[] { return models::make_conflict_chain(3); }}) {
    PetriNet net = make();
    Prefix prefix = unfold(net);
    ASSERT_FALSE(prefix.limit_hit) << net.name();
    auto via_prefix = deadlock_via_prefix(net, prefix);
    auto ground = reach::ExplicitExplorer(net).explore();
    EXPECT_EQ(via_prefix.deadlock_found, ground.deadlock_found) << net.name();
    if (via_prefix.deadlock_found) {
      ASSERT_TRUE(via_prefix.witness.has_value());
      EXPECT_TRUE(net.is_deadlocked(*via_prefix.witness)) << net.name();
    }
  }
}

TEST(Unfolding, DeadlockViaPrefixHonoursItsTimeBudget) {
  // A spent budget must stop the cut search instead of letting it run to
  // the end (on ring:8 the end is minutes away).
  PetriNet net = models::make_nsdp(6);
  Prefix prefix = unfold(net);
  ASSERT_FALSE(prefix.limit_hit);
  auto via_prefix = deadlock_via_prefix(net, prefix, 10'000'000, 0.0);
  EXPECT_TRUE(via_prefix.limit_hit);
}

TEST(Unfolding, DeadlockViaPrefixOnRandomNets) {
  for (std::uint64_t seed = 1400; seed < 1430; ++seed) {
    models::RandomNetParams p;
    p.machines = 2;
    p.states_per_machine = 3;
    p.transitions = 4 + seed % 8;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);
    UnfoldOptions opt;
    opt.max_events = 20000;
    Prefix prefix = unfold(net, opt);
    if (prefix.limit_hit) continue;
    auto via_prefix = deadlock_via_prefix(net, prefix, 300000);
    if (via_prefix.limit_hit) continue;
    auto ground = reach::ExplicitExplorer(net).explore();
    EXPECT_EQ(via_prefix.deadlock_found, ground.deadlock_found)
        << "seed=" << seed;
  }
}

TEST(Unfolding, EventLimitReported) {
  UnfoldOptions opt;
  opt.max_events = 3;
  Prefix prefix = unfold(models::make_nsdp(4), opt);
  EXPECT_TRUE(prefix.limit_hit);
  EXPECT_LE(prefix.events.size(), 4u);
}

TEST(Unfolding, PrefixSizeVersusStateCount) {
  // On concurrency-heavy nets the prefix is far smaller than the graph.
  PetriNet net = models::make_cyclic_scheduler(8);
  Prefix prefix = unfold(net);
  auto full = reach::ExplicitExplorer(net).explore();
  EXPECT_LT(prefix.events.size(), full.state_count / 10);
}

}  // namespace
}  // namespace gpo::unfold
