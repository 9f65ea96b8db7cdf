// Sanity checks on the benchmark model generators: structural counts,
// 1-safety, and the qualitative behaviours each family is built to exhibit.
#include "models/models.hpp"

#include <gtest/gtest.h>

#include "petri/conflict.hpp"
#include "reach/explorer.hpp"

namespace gpo::models {
namespace {

using petri::PetriNet;

TEST(Models, DiamondStructure) {
  PetriNet net = make_diamond(4);
  EXPECT_EQ(net.place_count(), 8u);
  EXPECT_EQ(net.transition_count(), 4u);
  EXPECT_EQ(net.initial_marking().count(), 4u);
  petri::ConflictInfo ci(net);
  EXPECT_EQ(ci.choice_component_count(), 0u);
}

TEST(Models, ConflictChainStructure) {
  PetriNet net = make_conflict_chain(5);
  EXPECT_EQ(net.place_count(), 15u);
  EXPECT_EQ(net.transition_count(), 10u);
  petri::ConflictInfo ci(net);
  EXPECT_EQ(ci.choice_component_count(), 5u);
}

TEST(Models, NsdpRejectsTooSmall) {
  EXPECT_THROW((void)make_nsdp(1), std::invalid_argument);
}

TEST(Models, AsatRequiresPowerOfTwo) {
  EXPECT_THROW((void)make_arbiter_tree(3), std::invalid_argument);
  EXPECT_THROW((void)make_arbiter_tree(0), std::invalid_argument);
  EXPECT_NO_THROW((void)make_arbiter_tree(8));
}

TEST(Models, OverRejectsTooSmall) {
  EXPECT_THROW((void)make_overtake(1), std::invalid_argument);
}

TEST(Models, RwRejectsZero) {
  EXPECT_THROW((void)make_readers_writers(0), std::invalid_argument);
}

TEST(Models, SpecSizeMustBeAPositiveDecimal) {
  for (const char* bad : {"nsdp:-1", "nsdp:abc", "nsdp:5x", "nsdp:0",
                          "nsdp:", "nsdp: 5", "nosuch:-1"})
    EXPECT_THROW((void)make_by_spec(bad), std::invalid_argument) << bad;
  EXPECT_EQ(spec_size("nsdp:12"), 12u);
  EXPECT_EQ(spec_size("fig7"), 0u);
  EXPECT_EQ(make_by_spec("nsdp:3")->transition_count(),
            make_nsdp(3).transition_count());
  EXPECT_FALSE(make_by_spec("nosuch:3").has_value());
}

class SafenessCheck
    : public ::testing::TestWithParam<std::pair<const char*, PetriNet>> {};

TEST(Models, AllFamiliesAreOneSafe) {
  std::vector<PetriNet> nets;
  nets.push_back(make_diamond(4));
  nets.push_back(make_conflict_chain(4));
  nets.push_back(make_nsdp(4));
  nets.push_back(make_arbiter_tree(4));
  nets.push_back(make_overtake(4));
  nets.push_back(make_readers_writers(5));
  nets.push_back(make_fig3());
  nets.push_back(make_fig5());
  nets.push_back(make_fig7());
  for (const PetriNet& net : nets) {
    auto r = reach::ExplicitExplorer(net).explore();
    EXPECT_FALSE(r.safeness_violation) << net.name();
  }
}

TEST(Models, NsdpHasTheClassicDeadlock) {
  for (std::size_t n : {2u, 3u, 5u}) {
    PetriNet net = make_nsdp(n);
    auto r = reach::ExplicitExplorer(net).explore();
    ASSERT_TRUE(r.deadlock_found) << "n=" << n;
    // The all-left grab is one of the dead markings: every hasL marked.
    petri::Marking all_left(net.place_count());
    for (std::size_t i = 0; i < n; ++i)
      all_left.set(net.find_place("hasL_" + std::to_string(i)));
    EXPECT_TRUE(net.is_deadlocked(all_left)) << "n=" << n;
    // Deadlocks come in at least two flavours (all-left, all-right).
    EXPECT_GE(r.deadlock_count, 2u) << "n=" << n;
  }
}

TEST(Models, ArbiterTreeIsDeadlockFreeAndMutex) {
  for (std::size_t n : {2u, 4u}) {
    PetriNet net = make_arbiter_tree(n);
    // Mutual exclusion: never two clients in the critical section.
    std::vector<petri::PlaceId> crits;
    for (std::size_t k = n; k <= 2 * n - 1; ++k)
      crits.push_back(net.find_place("crit_" + std::to_string(k)));
    reach::ExplorerOptions opt;
    opt.bad_state = [&](const petri::Marking& m) {
      int in_crit = 0;
      for (petri::PlaceId p : crits) in_crit += m.test(p) ? 1 : 0;
      return in_crit > 1;
    };
    auto r = reach::ExplicitExplorer(net, opt).explore();
    EXPECT_FALSE(r.deadlock_found) << "n=" << n;
    EXPECT_FALSE(r.bad_state_found) << "mutex violated, n=" << n;
    // Some client can actually reach the critical section.
    reach::ExplorerOptions reach_crit;
    reach_crit.bad_state = [&](const petri::Marking& m) {
      return m.test(crits[0]);
    };
    EXPECT_TRUE(
        reach::ExplicitExplorer(net, reach_crit).explore().bad_state_found);
  }
}

TEST(Models, OvertakeDeadlockIsTheStrandedAsker) {
  PetriNet net = make_overtake(3);
  auto r = reach::ExplicitExplorer(net).explore();
  ASSERT_TRUE(r.deadlock_found);
  // In every dead marking some car is stuck asking.
  bool some_asking = false;
  for (std::size_t i = 0; i + 1 < 3; ++i)
    some_asking |= r.first_deadlock->test(
        net.find_place("asking_" + std::to_string(i)));
  EXPECT_TRUE(some_asking);
}

TEST(Models, ReadersWritersInvariants) {
  PetriNet net = make_readers_writers(4);
  std::vector<petri::PlaceId> writing, reading;
  for (std::size_t i = 0; i < 4; ++i) {
    writing.push_back(net.find_place("writing_" + std::to_string(i)));
    reading.push_back(net.find_place("reading_" + std::to_string(i)));
  }
  reach::ExplorerOptions opt;
  opt.bad_state = [&](const petri::Marking& m) {
    int writers = 0, readers = 0;
    for (auto p : writing) writers += m.test(p) ? 1 : 0;
    for (auto p : reading) readers += m.test(p) ? 1 : 0;
    return writers > 1 || (writers == 1 && readers > 0);
  };
  auto r = reach::ExplicitExplorer(net, opt).explore();
  EXPECT_FALSE(r.bad_state_found) << "writer exclusion violated";
  EXPECT_FALSE(r.deadlock_found);
  // Full state count: all reader subsets + one-writer states.
  EXPECT_EQ(r.state_count, (std::size_t{1} << 4) + 4);
}

TEST(Models, RwConflictStructureIsOneClique) {
  // All start transitions form a single conflict component (the reason
  // classical POR degenerates on this family).
  PetriNet net = make_readers_writers(4);
  petri::ConflictInfo ci(net);
  auto sr0 = net.find_transition("startR_0");
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ci.component_of(net.find_transition("startR_" + std::to_string(i))),
              ci.component_of(sr0));
    EXPECT_EQ(ci.component_of(net.find_transition("startW_" + std::to_string(i))),
              ci.component_of(sr0));
  }
}

TEST(Models, CyclicSchedulerIsSafeDeadlockFreeAndConflictFree) {
  for (std::size_t n : {2u, 4u, 6u}) {
    PetriNet net = make_cyclic_scheduler(n);
    auto r = reach::ExplicitExplorer(net).explore();
    EXPECT_FALSE(r.safeness_violation) << n;
    EXPECT_FALSE(r.deadlock_found) << n;
    petri::ConflictInfo ci(net);
    EXPECT_EQ(ci.choice_component_count(), 0u) << n;  // pure concurrency
  }
  EXPECT_THROW((void)make_cyclic_scheduler(1), std::invalid_argument);
}

TEST(Models, CyclicSchedulerTokenInvariant) {
  // Exactly one scheduler token circulates.
  PetriNet net = make_cyclic_scheduler(4);
  std::vector<petri::PlaceId> toks;
  for (std::size_t i = 0; i < 4; ++i)
    toks.push_back(net.find_place("tok_" + std::to_string(i)));
  reach::ExplorerOptions opt;
  opt.bad_state = [&](const petri::Marking& m) {
    int count = 0;
    for (auto p : toks) count += m.test(p) ? 1 : 0;
    return count != 1;
  };
  EXPECT_FALSE(reach::ExplicitExplorer(net, opt).explore().bad_state_found);
}

TEST(Models, SlottedRingIsSafeAndDeadlockFree) {
  for (std::size_t n : {2u, 3u, 4u, 5u}) {
    PetriNet net = make_slotted_ring(n);
    auto r = reach::ExplicitExplorer(net).explore();
    EXPECT_FALSE(r.safeness_violation) << n;
    EXPECT_FALSE(r.deadlock_found) << n;
  }
  EXPECT_THROW((void)make_slotted_ring(1), std::invalid_argument);
}

TEST(Models, SlottedRingHasConcurrentConflicts) {
  PetriNet net = make_slotted_ring(6);
  petri::ConflictInfo ci(net);
  EXPECT_GE(ci.choice_component_count(), 6u);
}

TEST(Models, SlottedRingSlotConservation) {
  // Each position holds exactly one of {empty, free, full}.
  PetriNet net = make_slotted_ring(4);
  reach::ExplorerOptions opt;
  opt.bad_state = [&](const petri::Marking& m) {
    for (std::size_t i = 0; i < 4; ++i) {
      int c = 0;
      c += m.test(net.find_place("empty_" + std::to_string(i))) ? 1 : 0;
      c += m.test(net.find_place("free_" + std::to_string(i))) ? 1 : 0;
      c += m.test(net.find_place("full_" + std::to_string(i))) ? 1 : 0;
      if (c != 1) return true;
    }
    return false;
  };
  EXPECT_FALSE(reach::ExplicitExplorer(net, opt).explore().bad_state_found);
}

TEST(Models, RandomNetsAreSafeByConstruction) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomNetParams p;
    p.machines = 2 + seed % 4;
    p.states_per_machine = 2 + seed % 4;
    p.transitions = 4 + seed % 15;
    p.sync_percent = (seed * 17) % 100;
    p.seed = seed;
    PetriNet net = make_random_net(p);
    reach::ExplorerOptions opt;
    opt.max_states = 100000;
    auto r = reach::ExplicitExplorer(net, opt).explore();
    EXPECT_FALSE(r.safeness_violation) << "seed=" << seed;
  }
}

TEST(Models, RandomNetIsDeterministicInSeed) {
  RandomNetParams p;
  p.seed = 77;
  PetriNet a = make_random_net(p);
  PetriNet b = make_random_net(p);
  ASSERT_EQ(a.place_count(), b.place_count());
  ASSERT_EQ(a.transition_count(), b.transition_count());
  for (petri::TransitionId t = 0; t < a.transition_count(); ++t) {
    EXPECT_EQ(a.transition(t).pre, b.transition(t).pre);
    EXPECT_EQ(a.transition(t).post, b.transition(t).post);
  }
}

TEST(Models, GrowthShapesMatchTable1) {
  // Full-graph growth must be exponential-ish in the parameter for NSDP and
  // OVER — the precondition for the paper's comparison to be interesting.
  auto states = [](const PetriNet& net) {
    return reach::ExplicitExplorer(net).explore().state_count;
  };
  EXPECT_GT(states(make_nsdp(4)), 4 * states(make_nsdp(2)));
  EXPECT_GT(states(make_overtake(5)), 3 * states(make_overtake(4)));
  EXPECT_GT(states(make_readers_writers(8)),
            3 * states(make_readers_writers(6)));
}

}  // namespace
}  // namespace gpo::models
