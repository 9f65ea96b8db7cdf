#include "safety/safety.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "models/models.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"

namespace gpo::safety {
namespace {

using petri::Marking;
using petri::PetriNet;
using petri::PlaceId;

TEST(SafetyReduction, StructureOfReducedNet) {
  PetriNet net = models::make_fig7();
  SafetyProperty prop{{net.find_place("p4")}};
  ReducedNet reduced = reduce_safety_to_deadlock(net, prop);
  EXPECT_EQ(reduced.net.place_count(), net.place_count() + 2);
  EXPECT_EQ(reduced.net.transition_count(), net.transition_count() + 1);
  EXPECT_EQ(reduced.net.place(reduced.run_place).name, "__run");
  EXPECT_EQ(reduced.net.place(reduced.violation_place).name, "__violation");
  EXPECT_TRUE(reduced.net.initial_marking().test(reduced.run_place));
  EXPECT_FALSE(reduced.net.initial_marking().test(reduced.violation_place));
  // Every original transition self-loops on the run place.
  for (petri::TransitionId t = 0; t < net.transition_count(); ++t) {
    EXPECT_TRUE(reduced.net.transition(t).pre_bits.test(reduced.run_place));
    EXPECT_TRUE(reduced.net.transition(t).post_bits.test(reduced.run_place));
  }
  // The monitor consumes run without returning it.
  EXPECT_TRUE(
      reduced.net.transition(reduced.monitor).pre_bits.test(reduced.run_place));
  EXPECT_FALSE(reduced.net.transition(reduced.monitor)
                   .post_bits.test(reduced.run_place));
}

TEST(SafetyReduction, RejectsBadProperties) {
  PetriNet net = models::make_fig7();
  EXPECT_THROW((void)reduce_safety_to_deadlock(net, SafetyProperty{{}}),
               petri::NetError);
  EXPECT_THROW(
      (void)reduce_safety_to_deadlock(net, SafetyProperty{{99}}),
      petri::NetError);
}

TEST(SafetyReduction, ReducedNetDeadlocksIffViolationOrOriginalDeadlock) {
  // Hand check on fig7: p4 is reachable, so the reduced net must have a
  // deadlock marking __violation; and fig7's own terminal deadlocks persist.
  PetriNet net = models::make_fig7();
  SafetyProperty prop{{net.find_place("p4")}};
  ReducedNet reduced = reduce_safety_to_deadlock(net, prop);
  auto r = reach::ExplicitExplorer(reduced.net).explore();
  ASSERT_TRUE(r.deadlock_found);
  bool violation_deadlock = false, plain_deadlock = false;
  reach::ExplorerOptions opt;
  opt.build_graph = true;
  auto g = reach::ExplicitExplorer(reduced.net, opt).explore();
  (void)g;
  // Re-walk all deadlocks via a bad_state probe.
  reach::ExplorerOptions probe;
  probe.bad_state = [&](const Marking& m) {
    if (!reduced.net.is_deadlocked(m)) return false;
    (m.test(reduced.violation_place) ? violation_deadlock : plain_deadlock) =
        true;
    return false;
  };
  (void)reach::ExplicitExplorer(reduced.net, probe).explore();
  EXPECT_TRUE(violation_deadlock);
  EXPECT_TRUE(plain_deadlock);
}

// The engines under test, as a plain enum: gtest prints an enum parameter
// by its bytes, which keeps the parameterized test IDs stable.
enum class SafetyEngine { kFull, kPor, kBdd, kGpo, kGpoBdd };

const char* engine_name(SafetyEngine e) {
  switch (e) {
    case SafetyEngine::kFull: return "full";
    case SafetyEngine::kPor: return "por";
    case SafetyEngine::kBdd: return "bdd";
    case SafetyEngine::kGpo: return "gpo";
    case SafetyEngine::kGpoBdd: return "gpo-bdd";
  }
  return "";
}

class SafetyEngines : public ::testing::TestWithParam<SafetyEngine> {};

INSTANTIATE_TEST_SUITE_P(All, SafetyEngines,
                         ::testing::Values(SafetyEngine::kFull,
                                           SafetyEngine::kPor,
                                           SafetyEngine::kBdd,
                                           SafetyEngine::kGpo,
                                           SafetyEngine::kGpoBdd),
                         [](const auto& info) {
                           switch (info.param) {
                             case SafetyEngine::kFull: return "explicit";
                             case SafetyEngine::kPor: return "stubborn";
                             case SafetyEngine::kBdd: return "symbolic";
                             case SafetyEngine::kGpo: return "gpo";
                             default: return "gpo_bdd";
                           }
                         });

TEST_P(SafetyEngines, ReachableViolationIsFound) {
  // NSDP: "philosopher 0 and philosopher 1 both hold their left fork" is
  // reachable (it is on the way to the deadlock).
  PetriNet net = models::make_nsdp(3);
  SafetyProperty prop{
      {net.find_place("hasL_0"), net.find_place("hasL_1")}};
  SafetyOptions opt;
  opt.engine = engine_name(GetParam());
  auto r = check_safety(net, prop, opt);
  EXPECT_TRUE(r.violated);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_EQ(r.witness->size(), net.place_count());
  EXPECT_TRUE(r.witness->test(net.find_place("hasL_0")));
  EXPECT_TRUE(r.witness->test(net.find_place("hasL_1")));
}

TEST_P(SafetyEngines, UnreachableViolationIsRejected) {
  // The arbiter tree guarantees mutual exclusion: two clients in their
  // critical sections simultaneously is unreachable.
  PetriNet net = models::make_arbiter_tree(4);
  SafetyProperty prop{{net.find_place("crit_4"), net.find_place("crit_5")}};
  SafetyOptions opt;
  opt.engine = engine_name(GetParam());
  opt.max_seconds = 60;
  auto r = check_safety(net, prop, opt);
  EXPECT_FALSE(r.limit_hit);
  EXPECT_FALSE(r.violated);
  EXPECT_FALSE(r.witness.has_value());
}

TEST_P(SafetyEngines, WriterExclusionHolds) {
  PetriNet net = models::make_readers_writers(4);
  SafetyProperty prop{
      {net.find_place("writing_0"), net.find_place("writing_1")}};
  SafetyOptions opt;
  opt.engine = engine_name(GetParam());
  auto r = check_safety(net, prop, opt);
  EXPECT_FALSE(r.violated);
}

TEST_P(SafetyEngines, WriterReaderConflictIsCaughtWhenPresent) {
  // Reading and writing by the same process simultaneously is impossible;
  // reader 0 + reader 1 concurrently is possible.
  PetriNet net = models::make_readers_writers(4);
  SafetyOptions opt;
  opt.engine = engine_name(GetParam());
  auto impossible = check_safety(
      net, SafetyProperty{{net.find_place("reading_0"),
                           net.find_place("writing_0")}},
      opt);
  EXPECT_FALSE(impossible.violated);
  auto possible = check_safety(
      net, SafetyProperty{{net.find_place("reading_0"),
                           net.find_place("reading_1")}},
      opt);
  EXPECT_TRUE(possible.violated);
}

TEST(SafetyProperty, RandomNetsAgreeWithGroundTruth) {
  for (std::uint64_t seed = 500; seed < 540; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 3;
    p.states_per_machine = 3;
    p.transitions = 5 + seed % 10;
    p.seed = seed;
    PetriNet net = models::make_random_net(p);

    // Property: machine 0 in state 1 while machine 1 in state 1.
    SafetyProperty prop{
        {net.find_place("m0s1"), net.find_place("m1s1")}};

    reach::ExplorerOptions eo;
    eo.max_states = 100000;
    eo.bad_state = [&](const Marking& m) {
      return std::all_of(prop.never_all_marked.begin(),
                         prop.never_all_marked.end(),
                         [&](PlaceId pl) { return m.test(pl); });
    };
    auto ground = reach::ExplicitExplorer(net, eo).explore();
    if (ground.limit_hit) continue;

    for (const char* e : {"por", "bdd", "gpo", "gpo-bdd"}) {
      SafetyOptions opt;
      opt.engine = e;
      opt.max_seconds = 30;
      auto r = check_safety(net, prop, opt);
      ASSERT_FALSE(r.limit_hit) << "seed=" << seed;
      EXPECT_EQ(r.violated, ground.bad_state_found)
          << "seed=" << seed << " engine=" << e;
      if (r.violated) {
        ASSERT_TRUE(r.witness.has_value());
        for (PlaceId pl : prop.never_all_marked)
          EXPECT_TRUE(r.witness->test(pl)) << "seed=" << seed;
      }
    }
  }
}

TEST(SafetyWitness, IsReachableInOriginalNet) {
  PetriNet net = models::make_nsdp(2);
  SafetyProperty prop{{net.find_place("hasL_0"), net.find_place("hasL_1")}};
  SafetyOptions opt;
  opt.engine = "gpo-bdd";
  auto r = check_safety(net, prop, opt);
  ASSERT_TRUE(r.violated);
  // The stripped witness must be a classically reachable marking.
  reach::ExplorerOptions eo;
  eo.bad_state = [&](const Marking& m) { return m == *r.witness; };
  EXPECT_TRUE(reach::ExplicitExplorer(net, eo).explore().bad_state_found);
}

TEST(SafetyOptions, EnginesWithoutADeadlockFilterAreRejected) {
  PetriNet net = models::make_nsdp(2);
  SafetyProperty prop{{net.find_place("hasL_0"), net.find_place("hasL_1")}};
  EXPECT_FALSE(supports_engine("unfold"));
  EXPECT_FALSE(supports_engine("bogus"));
  for (const char* e : {"unfold", "all", "bogus"}) {
    SafetyOptions opt;
    opt.engine = e;
    EXPECT_THROW((void)check_safety(net, prop, opt), std::invalid_argument)
        << e;
  }
}

TEST(SafetyOptions, FamilyStoreReachesTheGpoEngines) {
  // Unset, the store is the engine table's default (zdd); a named store
  // overrides it.
  PetriNet net = models::make_nsdp(3);
  SafetyProperty prop{{net.find_place("hasL_0"), net.find_place("hasL_1")}};
  for (const char* e : {"gpo", "gpo-intern"}) {
    for (auto store : {std::optional<core::FamilyStore>{},
                       std::optional{core::FamilyStore::kZdd},
                       std::optional{core::FamilyStore::kExplicit}}) {
      obs::MetricsRegistry metrics;
      SafetyOptions opt;
      opt.engine = e;
      opt.family_store = store;
      opt.metrics = &metrics;
      EXPECT_TRUE(check_safety(net, prop, opt).violated) << e;
      EXPECT_EQ(metrics.snapshot("safety.zdd.").empty(),
                store == core::FamilyStore::kExplicit)
          << e;
    }
  }
}

}  // namespace
}  // namespace gpo::safety
