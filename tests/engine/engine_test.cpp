// The engine table: every engine behind engine::run must give the exhaustive
// engine's verdict, and every counterexample it returns must replay to a
// dead marking — with and without stop_at_first_deadlock.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/models.hpp"
#include "reduce/reduce.hpp"

namespace gpo::engine {
namespace {

TEST(EngineTable, NamesAreTheSevenEnginesInTableOrder) {
  const std::vector<std::string> want = {
      "full", "por", "bdd", "gpo", "gpo-intern", "gpo-bdd", "unfold"};
  EXPECT_EQ(names(), want);
  for (const std::string& e : want) EXPECT_TRUE(is_engine(e)) << e;
  EXPECT_FALSE(is_engine("all"));
  EXPECT_FALSE(is_engine("bogus"));
}

/// The model specs plus three random nets on which every GPO store once
/// answered `no deadlock` while `full` finds one: the deadlock hides behind a
/// conflict that is contested again after every valid set chose against one
/// of its transitions.
std::vector<std::pair<std::string, petri::PetriNet>> agreement_nets() {
  std::vector<std::pair<std::string, petri::PetriNet>> nets;
  for (const char* spec : {"fig7", "nsdp:4", "over:3", "asat:4", "rw:6",
                           "ring:4"}) {
    std::optional<petri::PetriNet> net = models::make_by_spec(spec);
    EXPECT_TRUE(net.has_value()) << spec;
    if (net) nets.emplace_back(spec, std::move(*net));
  }
  for (const models::RandomNetParams& p :
       {models::RandomNetParams{3, 3, 9, 71, 5776},
        models::RandomNetParams{9, 2, 10, 83, 6948},
        models::RandomNetParams{3, 3, 6, 43, 5613}})
    nets.emplace_back("random seed=" + std::to_string(p.seed),
                      models::make_random_net(p));
  return nets;
}

/// Engines whose deadlock verdict comes with a trace from the initial
/// marking (bdd and unfold report a dead marking only).
bool gives_trace(const std::string& engine) {
  return engine != "bdd" && engine != "unfold";
}

TEST(EngineTable, EveryEngineAgreesWithFullAndItsCounterexamplesReplay) {
  for (const auto& [name, net] : agreement_nets()) {
    for (bool first : {false, true}) {
      EngineRequest req;
      req.stop_at_first_deadlock = first;
      const EngineOutcome truth = run("full", net, req);
      ASSERT_TRUE(truth.conclusive) << name;
      for (const std::string& e : names()) {
        const std::string where =
            name + " " + e + (first ? " (first)" : " (all)");
        EngineOutcome out = run(e, net, req);
        EXPECT_EQ(out.engine, e);
        ASSERT_TRUE(out.conclusive) << where;
        EXPECT_EQ(out.verdict, truth.verdict) << where;
        EXPECT_EQ(out.deadlock, truth.deadlock) << where;
        if (out.witness.has_value()) {
          EXPECT_TRUE(net.is_deadlocked(*out.witness)) << where;
        }
        // A deadlock verdict must come with a trace that replays into a
        // dead marking (the empty trace only when m0 itself is dead).
        if (!out.deadlock || !gives_trace(e)) continue;
        std::optional<petri::Marking> end =
            reduce::replay_trace(net, out.counterexample);
        ASSERT_TRUE(end.has_value()) << where;
        EXPECT_TRUE(net.is_deadlocked(*end)) << where;
        if (out.witness.has_value()) {
          EXPECT_EQ(*end, *out.witness) << where;
        }
      }
    }
  }
}

TEST(EngineTable, TheRequiredPlaceIsRejectedWhereItCannotFilter) {
  petri::PetriNet net = models::make_fig7();
  EngineRequest req;
  req.required_deadlock_place = 0;
  for (const std::string& e : names()) {
    EXPECT_EQ(filters_deadlocks(e), e != "full" && e != "unfold") << e;
    if (!filters_deadlocks(e)) {
      EXPECT_THROW((void)run(e, net, req), std::invalid_argument) << e;
    }
  }
  EXPECT_THROW((void)run("bogus", net, EngineRequest{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace gpo::engine
