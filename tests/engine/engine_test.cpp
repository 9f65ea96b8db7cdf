// The engine table: every engine behind engine::run must give the exhaustive
// engine's verdict, and every counterexample it returns must replay to a
// dead marking — with and without stop_at_first_deadlock.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
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

TEST(EngineTable, EveryEngineAgreesWithFullAndItsCounterexamplesReplay) {
  for (const char* spec : {"fig7", "nsdp:4", "over:3", "asat:4", "rw:6",
                           "ring:4"}) {
    std::optional<petri::PetriNet> net = models::make_by_spec(spec);
    ASSERT_TRUE(net.has_value()) << spec;
    for (bool first : {false, true}) {
      EngineRequest req;
      req.stop_at_first_deadlock = first;
      const EngineOutcome truth = run("full", *net, req);
      ASSERT_TRUE(truth.conclusive) << spec;
      for (const std::string& e : names()) {
        const std::string where = std::string(spec) + " " + e +
                                  (first ? " (first)" : " (all)");
        EngineOutcome out = run(e, *net, req);
        EXPECT_EQ(out.engine, e);
        ASSERT_TRUE(out.conclusive) << where;
        EXPECT_EQ(out.verdict, truth.verdict) << where;
        EXPECT_EQ(out.deadlock, truth.deadlock) << where;
        if (out.witness.has_value()) {
          EXPECT_TRUE(net->is_deadlocked(*out.witness)) << where;
        }
        if (out.counterexample.empty()) continue;
        std::optional<petri::Marking> end =
            reduce::replay_trace(*net, out.counterexample);
        ASSERT_TRUE(end.has_value()) << where;
        EXPECT_TRUE(net->is_deadlocked(*end)) << where;
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
