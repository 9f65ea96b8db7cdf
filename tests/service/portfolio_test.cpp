// Engine runners as racers: every registry engine must (a) produce the
// correct conclusive verdict when left alone and (b) honour a fired
// CancelToken by returning promptly as cancelled — the property first-to-
// answer cancellation is built on.
#include "service/portfolio.hpp"

#include <gtest/gtest.h>

#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "util/cancel_token.hpp"

namespace gpo::service {
namespace {

TEST(Portfolio, RegistryHasTheSevenEngines) {
  const EngineRegistry& reg = default_engine_registry();
  for (const char* name :
       {"full", "por", "bdd", "gpo", "gpo-intern", "gpo-bdd", "unfold"})
    EXPECT_NE(reg.find(name), nullptr) << name;
  EXPECT_EQ(reg.find("smt"), nullptr);
  EXPECT_EQ(reg.names().size(), 7u);
}

TEST(Portfolio, AddReplacesExistingEntry) {
  EngineRegistry reg;
  reg.add("e", [](const petri::PetriNet&, const engine::EngineRequest&) {
    return EngineOutcome{};
  });
  EngineOutcome marked;
  marked.verdict = "deadlock";
  reg.add("e", [marked](const petri::PetriNet&, const engine::EngineRequest&) {
    return marked;
  });
  ASSERT_EQ(reg.names().size(), 1u);
  EngineOutcome out = (*reg.find("e"))(models::make_fig7(), {});
  EXPECT_EQ(out.verdict, "deadlock");
}

TEST(Portfolio, EveryEngineAgreesOnDeadlockAndDeadlockFreedom) {
  const EngineRegistry& reg = default_engine_registry();
  auto deadlocking = models::make_fig7();       // 5 states, deadlocks
  auto live = models::make_readers_writers(3);  // cyclic, deadlock-free
  for (const std::string& name : reg.names()) {
    const EngineRunner& runner = *reg.find(name);
    EngineOutcome dead = runner(deadlocking, {});
    EXPECT_TRUE(dead.conclusive) << name;
    EXPECT_EQ(dead.verdict, "deadlock") << name;
    EXPECT_TRUE(dead.deadlock) << name;
    EngineOutcome ok = runner(live, {});
    EXPECT_TRUE(ok.conclusive) << name;
    EXPECT_EQ(ok.verdict, "no-deadlock") << name;
    EXPECT_FALSE(ok.deadlock) << name;
  }
}

TEST(Portfolio, EveryEngineHonoursAFiredCancelToken) {
  const EngineRegistry& reg = default_engine_registry();
  auto net = models::make_nsdp(4);
  util::CancelToken token;
  token.cancel();  // fired before the run: first main-loop poll must stop it
  engine::EngineRequest req;
  req.cancel = &token;
  for (const std::string& name : reg.names()) {
    EngineOutcome out = (*reg.find(name))(net, req);
    EXPECT_FALSE(out.conclusive) << name;
    EXPECT_TRUE(out.aborted) << name;
    EXPECT_TRUE(out.cancelled) << name;
    EXPECT_EQ(out.verdict, "cancelled") << name;
  }
}

TEST(Portfolio, CancelledRunsReportTheInterruptedPhase) {
  auto net = models::make_nsdp(4);
  util::CancelToken token;
  token.cancel();
  engine::EngineRequest req;
  req.cancel = &token;
  const EngineRegistry& reg = default_engine_registry();
  EngineOutcome por = (*reg.find("por"))(net, req);
  EXPECT_EQ(por.aborted_phase, "reduced-search");
  EngineOutcome bdd = (*reg.find("bdd"))(net, req);
  EXPECT_EQ(bdd.aborted_phase, "symbolic-fixpoint");
  EngineOutcome unf = (*reg.find("unfold"))(net, req);
  EXPECT_EQ(unf.aborted_phase, "prefix-construction");
}

TEST(Portfolio, RunnersPublishIntoTheJobRegistryUnderEnginePrefix) {
  auto net = models::make_fig7();
  obs::MetricsRegistry metrics;
  const EngineRegistry& reg = default_engine_registry();
  engine::EngineRequest req;
  req.metrics = &metrics;
  (void)(*reg.find("por"))(net, req);
  EXPECT_FALSE(metrics.snapshot("engine.por.").empty());
}

TEST(Portfolio, WinnerCounterexampleReachesTheOutcome) {
  auto net = models::make_fig7();
  const EngineRegistry& reg = default_engine_registry();
  EngineOutcome out = (*reg.find("full"))(net, {});
  ASSERT_EQ(out.verdict, "deadlock");
  EXPECT_FALSE(out.counterexample.empty());
}

TEST(Portfolio, StateBudgetAbortsWithoutCancelFlag) {
  auto net = models::make_nsdp(4);  // 81 states > the 2-state cap
  engine::EngineRequest limits;
  limits.max_states = 2;
  const EngineRegistry& reg = default_engine_registry();
  EngineOutcome out = (*reg.find("full"))(net, limits);
  EXPECT_FALSE(out.conclusive);
  EXPECT_TRUE(out.aborted);
  EXPECT_FALSE(out.cancelled);  // its own limit, not the job token
  EXPECT_EQ(out.verdict, "aborted");
}

}  // namespace
}  // namespace gpo::service
