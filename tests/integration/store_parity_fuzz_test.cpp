// Store-parity fuzz: `engine::run("gpo")` on its default family store (zdd)
// must agree with the same call on the explicit store — same verdict, GPN
// state count and delegated-search size — on random 1-safe nets of 2-12
// machines, and every deadlock either store reports must carry a
// counterexample that replays into a dead marking. This checks store agreement only; agreement with `full` is
// the cross-engine suite's business.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "engine/engine.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"

namespace gpo {
namespace {

using petri::PetriNet;

struct StoreRun {
  engine::EngineOutcome out;
  std::uint64_t delegated_states = 0;
  bool zdd_counters = false;  // the run published zdd.* kernel counters
  bool r0_cap = false;        // the explicit store refused the net's r0
};

StoreRun run_store(const PetriNet& net,
                   std::optional<core::FamilyStore> store) {
  obs::MetricsRegistry metrics;
  engine::EngineRequest req;
  req.max_states = 200'000;
  req.max_seconds = 10;
  req.metrics = &metrics;
  if (store) req.family_store = *store;
  StoreRun run;
  try {
    run.out = engine::run("gpo", net, req);
  } catch (const std::length_error&) {
    run.r0_cap = true;
    return run;
  }
  run.delegated_states =
      metrics.counter("engine.gpo.delegated_states").value();
  run.zdd_counters = !metrics.snapshot("engine.gpo.zdd.").empty();
  return run;
}

/// Replays a deadlock verdict's counterexample into a dead marking (the
/// witness, when one is reported). The trace is empty only when the initial
/// marking itself is dead.
void expect_replays(const PetriNet& net, const engine::EngineOutcome& out,
                    const std::string& store) {
  SCOPED_TRACE(store);
  petri::Marking m = net.initial_marking();
  for (petri::TransitionId t : out.counterexample) {
    ASSERT_TRUE(net.enabled(t, m)) << "t" << t;
    m = net.fire(t, m);
  }
  EXPECT_TRUE(net.is_deadlocked(m));
  if (out.witness) {
    EXPECT_EQ(m, *out.witness);
  }
}

TEST(StoreParityFuzz, DefaultZddMatchesExplicitStore) {
  constexpr std::uint64_t kFirstSeed = 9000, kNets = 330;
  std::size_t compared = 0, r0_cap = 0, limit = 0, deadlocks = 0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kNets; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 11;
    p.states_per_machine = 2 + (seed / 11) % 3;
    p.transitions = p.machines + (seed * 7) % (2 * p.machines + 1);
    p.sync_percent = static_cast<std::uint32_t>(20 + (seed * 13) % 75);
    p.seed = seed;
    const PetriNet net = models::make_random_net(p);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " machines=" + std::to_string(p.machines));

    const StoreRun zdd = run_store(net, std::nullopt);
    ASSERT_FALSE(zdd.r0_cap);
    EXPECT_TRUE(zdd.zdd_counters) << "the default store is not zdd";
    const StoreRun expl = run_store(net, core::FamilyStore::kExplicit);
    EXPECT_FALSE(expl.zdd_counters);
    if (expl.r0_cap) {
      ++r0_cap;
      continue;
    }
    if (!zdd.out.conclusive || !expl.out.conclusive) {
      ++limit;
      continue;
    }
    ++compared;
    EXPECT_EQ(zdd.out.verdict, expl.out.verdict);
    EXPECT_EQ(zdd.out.states, expl.out.states);
    // Both stores delegate the same search from m0, or none.
    EXPECT_EQ(zdd.delegated_states, expl.delegated_states);
    if (!zdd.out.deadlock) continue;
    ++deadlocks;
    expect_replays(net, zdd.out, "zdd");
    expect_replays(net, expl.out, "explicit");
  }
  std::cout << "store parity: " << compared << " of " << kNets
            << " nets compared, " << deadlocks
            << " with a deadlock (every counterexample replayed), " << r0_cap
            << " past the explicit r0 cap, " << limit << " hit a limit\n";
  // Skipped nets are reported above; most of the corpus must be compared.
  EXPECT_GE(compared * 10, kNets * 9);
}

}  // namespace
}  // namespace gpo
