// The reproduction's own verification: all four engine families must agree
// with exhaustive ground truth on deadlock verdicts (and the symbolic engine
// on exact state counts) across the benchmark models and a corpus of random
// 1-safe nets. This is the property suite DESIGN.md commits to.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/symbolic_reach.hpp"
#include "core/gpo.hpp"
#include "engine/engine.hpp"
#include "models/models.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"
#include "reduce/reduce.hpp"

namespace gpo {
namespace {

using petri::PetriNet;

struct Verdicts {
  std::size_t ground_states;
  bool ground;
  bool por;
  bool gpo_explicit;
  bool gpo_interned;
  bool gpo_bdd;
  bool symbolic;
  double symbolic_states;
};

Verdicts run_all(const PetriNet& net) {
  Verdicts v{};
  auto ground = reach::ExplicitExplorer(net).explore();
  EXPECT_FALSE(ground.safeness_violation) << net.name();
  v.ground_states = ground.state_count;
  v.ground = ground.deadlock_found;
  v.por = por::StubbornExplorer(net).explore().deadlock_found;
  v.gpo_explicit =
      core::run_gpo(net, core::FamilyKind::kExplicit).deadlock_found;
  v.gpo_interned =
      core::run_gpo(net, core::FamilyKind::kInterned).deadlock_found;
  v.gpo_bdd = core::run_gpo(net, core::FamilyKind::kBdd).deadlock_found;
  auto sym = bdd::SymbolicReachability(net).analyze();
  EXPECT_FALSE(sym.blowup) << net.name();
  v.symbolic = sym.deadlock_found;
  v.symbolic_states = sym.state_count;
  return v;
}

void expect_agreement(const PetriNet& net) {
  Verdicts v = run_all(net);
  EXPECT_EQ(v.por, v.ground) << net.name();
  EXPECT_EQ(v.gpo_explicit, v.ground) << net.name();
  EXPECT_EQ(v.gpo_interned, v.ground) << net.name();
  EXPECT_EQ(v.gpo_bdd, v.ground) << net.name();
  EXPECT_EQ(v.symbolic, v.ground) << net.name();
  EXPECT_EQ(v.symbolic_states, static_cast<double>(v.ground_states))
      << net.name();
}

class ModelAgreement : public ::testing::TestWithParam<int> {};

TEST(CrossEngine, BenchmarkModelsAgree) {
  expect_agreement(models::make_diamond(5));
  expect_agreement(models::make_conflict_chain(5));
  expect_agreement(models::make_nsdp(2));
  expect_agreement(models::make_nsdp(4));
  expect_agreement(models::make_arbiter_tree(2));
  expect_agreement(models::make_arbiter_tree(4));
  expect_agreement(models::make_overtake(2));
  expect_agreement(models::make_overtake(4));
  expect_agreement(models::make_readers_writers(4));
  expect_agreement(models::make_readers_writers(7));
  expect_agreement(models::make_fig3());
  expect_agreement(models::make_fig7());
}

/// Differential fuzz against `full`: random 1-safe nets of 2-12 machines,
/// from fixed seeds, through engine::run for every engine, and gpo and
/// gpo-intern also on the explicit family stores. Every conclusive run must
/// give full's verdict, bdd full's state count, the GPO runs one GPN state
/// count, and every deadlock of full, por and gpo* a trace that replays into
/// a dead marking.
class RandomAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomAgreement, AllEnginesMatchGroundTruth) {
  constexpr std::uint64_t kNets = 100;
  struct Run {
    std::string engine;
    std::optional<core::FamilyStore> store;  // nullopt: the request default
  };
  std::vector<Run> runs;
  for (const std::string& e : engine::names())
    if (e != "full") runs.push_back({e, std::nullopt});
  runs.push_back({"gpo", core::FamilyStore::kExplicit});
  runs.push_back({"gpo-intern", core::FamilyStore::kExplicit});

  std::size_t compared = 0, deadlocks = 0;
  const std::uint64_t base = GetParam();
  for (std::uint64_t seed = base; seed < base + kNets; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 11;
    p.states_per_machine = 2 + (seed / 11) % 3;
    p.transitions = p.machines + (seed * 7) % (2 * p.machines + 1);
    p.sync_percent = static_cast<std::uint32_t>(20 + (seed * 13) % 75);
    p.seed = seed;
    const PetriNet net = models::make_random_net(p);
    const std::string net_name = "seed=" + std::to_string(seed) +
                                 " machines=" + std::to_string(p.machines);

    engine::EngineRequest req;
    req.max_states = 200'000;
    req.max_seconds = 5;
    const engine::EngineOutcome truth = engine::run("full", net, req);
    EXPECT_FALSE(truth.unsafe_net) << net_name;
    if (!truth.conclusive) {
      std::cout << "skipped " << net_name << ": full " << truth.verdict
                << "\n";
      continue;
    }
    bool all_conclusive = true;
    double gpn_states = -1;
    for (const Run& r : runs) {
      const std::string where =
          net_name + " " + r.engine + (r.store ? " (explicit store)" : "");
      engine::EngineRequest rr = req;
      if (r.store) rr.family_store = *r.store;
      engine::EngineOutcome out;
      try {
        out = engine::run(r.engine, net, rr);
      } catch (const std::length_error&) {
        out.verdict = "past the explicit r0 cap";
      }
      if (!out.conclusive) {
        std::cout << "skipped " << where << ": " << out.verdict << "\n";
        all_conclusive = false;
        continue;
      }
      EXPECT_EQ(out.deadlock, truth.deadlock) << where;
      if (r.engine == "bdd") {
        EXPECT_EQ(out.states, truth.states) << where;
      }
      if (r.engine.starts_with("gpo")) {
        if (gpn_states < 0) gpn_states = out.states;
        EXPECT_EQ(out.states, gpn_states) << where;
      }
      if (out.witness.has_value()) {
        EXPECT_TRUE(net.is_deadlocked(*out.witness)) << where;
      }
      if (!out.deadlock || r.engine == "bdd" || r.engine == "unfold") continue;
      std::optional<petri::Marking> end =
          reduce::replay_trace(net, out.counterexample);
      ASSERT_TRUE(end.has_value()) << where;
      EXPECT_TRUE(net.is_deadlocked(*end)) << where;
    }
    if (!all_conclusive) continue;
    ++compared;
    if (truth.deadlock) ++deadlocks;
  }
  std::cout << "random agreement from seed " << base << ": " << compared
            << " of " << kNets << " nets compared on every run, " << deadlocks
            << " with a deadlock\n";
  EXPECT_GE(compared * 10, kNets * 9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAgreement,
                         ::testing::Values(1u, 101u, 201u, 301u));

TEST(CrossEngine, GpoWitnessAlwaysVerifies) {
  // Whenever GPO reports a deadlock on any model, the extracted classical
  // marking must genuinely be dead.
  for (auto make : {+[] { return models::make_nsdp(5); },
                    +[] { return models::make_overtake(5); },
                    +[] { return models::make_conflict_chain(7); },
                    +[] { return models::make_diamond(6); }}) {
    PetriNet net = make();
    auto r = core::run_gpo(net, core::FamilyKind::kBdd);
    ASSERT_TRUE(r.deadlock_found) << net.name();
    ASSERT_TRUE(r.deadlock_witness.has_value()) << net.name();
    EXPECT_TRUE(net.is_deadlocked(*r.deadlock_witness)) << net.name();
  }
}

TEST(CrossEngine, ReductionOrderingOnConflictChain) {
  // The paper's central quantitative claim, end to end: on the Fig. 2
  // family, full = 3^N, POR = 2^{N+1}-1, GPO = 2.
  const std::size_t n = 6;
  PetriNet net = models::make_conflict_chain(n);
  auto full = reach::ExplicitExplorer(net).explore();
  auto por_r = por::StubbornExplorer(net).explore();
  auto gpo_r = core::run_gpo(net, core::FamilyKind::kBdd);
  std::size_t pow3 = 1;
  for (std::size_t i = 0; i < n; ++i) pow3 *= 3;
  EXPECT_EQ(full.state_count, pow3);
  EXPECT_EQ(por_r.state_count, (std::size_t{2} << n) - 1);
  EXPECT_EQ(gpo_r.state_count, 2u);
}

}  // namespace
}  // namespace gpo
