// Tests for the structural net-reduction pipeline (src/reduce/): per-pass
// side conditions on hand-built nets, certificate mapping/replay, and the
// acceptance gate of the subsystem — bitwise verdict parity between reduced
// and unreduced runs across every engine on the Table-1 models and a random
// net corpus, with every deadlock counterexample mapped back through the
// certificate and replayed on the original net.
#include "reduce/reduce.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bdd/symbolic_reach.hpp"
#include "core/gpo.hpp"
#include "models/models.hpp"
#include "petri/builder.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"

namespace gpo::reduce {
namespace {

using petri::Marking;
using petri::NetBuilder;
using petri::PetriNet;
using petri::TransitionId;

bool pass_applied(const ReductionStats& stats, const std::string& pass) {
  for (const PassCount& pc : stats.pass_counts)
    if (pc.pass == pass) return pc.applications > 0;
  return false;
}

/// Exhaustive deadlock verdict — the ground truth every comparison uses.
bool has_deadlock(const PetriNet& net) {
  return reach::ExplicitExplorer(net).explore().deadlock_found;
}

// ---------------------------------------------------------------------------
// Per-pass side conditions
// ---------------------------------------------------------------------------

TEST(ReducePasses, DeadTransitionWithUnmarkablePresetIsRemoved) {
  NetBuilder b("dead-t");
  auto a = b.add_place("a", true);
  auto bb = b.add_place("b", false);
  auto p = b.add_place("p", false);  // unmarked, no producer: unmarkable
  auto q = b.add_place("q", false);
  auto live = b.add_transition("live");
  b.add_input_arc(a, live);
  b.add_output_arc(live, bb);
  auto dead = b.add_transition("dead");
  b.add_input_arc(p, dead);
  b.add_output_arc(dead, q);
  PetriNet net = b.build();

  ReductionResult red = reduce_net(net, {});
  EXPECT_TRUE(pass_applied(red.stats, "dead-transitions"));
  for (TransitionId t = 0; t < red.net.transition_count(); ++t)
    EXPECT_NE(red.net.transition(t).name, "dead");
  EXPECT_EQ(has_deadlock(net), has_deadlock(red.net));
}

TEST(ReducePasses, SinkPlaceIsRemoved) {
  NetBuilder b("sink");
  auto a = b.add_place("a", true);
  auto s = b.add_place("sink", false);  // no consumer
  auto t = b.add_transition("t");
  b.add_input_arc(a, t);
  b.add_output_arc(t, s);
  PetriNet net = b.build();

  ReductionResult red = reduce_net(net, {});
  EXPECT_TRUE(pass_applied(red.stats, "dead-places"));
  EXPECT_LT(red.net.place_count(), net.place_count());
  EXPECT_EQ(has_deadlock(net), has_deadlock(red.net));
}

TEST(ReducePasses, ConstantSelfLoopPlaceIsRemoved) {
  NetBuilder b("const");
  auto a = b.add_place("a", true);
  auto c = b.add_place("c", true);  // every adjacent transition self-loops
  auto out = b.add_place("out", false);
  auto t = b.add_transition("t");
  b.add_input_arc(a, t);
  b.add_input_arc(c, t);
  b.add_output_arc(t, c);
  auto u = b.add_transition("u");  // keeps `out` from being a plain sink
  b.add_input_arc(out, u);
  b.add_output_arc(u, a);
  b.add_output_arc(t, out);
  PetriNet net = b.build();

  ReductionResult red = reduce_net(net, {});
  EXPECT_TRUE(pass_applied(red.stats, "constant-places"));
  for (petri::PlaceId p = 0; p < red.net.place_count(); ++p)
    EXPECT_NE(red.net.place(p).name, "c");
  EXPECT_EQ(has_deadlock(net), has_deadlock(red.net));
}

TEST(ReducePasses, DuplicateTransitionsFuse) {
  NetBuilder b("dup-t");
  auto a = b.add_place("a", true);
  auto c = b.add_place("c", false);
  auto loop = b.add_transition("back");
  b.add_input_arc(c, loop);
  b.add_output_arc(loop, a);
  for (const char* name : {"t1", "t2"}) {  // identical pre and post
    auto t = b.add_transition(name);
    b.add_input_arc(a, t);
    b.add_output_arc(t, c);
  }
  PetriNet net = b.build();

  ReductionResult red = reduce_net(net, {});
  EXPECT_TRUE(pass_applied(red.stats, "dup-transitions"));
  EXPECT_EQ(red.net.transition_count(), net.transition_count() - 1);
  EXPECT_EQ(has_deadlock(net), has_deadlock(red.net));
}

TEST(ReducePasses, DuplicatePlacesFuse) {
  NetBuilder b("dup-p");
  auto p1 = b.add_place("p1", true);
  auto p2 = b.add_place("p2", true);  // same producers/consumers/marking
  auto c = b.add_place("c", false);
  auto t = b.add_transition("t");
  b.add_input_arc(p1, t);
  b.add_input_arc(p2, t);
  b.add_output_arc(t, c);
  auto u = b.add_transition("u");
  b.add_input_arc(c, u);
  b.add_output_arc(u, p1);
  b.add_output_arc(u, p2);
  PetriNet net = b.build();

  ReductionResult red = reduce_net(net, {});
  EXPECT_TRUE(pass_applied(red.stats, "dup-places"));
  EXPECT_EQ(red.net.place_count(), net.place_count() - 1);
  EXPECT_EQ(has_deadlock(net), has_deadlock(red.net));
}

TEST(ReducePasses, AgglomerationCollapsesSequenceAtAggressiveOnly) {
  NetBuilder b("agg");
  auto a = b.add_place("a", true);
  auto p = b.add_place("p", false);
  auto out = b.add_place("out", false);
  auto back = b.add_place("back", false);
  auto f = b.add_transition("f");
  b.add_input_arc(a, f);
  b.add_output_arc(f, p);  // post(f) = {p}
  auto h = b.add_transition("h");
  b.add_input_arc(p, h);  // pre(h) = {p}
  b.add_output_arc(h, out);  // producers(out) = {h}
  auto u = b.add_transition("u");
  b.add_input_arc(out, u);
  b.add_output_arc(u, back);
  PetriNet net = b.build();

  ReduceOptions safe;
  safe.level = ReduceLevel::kSafe;
  EXPECT_FALSE(pass_applied(reduce_net(net, safe).stats, "agglomeration"));

  ReduceOptions aggressive;
  aggressive.level = ReduceLevel::kAggressive;
  ReductionResult red = reduce_net(net, aggressive);
  EXPECT_TRUE(pass_applied(red.stats, "agglomeration"));
  EXPECT_EQ(has_deadlock(net), has_deadlock(red.net));

  // The fused transition expands to [f, h] on the original net, and the
  // expanded deadlock trace replays there.
  reach::ExplorerResult r = reach::ExplicitExplorer(red.net).explore();
  ASSERT_TRUE(r.deadlock_found);
  std::vector<TransitionId> mapped =
      red.certificate.map_to_original(r.counterexample);
  EXPECT_GT(mapped.size(), r.counterexample.size());
  std::optional<Marking> end = replay_trace(net, mapped);
  ASSERT_TRUE(end.has_value());
  EXPECT_TRUE(net.is_deadlocked(*end));
}

TEST(ReducePasses, AgglomerationRefusesMarkedMiddlePlace) {
  NetBuilder b("agg-marked");
  auto a = b.add_place("a", true);
  auto p = b.add_place("p", true);  // marked: side condition fails
  auto out = b.add_place("out", false);
  auto out2 = b.add_place("out2", false);
  auto f = b.add_transition("f");
  b.add_input_arc(a, f);
  b.add_output_arc(f, p);
  auto h = b.add_transition("h");
  b.add_input_arc(p, h);
  // post(h) = {out, out2}, so neither out place is a candidate either
  // (its producer's postset is not the singleton {place}).
  b.add_output_arc(h, out);
  b.add_output_arc(h, out2);
  auto u = b.add_transition("u");
  b.add_input_arc(out, u);
  b.add_input_arc(out2, u);
  b.add_output_arc(u, a);
  // Extra consumer keeps out/out2 from being dup-place-fused upstream in
  // the fixpoint (which would re-enable agglomeration on the fused place).
  auto w = b.add_transition("w");
  b.add_input_arc(out2, w);
  b.add_output_arc(w, a);
  PetriNet net = b.build();

  ReduceOptions aggressive;
  aggressive.level = ReduceLevel::kAggressive;
  EXPECT_FALSE(
      pass_applied(reduce_net(net, aggressive).stats, "agglomeration"));
}

TEST(ReducePasses, AgglomerationRefusesConsumerOutputWithOtherProducers) {
  NetBuilder b("agg-shared");
  auto a = b.add_place("a", true);
  auto p = b.add_place("p", false);
  auto out = b.add_place("out", false);
  auto f = b.add_transition("f");
  b.add_input_arc(a, f);
  b.add_output_arc(f, p);
  auto h = b.add_transition("h");
  b.add_input_arc(p, h);
  b.add_output_arc(h, out);
  auto rival = b.add_transition("rival");  // second producer of `out`
  b.add_input_arc(a, rival);
  b.add_output_arc(rival, out);
  // pre(u) = {a, out} keeps `out` itself from being agglomerated (its
  // consumer's preset is not the singleton {out}).
  auto u = b.add_transition("u");
  b.add_input_arc(out, u);
  b.add_input_arc(a, u);
  b.add_output_arc(u, a);
  PetriNet net = b.build();

  ReduceOptions aggressive;
  aggressive.level = ReduceLevel::kAggressive;
  EXPECT_FALSE(
      pass_applied(reduce_net(net, aggressive).stats, "agglomeration"));
}

// ---------------------------------------------------------------------------
// Certificate and option plumbing
// ---------------------------------------------------------------------------

TEST(ReduceCertificate, OffLevelIsIdentity) {
  PetriNet net = models::make_nsdp(3);
  ReduceOptions off;
  off.level = ReduceLevel::kOff;
  ReductionResult red = reduce_net(net, off);
  EXPECT_TRUE(red.certificate.empty());
  EXPECT_EQ(red.net.place_count(), net.place_count());
  EXPECT_EQ(red.net.transition_count(), net.transition_count());
  std::vector<TransitionId> trace = {0, 1};
  EXPECT_EQ(red.certificate.map_to_original(trace), trace);
}

// The reduce-once-then-map contract of every caller that reduces before
// running engines (the CLI and the portfolio scheduler): the engine runs on
// the reduced net, and map_counterexample carries its trace back.
TEST(ReduceCertificate, ExplorerOptionMapsCounterexampleToOriginalNet) {
  PetriNet net = models::make_overtake(3);
  ReduceOptions aggressive;
  aggressive.level = ReduceLevel::kAggressive;
  ReductionResult red = reduce_net(net, aggressive);
  reach::ExplorerResult r = reach::ExplicitExplorer(red.net).explore();
  reach::ExplorerResult base = reach::ExplicitExplorer(net).explore();
  ASSERT_EQ(r.deadlock_found, base.deadlock_found);
  ASSERT_TRUE(r.deadlock_found);
  // The mapped counterexample is a firing sequence of the ORIGINAL net and
  // the helper has already replayed it into its dead end marking.
  MappedCounterexample mapped =
      map_counterexample(net, red.certificate, r.counterexample);
  std::optional<Marking> end = replay_trace(net, mapped.trace);
  ASSERT_TRUE(end.has_value());
  EXPECT_TRUE(net.is_deadlocked(*end));
  ASSERT_TRUE(mapped.deadlock.has_value());
  EXPECT_EQ(*mapped.deadlock, *end);
}

TEST(ReduceCertificate, GpoOptionMapsCounterexampleToOriginalNet) {
  PetriNet net = models::make_overtake(3);
  ReduceOptions aggressive;
  aggressive.level = ReduceLevel::kAggressive;
  ReductionResult red = reduce_net(net, aggressive);
  core::GpoResult r = core::run_gpo(red.net, core::FamilyKind::kInterned);
  ASSERT_TRUE(r.deadlock_found);
  if (!r.counterexample.empty()) {
    MappedCounterexample mapped =
        map_counterexample(net, red.certificate, r.counterexample);
    std::optional<Marking> end = replay_trace(net, mapped.trace);
    ASSERT_TRUE(end.has_value());
    EXPECT_TRUE(net.is_deadlocked(*end));
    EXPECT_TRUE(mapped.deadlock.has_value());
  }
}

TEST(ReduceCertificate, ReplayRejectsDisabledSteps) {
  PetriNet net = models::make_nsdp(2);
  // A transition fired twice in a row from the initial marking cannot be
  // enabled the second time on these models.
  std::vector<TransitionId> bogus = {0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(replay_trace(net, bogus).has_value());
  std::vector<TransitionId> unknown = {
      static_cast<TransitionId>(net.transition_count())};
  EXPECT_FALSE(replay_trace(net, unknown).has_value());
}

// ---------------------------------------------------------------------------
// Reduced-vs-unreduced parity: Table-1 models x engines x levels
// ---------------------------------------------------------------------------

struct Verdicts {
  bool full, por, bdd, gpo, gpo_intern, gpo_bdd;
};

Verdicts run_all_engines(const PetriNet& net) {
  Verdicts v{};
  v.full = reach::ExplicitExplorer(net).explore().deadlock_found;
  v.por = por::StubbornExplorer(net).explore().deadlock_found;
  v.bdd = bdd::SymbolicReachability(net).analyze().deadlock_found;
  v.gpo = core::run_gpo(net, core::FamilyKind::kExplicit).deadlock_found;
  v.gpo_intern =
      core::run_gpo(net, core::FamilyKind::kInterned).deadlock_found;
  v.gpo_bdd = core::run_gpo(net, core::FamilyKind::kBdd).deadlock_found;
  return v;
}

class ReduceParity : public ::testing::TestWithParam<const char*> {};

TEST_P(ReduceParity, VerdictsIdenticalAcrossEnginesAndLevels) {
  PetriNet net = *models::make_by_spec(GetParam());
  Verdicts base = run_all_engines(net);
  // All engines agree on the unreduced net (cross-engine invariant).
  EXPECT_EQ(base.full, base.por);
  EXPECT_EQ(base.full, base.bdd);
  EXPECT_EQ(base.full, base.gpo);
  EXPECT_EQ(base.full, base.gpo_intern);
  EXPECT_EQ(base.full, base.gpo_bdd);

  for (ReduceLevel level : {ReduceLevel::kSafe, ReduceLevel::kAggressive}) {
    ReduceOptions ro;
    ro.level = level;
    ReductionResult red = reduce_net(net, ro);
    Verdicts v = run_all_engines(red.net);
    const char* lvl = reduce_level_name(level);
    EXPECT_EQ(v.full, base.full) << GetParam() << " full @" << lvl;
    EXPECT_EQ(v.por, base.full) << GetParam() << " por @" << lvl;
    EXPECT_EQ(v.bdd, base.full) << GetParam() << " bdd @" << lvl;
    EXPECT_EQ(v.gpo, base.full) << GetParam() << " gpo @" << lvl;
    EXPECT_EQ(v.gpo_intern, base.full)
        << GetParam() << " gpo-intern @" << lvl;
    EXPECT_EQ(v.gpo_bdd, base.full) << GetParam() << " gpo-bdd @" << lvl;

    // Deadlock counterexamples map back and replay on the original net.
    reach::ExplorerResult r = reach::ExplicitExplorer(red.net).explore();
    if (r.deadlock_found) {
      std::vector<TransitionId> mapped =
          red.certificate.map_to_original(r.counterexample);
      std::optional<Marking> end = replay_trace(net, mapped);
      ASSERT_TRUE(end.has_value())
          << GetParam() << " @" << lvl << ": counterexample does not replay";
      EXPECT_TRUE(net.is_deadlocked(*end))
          << GetParam() << " @" << lvl << ": replay ends non-deadlocked";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, ReduceParity,
                         ::testing::Values("nsdp:4", "asat:2", "over:3",
                                           "over:4", "rw:6", "cyclic:4",
                                           "ring:4", "diamond:5", "chain:8",
                                           "fig3", "fig5", "fig7"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == ':') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Reduced-vs-unreduced parity: random net corpus
// ---------------------------------------------------------------------------

TEST(ReduceParity, SixtyRandomNetsAcrossBothLevels) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    models::RandomNetParams params;
    params.machines = 2 + seed % 3;
    params.states_per_machine = 3 + seed % 4;
    params.transitions = 8 + seed % 9;
    params.sync_percent = (seed * 17) % 101;
    params.seed = seed;
    PetriNet net = models::make_random_net(params);
    bool base = has_deadlock(net);
    for (ReduceLevel level :
         {ReduceLevel::kSafe, ReduceLevel::kAggressive}) {
      ReduceOptions ro;
      ro.level = level;
      ReductionResult red = reduce_net(net, ro);
      reach::ExplorerResult r = reach::ExplicitExplorer(red.net).explore();
      EXPECT_EQ(r.deadlock_found, base)
          << "seed " << seed << " @" << reduce_level_name(level);
      if (r.deadlock_found) {
        std::optional<Marking> end = replay_trace(
            net, red.certificate.map_to_original(r.counterexample));
        ASSERT_TRUE(end.has_value()) << "seed " << seed;
        EXPECT_TRUE(net.is_deadlocked(*end)) << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace gpo::reduce
