#include "reach/explorer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "petri/builder.hpp"
#include "reach/search.hpp"
#include "util/marking_table.hpp"

namespace gpo::reach {
namespace {

using petri::Marking;
using petri::NetBuilder;
using petri::PetriNet;

TEST(Explorer, DiamondHasPowerSetOfStates) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
    auto result =
        ExplicitExplorer(models::make_diamond(n)).explore();
    EXPECT_EQ(result.state_count, std::size_t{1} << n) << "n=" << n;
    EXPECT_TRUE(result.deadlock_found);  // terminal marking
    EXPECT_EQ(result.deadlock_count, 1u);
    EXPECT_FALSE(result.safeness_violation);
  }
}

TEST(Explorer, ConflictChainHasThreeToTheN) {
  for (std::size_t n : {1u, 2u, 4u}) {
    auto result =
        ExplicitExplorer(models::make_conflict_chain(n)).explore();
    std::size_t expect = 1;
    for (std::size_t i = 0; i < n; ++i) expect *= 3;
    EXPECT_EQ(result.state_count, expect) << "n=" << n;
    // All 2^n terminal resolutions are deadlocks.
    EXPECT_EQ(result.deadlock_count, std::size_t{1} << n);
  }
}

TEST(Explorer, CounterexampleReplaysToDeadlock) {
  PetriNet net = models::make_nsdp(3);
  auto result = ExplicitExplorer(net).explore();
  ASSERT_TRUE(result.deadlock_found);
  Marking m = net.initial_marking();
  for (petri::TransitionId t : result.counterexample) {
    ASSERT_TRUE(net.enabled(t, m));
    m = net.fire(t, m);
  }
  EXPECT_EQ(m, *result.first_deadlock);
  EXPECT_TRUE(net.is_deadlocked(m));
}

TEST(Explorer, StopAtFirstDeadlockStopsEarly) {
  PetriNet net = models::make_nsdp(4);
  ExplorerOptions opt;
  opt.stop_at_first_deadlock = true;
  auto early = ExplicitExplorer(net, opt).explore();
  auto full = ExplicitExplorer(net).explore();
  EXPECT_TRUE(early.deadlock_found);
  EXPECT_LT(early.state_count, full.state_count);
}

TEST(Explorer, DeadlockFreeNetReportsNone) {
  auto result = ExplicitExplorer(models::make_readers_writers(3)).explore();
  EXPECT_FALSE(result.deadlock_found);
  EXPECT_EQ(result.deadlock_count, 0u);
}

TEST(Explorer, StateLimitReported) {
  ExplorerOptions opt;
  opt.max_states = 10;
  auto result =
      ExplicitExplorer(models::make_nsdp(6), opt).explore();
  EXPECT_TRUE(result.limit_hit);
  // The limit stops further expansion, but the batch in flight may overshoot
  // by up to one state's successor count.
  EXPECT_LE(result.state_count, 10u + 30u);
}

TEST(Explorer, DetectsSafenessViolation) {
  // a: p0 -> p2 ; b: p1 -> p2 with both p0 and p1 marked: firing both puts
  // two tokens in p2.
  NetBuilder b;
  auto p0 = b.add_place("p0", true);
  auto p1 = b.add_place("p1", true);
  auto p2 = b.add_place("p2");
  auto ta = b.add_transition("a");
  b.connect(ta, {p0}, {p2});
  auto tb = b.add_transition("b");
  b.connect(tb, {p1}, {p2});
  auto result = ExplicitExplorer(b.build()).explore();
  EXPECT_TRUE(result.safeness_violation);
  ASSERT_TRUE(result.unsafe_source.has_value());
}

TEST(Explorer, BadStatePredicate) {
  PetriNet net = models::make_nsdp(2);
  petri::PlaceId eat0 = net.find_place("eat_0");
  ExplorerOptions opt;
  opt.bad_state = [eat0](const Marking& m) { return m.test(eat0); };
  auto result = ExplicitExplorer(net, opt).explore();
  EXPECT_TRUE(result.bad_state_found);
  ASSERT_TRUE(result.first_bad_state.has_value());
  EXPECT_TRUE(result.first_bad_state->test(eat0));
}

TEST(Explorer, BuildGraphMatchesCounts) {
  ExplorerOptions opt;
  opt.build_graph = true;
  auto result = ExplicitExplorer(models::make_fig7(), opt).explore();
  EXPECT_EQ(result.graph.node_labels.size(), result.state_count);
  EXPECT_EQ(result.graph.edges.size(), result.edge_count);
  EXPECT_EQ(result.graph.initial, 0u);
  // Initial label mentions both initially marked places.
  EXPECT_NE(result.graph.node_labels[0].find("p0"), std::string::npos);
  EXPECT_NE(result.graph.node_labels[0].find("p3"), std::string::npos);
}

TEST(Explorer, EdgeCountIsTotalFirings) {
  // Diamond(2): states p0p1 -> (t0|t1) -> ... 4 states, 4 edges.
  auto result = ExplicitExplorer(models::make_diamond(2)).explore();
  EXPECT_EQ(result.state_count, 4u);
  EXPECT_EQ(result.edge_count, 4u);
}

TEST(Explorer, MarkingToString) {
  PetriNet net = models::make_fig7();
  EXPECT_EQ(marking_to_string(net, net.initial_marking()), "{p0,p3}");
  EXPECT_EQ(marking_to_string(net, Marking(net.place_count())), "{}");
}

// One token on a cycle of `places` places: `places` states, one word per 64
// places, so the markings span as many words as the cycle needs.
PetriNet token_ring(std::size_t places) {
  NetBuilder bld;
  std::vector<petri::PlaceId> ring;
  for (std::size_t i = 0; i < places; ++i)
    ring.push_back(bld.add_place("p" + std::to_string(i), i == 0));
  for (std::size_t i = 0; i < places; ++i)
    bld.connect(bld.add_transition("t" + std::to_string(i)), {ring[i]},
                {ring[(i + 1) % places]});
  return bld.build();
}

TEST(Explorer, VisitedBytesAreArenaSlotsAndBreadcrumbs) {
  for (std::size_t places : {20u, 64u, 65u, 130u, 300u}) {
    PetriNet net = token_ring(places);
    obs::MetricsRegistry reg;
    ExplorerOptions opt;
    opt.metrics = &reg;
    auto result = ExplicitExplorer(net, opt).explore();
    ASSERT_EQ(result.state_count, places);

    // The store's layout depends only on the width and the state count, so
    // a table holding as many markings prices the search's store.
    util::MarkingTable table(places);
    for (std::size_t i = 0; i < places; ++i) {
      Marking m(places);
      m.set(i);
      ASSERT_TRUE(table.insert(m.words()).second);
    }
    const double expected = static_cast<double>(
        table.arena_bytes() + table.slot_bytes() +
        table.capacity() * sizeof(Breadcrumb));
    EXPECT_EQ(reg.value("mem.full.visited_bytes"), expected)
        << "places=" << places;
  }
}

TEST(Explorer, RootOfAnotherNetIsRejected) {
  PetriNet net = models::make_fig7();
  EXPECT_THROW((void)breadth_first_search(
                   net, {Marking(net.place_count() + 1)}, ExplorerOptions(),
                   "exploration",
                   [](const Marking&, const std::vector<petri::TransitionId>&
                                          enabled) { return enabled; },
                   [](const Marking&) { return false; }),
               std::invalid_argument);
}

// The paper's Fig. 1 example: the full graph of n concurrent transitions has
// n! interleavings but 2^n states; every permutation is a valid firing
// sequence.
TEST(Explorer, Fig1InterleavingSemantics) {
  PetriNet net = models::make_diamond(3);
  Marking m = net.initial_marking();
  // Fire in an arbitrary order; all orders end in the same marking.
  Marking end1 = net.fire(2, net.fire(0, net.fire(1, m)));
  Marking end2 = net.fire(0, net.fire(1, net.fire(2, m)));
  EXPECT_EQ(end1, end2);
  EXPECT_TRUE(net.is_deadlocked(end1));
}

}  // namespace
}  // namespace gpo::reach
