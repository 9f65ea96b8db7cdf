// Stubborn-set explorers running at the same time over one net, as the
// portfolio racers and the GPO guard do: each search owns its closure
// scratch, so concurrent searches must not disturb each other. Labelled
// "parallel" so the TSan job runs it.
#include <gtest/gtest.h>

#include <thread>

#include "models/models.hpp"
#include "por/stubborn.hpp"

namespace gpo::por {
namespace {

TEST(StubbornExplorerConcurrency, TwoExplorersOnOneNet) {
  const petri::PetriNet net = models::make_nsdp(6);
  const reach::ExplorerResult reference = StubbornExplorer(net).explore();
  ASSERT_FALSE(reference.limit_hit);

  StubbornExplorer first(net);
  StubbornExplorer second(net);
  reach::ExplorerResult a, b;
  std::thread ta([&] { a = first.explore(); });
  std::thread tb([&] { b = second.explore(); });
  ta.join();
  tb.join();
  for (const reach::ExplorerResult* r : {&a, &b}) {
    EXPECT_EQ(r->state_count, reference.state_count);
    EXPECT_EQ(r->edge_count, reference.edge_count);
    EXPECT_EQ(r->deadlock_count, reference.deadlock_count);
    EXPECT_EQ(r->counterexample, reference.counterexample);
  }
}

TEST(StubbornExplorerConcurrency, OneExplorerFromTwoThreads) {
  // explore is const and keeps its scratch in its own frame, so one
  // explorer may serve two searches at once.
  const petri::PetriNet net = models::make_slotted_ring(4);
  const StubbornExplorer explorer(net);
  const reach::ExplorerResult reference = explorer.explore();
  reach::ExplorerResult a, b;
  std::thread ta([&] { a = explorer.explore(); });
  std::thread tb([&] { b = explorer.explore(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.state_count, reference.state_count);
  EXPECT_EQ(b.state_count, reference.state_count);
  EXPECT_EQ(a.edge_count, reference.edge_count);
  EXPECT_EQ(b.edge_count, reference.edge_count);
}

}  // namespace
}  // namespace gpo::por
