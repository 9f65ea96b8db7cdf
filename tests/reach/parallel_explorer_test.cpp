// Thread-count parity of the exhaustive explorer: at 2, 4 and 8 threads the
// level-synchronous search must return what one thread returns — the same
// state and deadlock counts, the same first deadlock and counterexample, the
// same unsafe source and peak frontier, and on complete runs the same edge
// count and fireable transitions. Covers the Table-1 families, the example
// nets and random nets, with complete, stopped and state-limited runs. The
// binary carries the ctest label "parallel" so the TSan job runs it.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "models/models.hpp"
#include "parser/net_format.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"
#include "reach/search.hpp"

namespace gpo::reach {
namespace {

using petri::Marking;
using petri::PetriNet;

constexpr std::size_t kThreadCounts[] = {2, 4, 8};

void expect_replays(const PetriNet& net, const ExplorerResult& r,
                    const std::string& ctx) {
  ASSERT_TRUE(r.first_deadlock.has_value()) << ctx;
  Marking m = net.initial_marking();
  for (petri::TransitionId t : r.counterexample) {
    ASSERT_TRUE(net.enabled(t, m)) << ctx;
    m = net.fire(t, m);
  }
  EXPECT_EQ(m, *r.first_deadlock) << ctx;
  EXPECT_TRUE(net.is_deadlocked(m)) << ctx;
}

/// Runs `net` with `options` on one thread and on every kThreadCounts entry
/// and expects the same result.
void expect_matches_sequential(const PetriNet& net, const std::string& what,
                               ExplorerOptions options = {}) {
  options.num_threads = 1;
  const ExplorerResult seq = ExplicitExplorer(net, options).explore();
  if (seq.deadlock_found) expect_replays(net, seq, what);
  for (std::size_t threads : kThreadCounts) {
    options.num_threads = threads;
    const ExplorerResult par = ExplicitExplorer(net, options).explore();
    const std::string ctx = what + " threads=" + std::to_string(threads);
    EXPECT_EQ(par.stats.threads, threads) << ctx;
    EXPECT_EQ(par.limit_hit, seq.limit_hit) << ctx;
    EXPECT_EQ(par.interrupted_phase, seq.interrupted_phase) << ctx;
    EXPECT_EQ(par.state_count, seq.state_count) << ctx;
    EXPECT_EQ(par.deadlock_count, seq.deadlock_count) << ctx;
    EXPECT_EQ(par.deadlock_found, seq.deadlock_found) << ctx;
    EXPECT_EQ(par.first_deadlock, seq.first_deadlock) << ctx;
    EXPECT_EQ(par.counterexample, seq.counterexample) << ctx;
    EXPECT_EQ(par.bad_state_found, seq.bad_state_found) << ctx;
    EXPECT_EQ(par.first_bad_state, seq.first_bad_state) << ctx;
    EXPECT_EQ(par.safeness_violation, seq.safeness_violation) << ctx;
    EXPECT_EQ(par.unsafe_source, seq.unsafe_source) << ctx;
    EXPECT_EQ(par.stats.peak_frontier, seq.stats.peak_frontier) << ctx;
    EXPECT_EQ(par.stats.steal_count, 0u) << ctx;
    const bool complete = !seq.limit_hit && !(options.stop_at_first_deadlock &&
                                              (seq.deadlock_found ||
                                               seq.bad_state_found));
    if (complete) {
      EXPECT_EQ(par.edge_count, seq.edge_count) << ctx;
      EXPECT_EQ(par.fireable_transitions, seq.fireable_transitions) << ctx;
    }
  }
}

/// Complete, stopped-at-first-deadlock and state-limited runs of one net.
void expect_matches_sequential_in_every_mode(const PetriNet& net,
                                             const std::string& what) {
  expect_matches_sequential(net, what);
  ExplorerOptions stop;
  stop.stop_at_first_deadlock = true;
  expect_matches_sequential(net, what + " stop", stop);
  const std::size_t states = ExplicitExplorer(net).explore().state_count;
  for (std::size_t cap : {states / 3, states * 2 / 3}) {
    ExplorerOptions limited;
    limited.max_states = cap;
    expect_matches_sequential(net, what + " max_states=" + std::to_string(cap),
                              limited);
  }
}

/// `toggles` independent places p_i <-> q_i, plus a place x that `mark`
/// fills from p_0 and that every `add_i` (q_i -> q_i + x) fills again: the
/// net is not 1-safe, and many states of one level break safeness.
PetriNet make_unsafe_toggles(std::size_t toggles) {
  petri::NetBuilder b;
  auto x = b.add_place("x");
  std::vector<petri::PlaceId> p, q;
  for (std::size_t i = 0; i < toggles; ++i) {
    p.push_back(b.add_place("p" + std::to_string(i), true));
    q.push_back(b.add_place("q" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < toggles; ++i) {
    b.connect(b.add_transition("on" + std::to_string(i)), {p[i]}, {q[i]});
    b.connect(b.add_transition("off" + std::to_string(i)), {q[i]}, {p[i]});
    b.connect(b.add_transition("add" + std::to_string(i)), {q[i]},
              {q[i], x});
  }
  b.connect(b.add_transition("mark"), {p[0]}, {p[0], x});
  return b.build();
}

TEST(ParallelExplorer, MatchesSequentialOnBenchmarkFamilies) {
  for (const char* spec :
       {"fig7", "diamond:8", "chain:4", "chain:6", "nsdp:4", "nsdp:6",
        "asat:4", "over:3", "over:4", "rw:6", "rw:9", "cyclic:6", "cyclic:8",
        "ring:4", "ring:5"})
    expect_matches_sequential_in_every_mode(*models::make_by_spec(spec), spec);
}

TEST(ParallelExplorer, MatchesSequentialOnLevelsLargeEnoughToSplit) {
  for (const char* spec : {"nsdp:10", "over:7", "cyclic:12", "ring:7", "rw:14"})
    expect_matches_sequential_in_every_mode(*models::make_by_spec(spec), spec);
}

TEST(ParallelExplorer, LargeLevelsRunOnSeveralThreads) {
  // The exhaustive explorer's select, instrumented to record its threads.
  const PetriNet net = *models::make_by_spec("nsdp:10");
  std::mutex mu;
  std::set<std::thread::id> ids;
  ExplorerOptions options;
  const ExplorerResult r = breadth_first_search(
      net, {net.initial_marking()}, options, "exploration",
      [&](const Marking&, const std::vector<petri::TransitionId>& enabled)
          -> const std::vector<petri::TransitionId>& {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
        return enabled;
      },
      [&net](const Marking& m) { return net.is_deadlocked(m); }, {}, 4);
  EXPECT_EQ(r.state_count, 59049u);
  EXPECT_GT(ids.size(), 1u);
}

TEST(ParallelExplorer, MatchesSequentialOnExampleNets) {
  for (const char* name :
       {"fig7.net", "nsdp4.net", "overtake3.net", "readers_writers6.net"}) {
    PetriNet net = parser::parse_net_file(std::string(GPO_EXAMPLES_NETS_DIR) +
                                          "/" + name);
    expect_matches_sequential_in_every_mode(net, name);
  }
}

TEST(ParallelExplorer, MatchesSequentialOnRandomNets) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    models::RandomNetParams p;
    p.machines = 3 + seed % 4;
    p.states_per_machine = 3 + seed % 4;
    p.transitions = 10 + seed % 12;
    p.sync_percent = 40;
    p.seed = seed;
    expect_matches_sequential_in_every_mode(
        models::make_random_net(p),
        "random(seed=" + std::to_string(seed) + ")");
  }
}

TEST(ParallelExplorer, CounterexampleReplaysToDeadlock) {
  PetriNet net = models::make_nsdp(8);
  ExplorerOptions opt;
  opt.num_threads = 4;
  auto result = ExplicitExplorer(net, opt).explore();
  ASSERT_TRUE(result.deadlock_found);
  expect_replays(net, result, "nsdp(8)");
  EXPECT_EQ(result.counterexample,
            ExplicitExplorer(net).explore().counterexample);
}

TEST(ParallelExplorer, StopAtFirstDeadlockStopsEarly) {
  PetriNet net = models::make_nsdp(10);
  ExplorerOptions opt;
  opt.num_threads = 4;
  opt.stop_at_first_deadlock = true;
  auto early = ExplicitExplorer(net, opt).explore();
  opt.num_threads = 1;
  auto seq = ExplicitExplorer(net, opt).explore();
  EXPECT_TRUE(early.deadlock_found);
  EXPECT_EQ(early.state_count, seq.state_count);
  EXPECT_LT(early.state_count, 59049u);
}

TEST(ParallelExplorer, StateLimitHonoredCooperatively) {
  // The merge checks max_states before each state, as one thread does, so
  // the overshoot is that of one thread: the successors of one state.
  for (std::size_t cap : {10, 1000, 20000}) {
    ExplorerOptions opt;
    opt.max_states = cap;
    const PetriNet net = models::make_nsdp(10);
    const std::size_t seq = ExplicitExplorer(net, opt).explore().state_count;
    opt.num_threads = 4;
    auto result = ExplicitExplorer(net, opt).explore();
    EXPECT_TRUE(result.limit_hit) << cap;
    EXPECT_EQ(result.interrupted_phase, "exploration") << cap;
    EXPECT_EQ(result.state_count, seq) << cap;
    EXPECT_LE(result.state_count, cap + net.transition_count()) << cap;
  }
}

TEST(ParallelExplorer, CancelledSearchStops) {
  util::CancelToken cancel;
  cancel.cancel();
  ExplorerOptions opt;
  opt.num_threads = 4;
  opt.cancel = &cancel;
  auto result = ExplicitExplorer(models::make_nsdp(10), opt).explore();
  EXPECT_TRUE(result.limit_hit);
  EXPECT_EQ(result.interrupted_phase, "exploration");
}

TEST(ParallelExplorer, BadStatePredicate) {
  const PetriNet net = models::make_nsdp(10);
  const petri::PlaceId eat0 = net.find_place("eat_0");
  const petri::PlaceId eat5 = net.find_place("eat_5");
  ExplorerOptions opt;
  opt.bad_state = [=](const Marking& m) {
    return m.test(eat0) && m.test(eat5);
  };
  expect_matches_sequential(net, "nsdp(10) bad", opt);
  opt.stop_at_first_deadlock = true;
  expect_matches_sequential(net, "nsdp(10) bad stop", opt);
  opt.num_threads = 4;
  auto result = ExplicitExplorer(net, opt).explore();
  EXPECT_TRUE(result.bad_state_found);
  ASSERT_TRUE(result.first_bad_state.has_value());
  EXPECT_TRUE(result.first_bad_state->test(eat0));
}

TEST(ParallelExplorer, DetectsSafenessViolation) {
  // Same non-1-safe net as the sequential test: both a and b feed p2.
  petri::NetBuilder b;
  auto p0 = b.add_place("p0", true);
  auto p1 = b.add_place("p1", true);
  auto p2 = b.add_place("p2");
  auto ta = b.add_transition("a");
  b.connect(ta, {p0}, {p2});
  auto tb = b.add_transition("b");
  b.connect(tb, {p1}, {p2});
  PetriNet net = b.build();
  ExplorerOptions opt;
  opt.num_threads = 2;
  auto result = ExplicitExplorer(net, opt).explore();
  EXPECT_TRUE(result.safeness_violation);
  ASSERT_TRUE(result.unsafe_source.has_value());
  expect_matches_sequential(net, "two feeders");
}

TEST(ParallelExplorer, FirstUnsafeSourceMatchesSequential) {
  const PetriNet net = make_unsafe_toggles(12);
  expect_matches_sequential_in_every_mode(net, "unsafe toggles");
  // Stops at bad states spread over the search, so that the first clash
  // falls before, inside and after the state the search stops at.
  for (std::size_t i = 1; i < 12; ++i) {
    const petri::PlaceId x = net.find_place("x");
    const petri::PlaceId qi = net.find_place("q" + std::to_string(i));
    const petri::PlaceId q0 = net.find_place("q0");
    ExplorerOptions opt;
    opt.stop_at_first_deadlock = true;
    opt.bad_state = [=](const Marking& m) {
      return m.test(x) && m.test(qi) && !m.test(q0);
    };
    expect_matches_sequential(net, "unsafe toggles bad q" + std::to_string(i),
                              opt);
  }
}

TEST(ParallelExplorer, ClashCountsOnlyBeforeTheStop) {
  // One state both breaks 1-safeness (`clash` refills the marked x) and
  // reaches a deadlock (`finish`). Stopping at that deadlock keeps the
  // clash only when its edge comes first.
  for (bool clash_first : {false, true}) {
    petri::NetBuilder b;
    auto a = b.add_place("a", true);
    auto x = b.add_place("x", true);
    auto done = b.add_place("done");
    auto add_clash = [&] {
      b.connect(b.add_transition("clash"), {a}, {a, x});
    };
    if (clash_first) add_clash();
    b.connect(b.add_transition("finish"), {a}, {done});
    if (!clash_first) add_clash();
    const PetriNet net = b.build();
    ExplorerOptions opt;
    opt.stop_at_first_deadlock = true;
    const std::string what = clash_first ? "clash first" : "finish first";
    EXPECT_EQ(ExplicitExplorer(net, opt).explore().safeness_violation,
              clash_first)
        << what;
    expect_matches_sequential(net, what, opt);
  }
}

TEST(ParallelExplorer, StatsBlockPopulated) {
  ExplorerOptions opt;
  opt.num_threads = 4;
  auto result = ExplicitExplorer(models::make_readers_writers(6), opt).explore();
  EXPECT_EQ(result.stats.threads, 4u);
  EXPECT_EQ(result.stats.steal_count, 0u);
  EXPECT_GT(result.stats.states_per_second, 0.0);
  EXPECT_GT(result.stats.peak_frontier, 0u);
}

TEST(ParallelExplorer, BuildGraphFallsBackToSequential) {
  ExplorerOptions opt;
  opt.num_threads = 4;
  opt.build_graph = true;
  auto result = ExplicitExplorer(models::make_fig7(), opt).explore();
  EXPECT_EQ(result.stats.threads, 1u);  // sequential path was taken
  EXPECT_EQ(result.graph.node_labels.size(), result.state_count);
  EXPECT_EQ(result.graph.edges.size(), result.edge_count);
}

}  // namespace
}  // namespace gpo::reach
