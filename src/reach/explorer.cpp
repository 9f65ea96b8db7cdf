#include "reach/explorer.hpp"

#include "reach/search.hpp"

namespace gpo::reach {

using petri::Marking;
using petri::TransitionId;

std::string marking_to_string(const petri::PetriNet& net, const Marking& m) {
  std::string s = "{";
  bool first = true;
  for (std::size_t p = m.find_first(); p < m.size(); p = m.find_next(p + 1)) {
    if (!first) s += ',';
    s += net.place(static_cast<petri::PlaceId>(p)).name;
    first = false;
  }
  return s + "}";
}

ExplorerResult ExplicitExplorer::explore() const {
  return breadth_first_search(
      net_, {net_.initial_marking()}, options_, "exploration",
      [](const Marking&, const std::vector<TransitionId>& enabled)
          -> const std::vector<TransitionId>& { return enabled; },
      [this](const Marking& m) { return net_.is_deadlocked(m); },
      options_.bad_state, options_.num_threads);
}

void publish_explorer_stats(obs::MetricsRegistry& reg, std::string_view prefix,
                            const ExplorerResult& result,
                            std::size_t visited_bytes) {
  std::string p(prefix);
  reg.counter(p + "states").store(result.state_count);
  reg.counter(p + "edges").store(result.edge_count);
  reg.counter(p + "deadlocks").store(result.deadlock_count);
  reg.gauge(p + "threads").set(static_cast<double>(result.stats.threads));
  reg.gauge(p + "states_per_second").set(result.stats.states_per_second);
  reg.gauge(p + "peak_frontier")
      .set(static_cast<double>(result.stats.peak_frontier));
  reg.timer(p + "seconds")
      .record_ns(static_cast<std::uint64_t>(result.seconds * 1e9));
  reg.gauge("mem." + p + "visited_bytes")
      .set(static_cast<double>(visited_bytes));
}

}  // namespace gpo::reach
