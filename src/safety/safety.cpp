#include "safety/safety.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/engine.hpp"
#include "petri/builder.hpp"
#include "reach/explorer.hpp"

namespace gpo::safety {

using petri::Marking;
using petri::PetriNet;
using petri::PlaceId;
using petri::TransitionId;

ReducedNet reduce_safety_to_deadlock(const PetriNet& net,
                                     const SafetyProperty& prop) {
  if (prop.never_all_marked.empty())
    throw petri::NetError("safety property must name at least one place");
  for (PlaceId p : prop.never_all_marked)
    if (p >= net.place_count())
      throw petri::NetError("safety property names an unknown place");

  petri::NetBuilder b(std::string(net.name()) + "_safety");
  // Clone the original structure; ids are preserved by insertion order.
  for (PlaceId p = 0; p < net.place_count(); ++p)
    b.add_place(net.place(p).name, net.initial_marking().test(p));
  for (TransitionId t = 0; t < net.transition_count(); ++t)
    b.add_transition(net.transition(t).name);
  for (TransitionId t = 0; t < net.transition_count(); ++t) {
    for (PlaceId p : net.transition(t).pre) b.add_input_arc(p, t);
    for (PlaceId p : net.transition(t).post) b.add_output_arc(t, p);
  }

  PlaceId run = b.add_place("__run", /*marked=*/true);
  PlaceId violation = b.add_place("__violation");
  // Every original transition needs (and returns) the run token.
  for (TransitionId t = 0; t < net.transition_count(); ++t) {
    b.add_input_arc(run, t);
    b.add_output_arc(t, run);
  }
  // The monitor observes the bad submarking without disturbing it and
  // retires the run token: afterwards nothing can fire.
  TransitionId monitor = b.add_transition("__monitor");
  for (PlaceId p : prop.never_all_marked) {
    b.add_input_arc(p, monitor);
    b.add_output_arc(monitor, p);
  }
  b.add_input_arc(run, monitor);
  b.add_output_arc(monitor, violation);

  return ReducedNet{b.build(), run, violation, monitor};
}

namespace {

Marking strip_bookkeeping(const Marking& reduced_marking,
                          std::size_t original_places) {
  Marking m(original_places);
  for (std::size_t p = 0; p < original_places; ++p)
    if (reduced_marking.test(p)) m.set(p);
  return m;
}

}  // namespace

bool supports_engine(std::string_view name) {
  return name == "full" || engine::filters_deadlocks(name);
}

SafetyResult check_safety(const PetriNet& net, const SafetyProperty& prop,
                          const SafetyOptions& options) {
  if (!supports_engine(options.engine))
    throw std::invalid_argument("engine '" + options.engine +
                                "' cannot check safety properties");
  std::optional<ReducedNet> reduced;
  {
    obs::Span span(options.tracer, "safety-reduction");
    reduced.emplace(reduce_safety_to_deadlock(net, prop));
  }
  SafetyResult result;

  if (options.engine == "full") {
    // The explicit engine can check the predicate directly on the original
    // net — no reduction overhead, and it doubles as the ground truth the
    // reduction is validated against.
    obs::Span span(options.tracer, "exploration");
    reach::ExplorerOptions opt;
    opt.max_states = options.max_states;
    opt.max_seconds = options.max_seconds;
    opt.cancel = options.cancel;
    opt.stop_at_first_deadlock = true;  // stop at first hit
    opt.metrics = options.metrics;
    opt.metrics_prefix = "safety.";
    opt.bad_state = [&](const Marking& m) {
      return std::all_of(prop.never_all_marked.begin(),
                         prop.never_all_marked.end(),
                         [&](PlaceId p) { return m.test(p); });
    };
    auto r = reach::ExplicitExplorer(net, opt).explore();
    result.violated = r.bad_state_found;
    if (r.first_bad_state) result.witness = *r.first_bad_state;
    result.limit_hit = r.limit_hit;
    result.interrupted_phase = r.interrupted_phase;
    result.seconds = r.seconds;
    result.states_explored = r.state_count;
    return result;
  }

  engine::EngineRequest req;
  req.max_states = options.max_states;
  req.max_seconds = options.max_seconds;
  req.cancel = options.cancel;
  req.stop_at_first_deadlock = true;
  if (options.family_store) req.family_store = *options.family_store;
  req.metrics = options.metrics;
  req.metrics_prefix = "safety.";
  req.tracer = options.tracer;
  req.required_deadlock_place = reduced->violation_place;
  engine::EngineOutcome out = engine::run(options.engine, reduced->net, req);
  result.violated = out.deadlock;
  if (out.witness)
    result.witness = strip_bookkeeping(*out.witness, net.place_count());
  result.limit_hit = out.aborted;
  result.interrupted_phase = out.aborted_phase;
  result.seconds = out.seconds;
  result.states_explored = static_cast<std::size_t>(out.states);
  return result;
}

}  // namespace gpo::safety
