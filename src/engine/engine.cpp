#include "engine/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "bdd/symbolic_reach.hpp"
#include "core/gpo.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"
#include "unfold/unfolding.hpp"
#include "util/stopwatch.hpp"

namespace gpo::engine {

namespace {

/// Sets the verdict fields of a finished or interrupted run.
void settle(EngineOutcome& out, bool deadlock, bool limit_hit,
            const EngineRequest& req) {
  out.deadlock = deadlock;
  out.aborted = limit_hit;
  out.cancelled = limit_hit && util::cancel_requested(req.cancel);
  out.conclusive = !limit_hit;
  out.verdict = !limit_hit      ? (deadlock ? "deadlock" : "no-deadlock")
                : out.cancelled ? "cancelled"
                                : "aborted";
}

/// The fields full, por and the gpo kinds report alike.
template <typename Result>
EngineOutcome search_outcome(const Result& r, const EngineRequest& req) {
  EngineOutcome out;
  out.states = static_cast<double>(r.state_count);
  out.seconds = r.seconds;
  out.aborted_phase = r.interrupted_phase;
  out.counterexample = r.counterexample;
  settle(out, r.deadlock_found, r.limit_hit, req);
  return out;
}

void set_search_options(reach::SearchOptions& opt, const EngineRequest& req,
                        const std::string& prefix) {
  opt.max_states = req.max_states;
  opt.max_seconds = req.max_seconds;
  opt.cancel = req.cancel;
  opt.stop_at_first_deadlock = req.stop_at_first_deadlock;
  opt.metrics = req.metrics;
  opt.metrics_prefix = prefix;
}

EngineOutcome run_full(const petri::PetriNet& net, const EngineRequest& req,
                       const std::string& prefix) {
  reach::ExplorerOptions opt;
  set_search_options(opt, req, prefix);
  opt.num_threads = req.threads;
  obs::Span span(req.tracer, "exploration");
  reach::ExplorerResult r = reach::ExplicitExplorer(net, opt).explore();
  EngineOutcome out = search_outcome(r, req);
  out.witness = r.first_deadlock;
  out.unsafe_net = r.safeness_violation;
  return out;
}

EngineOutcome run_por(const petri::PetriNet& net, const EngineRequest& req,
                      const std::string& prefix) {
  por::StubbornOptions opt;
  set_search_options(opt, req, prefix);
  if (auto p = req.required_deadlock_place)
    opt.deadlock_filter = [p](const petri::Marking& m) { return m.test(*p); };
  obs::Span span(req.tracer, "reduced-search");
  reach::ExplorerResult r = por::StubbornExplorer(net, opt).explore();
  EngineOutcome out = search_outcome(r, req);
  out.witness = r.first_deadlock;
  return out;
}

EngineOutcome run_bdd(const petri::PetriNet& net, const EngineRequest& req,
                      const std::string& prefix) {
  bdd::SymbolicOptions opt;
  opt.max_seconds = req.max_seconds;
  opt.cancel = req.cancel;
  opt.required_deadlock_place = req.required_deadlock_place;
  opt.metrics = req.metrics;
  opt.metrics_prefix = prefix;
  obs::Span span(req.tracer, "symbolic-fixpoint");
  bdd::SymbolicResult r = bdd::SymbolicReachability(net, opt).analyze();
  EngineOutcome out;
  out.states = r.state_count;
  out.seconds = r.seconds;
  out.peak_nodes = r.peak_nodes;
  out.witness = r.deadlock_witness;
  if (r.blowup) out.aborted_phase = "symbolic-fixpoint";
  settle(out, r.deadlock_found, r.blowup, req);
  return out;
}

template <core::FamilyKind kKind>
EngineOutcome run_gpo(const petri::PetriNet& net, const EngineRequest& req,
                      const std::string& prefix) {
  core::GpoOptions opt;
  opt.max_states = req.max_states;
  opt.max_seconds = req.max_seconds;
  opt.cancel = req.cancel;
  opt.stop_at_first_deadlock = req.stop_at_first_deadlock;
  opt.required_witness_place = req.required_deadlock_place;
  opt.metrics = req.metrics;
  opt.metrics_prefix = prefix;
  opt.tracer = req.tracer;  // the analyzer opens its own phase spans
  opt.family_store = req.family_store;
  core::GpoResult r = core::run_gpo(net, kKind, opt);
  EngineOutcome out = search_outcome(r, req);
  out.witness = r.deadlock_witness;
  return out;
}

/// Builds the complete prefix, then decides the deadlock question on its
/// cuts (completeness of the McMillan prefix), so the unfolder gives a
/// verdict like every other engine.
EngineOutcome run_unfold(const petri::PetriNet& net, const EngineRequest& req,
                         const std::string& prefix) {
  util::Stopwatch watch;
  unfold::UnfoldOptions opt;
  opt.max_seconds = req.max_seconds;
  opt.cancel = req.cancel;
  opt.metrics = req.metrics;
  opt.metrics_prefix = prefix;
  EngineOutcome out;
  unfold::Prefix complete = unfold::unfold(net, opt);
  if (complete.limit_hit) {
    out.seconds = watch.elapsed_seconds();
    out.aborted_phase = "prefix-construction";
    settle(out, false, true, req);
    return out;
  }
  // The cut search gets what is left of the budget.
  unfold::PrefixDeadlockResult dead = unfold::deadlock_via_prefix(
      net, complete, req.max_states,
      std::max(0.0, req.max_seconds - watch.elapsed_seconds()), req.cancel);
  out.states = static_cast<double>(dead.cuts_explored);
  out.seconds = watch.elapsed_seconds();
  out.witness = dead.witness;
  if (dead.limit_hit) out.aborted_phase = "prefix-deadlock-check";
  settle(out, dead.deadlock_found, dead.limit_hit, req);
  return out;
}

struct Entry {
  const char* name;
  EngineOutcome (*run)(const petri::PetriNet&, const EngineRequest&,
                       const std::string& prefix);
  bool filters_deadlocks;  // honours EngineRequest::required_deadlock_place
};

constexpr Entry kTable[] = {
    {"full", run_full, false},
    {"por", run_por, true},
    {"bdd", run_bdd, true},
    {"gpo", run_gpo<core::FamilyKind::kExplicit>, true},
    {"gpo-intern", run_gpo<core::FamilyKind::kInterned>, true},
    {"gpo-bdd", run_gpo<core::FamilyKind::kBdd>, true},
    {"unfold", run_unfold, false},
};

const Entry* find(std::string_view name) {
  auto it = std::find_if(std::begin(kTable), std::end(kTable),
                         [&](const Entry& e) { return name == e.name; });
  return it == std::end(kTable) ? nullptr : it;
}

}  // namespace

const std::vector<std::string>& names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> out;
    for (const Entry& e : kTable) out.emplace_back(e.name);
    return out;
  }();
  return kNames;
}

bool is_engine(std::string_view name) { return find(name) != nullptr; }

bool filters_deadlocks(std::string_view name) {
  const Entry* e = find(name);
  return e != nullptr && e->filters_deadlocks;
}

EngineOutcome run(std::string_view name, const petri::PetriNet& net,
                  const EngineRequest& request) {
  const Entry* e = find(name);
  if (e == nullptr)
    throw std::invalid_argument("unknown engine '" + std::string(name) + "'");
  if (request.required_deadlock_place.has_value() && !e->filters_deadlocks)
    throw std::invalid_argument("engine '" + std::string(name) +
                                "' cannot filter deadlocks by a place");
  EngineOutcome out =
      e->run(net, request,
             request.metrics_prefix.empty()
                 ? "engine." + std::string(name) + "."
                 : request.metrics_prefix);
  out.engine = name;
  return out;
}

}  // namespace gpo::engine
