#include "service/portfolio.hpp"

#include <utility>

#include "bdd/symbolic_reach.hpp"
#include "core/gpo.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"
#include "unfold/unfolding.hpp"
#include "util/stopwatch.hpp"

namespace gpo::service {

namespace {

/// Maps a finished (or interrupted) run onto the uniform outcome fields.
void finish_outcome(EngineOutcome& out, bool deadlock, bool limit_hit,
                    const util::CancelToken* cancel) {
  out.deadlock = deadlock;
  out.aborted = limit_hit;
  out.cancelled = limit_hit && util::cancel_requested(cancel);
  out.conclusive = !limit_hit;
  out.verdict = !limit_hit ? (deadlock ? "deadlock" : "no-deadlock")
              : out.cancelled ? "cancelled"
                              : "aborted";
}

/// The `full` and `por` racers: the same search, two successor rules.
template <typename Explorer, typename Options>
EngineOutcome run_search(const char* name, const petri::PetriNet& net,
                         const RunLimits& limits,
                         const util::CancelToken* cancel,
                         obs::MetricsRegistry* metrics) {
  Options opt;
  opt.max_states = limits.max_states;
  opt.max_seconds = limits.max_seconds;
  opt.cancel = cancel;
  opt.stop_at_first_deadlock = true;
  opt.metrics = metrics;
  opt.metrics_prefix = std::string("engine.") + name + ".";
  auto r = Explorer(net, opt).explore();
  EngineOutcome out;
  out.states = static_cast<double>(r.state_count);
  out.seconds = r.seconds;
  out.aborted_phase = r.interrupted_phase;
  out.counterexample = r.counterexample;
  finish_outcome(out, r.deadlock_found, r.limit_hit, cancel);
  return out;
}

EngineOutcome run_bdd(const petri::PetriNet& net, const RunLimits& limits,
                      const util::CancelToken* cancel,
                      obs::MetricsRegistry* metrics) {
  bdd::SymbolicOptions opt;
  opt.max_seconds = limits.max_seconds;
  opt.cancel = cancel;
  opt.metrics = metrics;
  opt.metrics_prefix = "engine.bdd.";
  auto r = bdd::SymbolicReachability(net, opt).analyze();
  EngineOutcome out;
  out.states = r.state_count;
  out.seconds = r.seconds;
  if (r.blowup) out.aborted_phase = "symbolic-fixpoint";
  finish_outcome(out, r.deadlock_found, r.blowup, cancel);
  return out;
}

EngineOutcome run_gpo_kind(core::FamilyKind kind, const char* name,
                           const petri::PetriNet& net, const RunLimits& limits,
                           const util::CancelToken* cancel,
                           obs::MetricsRegistry* metrics) {
  core::GpoOptions opt;
  opt.max_states = limits.max_states;
  opt.max_seconds = limits.max_seconds;
  opt.cancel = cancel;
  opt.stop_at_first_deadlock = true;
  opt.metrics = metrics;
  opt.metrics_prefix = std::string("engine.") + name + ".";
  if (limits.family_store == "zdd")
    opt.family_store = core::FamilyStore::kZdd;
  auto r = core::run_gpo(net, kind, opt);
  EngineOutcome out;
  out.states = static_cast<double>(r.state_count);
  out.seconds = r.seconds;
  out.aborted_phase = r.interrupted_phase;
  out.counterexample = r.counterexample;
  finish_outcome(out, r.deadlock_found, r.limit_hit, cancel);
  return out;
}

EngineOutcome run_unfold(const petri::PetriNet& net, const RunLimits& limits,
                         const util::CancelToken* cancel,
                         obs::MetricsRegistry* metrics) {
  util::Stopwatch watch;
  unfold::UnfoldOptions opt;
  opt.max_seconds = limits.max_seconds;
  opt.cancel = cancel;
  opt.metrics = metrics;
  opt.metrics_prefix = "engine.unfold.";
  auto prefix = unfold::unfold(net, opt);
  EngineOutcome out;
  if (prefix.limit_hit) {
    out.seconds = watch.elapsed_seconds();
    out.aborted_phase = "prefix-construction";
    finish_outcome(out, false, true, cancel);
    return out;
  }
  // The prefix is complete: the original net deadlocks iff some reachable
  // cut of the prefix maps to a dead marking, which makes the unfolder a
  // genuine verdict-producing racer rather than a statistics pass.
  auto dead = unfold::deadlock_via_prefix(net, prefix, limits.max_states,
                                          cancel);
  out.states = static_cast<double>(dead.cuts_explored);
  out.seconds = watch.elapsed_seconds();
  if (dead.limit_hit) out.aborted_phase = "prefix-deadlock-check";
  finish_outcome(out, dead.deadlock_found, dead.limit_hit, cancel);
  return out;
}

}  // namespace

void EngineRegistry::add(const std::string& name, EngineRunner runner) {
  for (auto& [n, r] : entries_) {
    if (n == name) {
      r = std::move(runner);
      return;
    }
  }
  entries_.emplace_back(name, std::move(runner));
}

const EngineRunner* EngineRegistry::find(const std::string& name) const {
  for (const auto& [n, r] : entries_)
    if (n == name) return &r;
  return nullptr;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [n, r] : entries_) out.push_back(n);
  return out;
}

const EngineRegistry& default_engine_registry() {
  static const EngineRegistry kRegistry = [] {
    EngineRegistry reg;
    reg.add("full", [](const petri::PetriNet& net, const RunLimits& l,
                       const util::CancelToken* c, obs::MetricsRegistry* m) {
      return run_search<reach::ExplicitExplorer, reach::ExplorerOptions>(
          "full", net, l, c, m);
    });
    reg.add("por", [](const petri::PetriNet& net, const RunLimits& l,
                      const util::CancelToken* c, obs::MetricsRegistry* m) {
      return run_search<por::StubbornExplorer, por::StubbornOptions>(
          "por", net, l, c, m);
    });
    reg.add("bdd", run_bdd);
    reg.add("gpo", [](const petri::PetriNet& net, const RunLimits& l,
                      const util::CancelToken* c, obs::MetricsRegistry* m) {
      return run_gpo_kind(core::FamilyKind::kExplicit, "gpo", net, l, c, m);
    });
    reg.add("gpo-intern",
            [](const petri::PetriNet& net, const RunLimits& l,
               const util::CancelToken* c, obs::MetricsRegistry* m) {
              return run_gpo_kind(core::FamilyKind::kInterned, "gpo-intern",
                                  net, l, c, m);
            });
    reg.add("gpo-bdd",
            [](const petri::PetriNet& net, const RunLimits& l,
               const util::CancelToken* c, obs::MetricsRegistry* m) {
              return run_gpo_kind(core::FamilyKind::kBdd, "gpo-bdd", net, l, c,
                                  m);
            });
    reg.add("unfold", run_unfold);
    return reg;
  }();
  return kRegistry;
}

}  // namespace gpo::service
