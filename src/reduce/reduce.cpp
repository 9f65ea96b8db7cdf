#include "reduce/reduce.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>

#include "petri/builder.hpp"

namespace gpo::reduce {

namespace {

using petri::NetBuilder;
using petri::PetriNet;
using petri::PlaceId;
using petri::TransitionId;

/// A place that is unmarked and whose every producer needs it marked to fire
/// (a singleton siphon): no token can ever appear in it.
bool unmarkable(const PetriNet& net, PlaceId p) {
  if (net.initial_marking().test(p)) return false;
  for (TransitionId t : net.place(p).pre)
    if (!net.transition(t).pre_bits.test(p)) return false;
  return true;
}

struct PassOutcome {
  PetriNet net;
  RewriteRecord record;
  std::size_t applications = 0;
};

/// Rebuilds `net` keeping the places with keep_place[p] and the transitions
/// with keep_transition[t] (arcs to dropped places are dropped with them).
/// Surviving transitions expand to themselves.
PassOutcome rebuild(const PetriNet& net, const std::string& pass,
                    const std::vector<bool>& keep_place,
                    const std::vector<bool>& keep_transition,
                    std::size_t applications) {
  NetBuilder b(std::string(net.name()));
  std::vector<PlaceId> place_map(net.place_count(), petri::kInvalidPlace);
  for (PlaceId p = 0; p < net.place_count(); ++p)
    if (keep_place[p])
      place_map[p] =
          b.add_place(net.place(p).name, net.initial_marking().test(p));
  RewriteRecord record;
  record.pass = pass;
  for (TransitionId t = 0; t < net.transition_count(); ++t) {
    if (!keep_transition[t]) continue;
    TransitionId nt = b.add_transition(net.transition(t).name);
    for (PlaceId p : net.transition(t).pre)
      if (keep_place[p]) b.add_input_arc(place_map[p], nt);
    for (PlaceId p : net.transition(t).post)
      if (keep_place[p]) b.add_output_arc(nt, place_map[p]);
    record.transition_expansion.push_back({t});
  }
  // Earlier passes may already have emptied a preset (constant-place
  // removal); the original net was validated on entry.
  return {b.build(/*allow_empty_presets=*/true), std::move(record),
          applications};
}

/// Dead-transition removal: a transition with an unmarkable input place never
/// fires; removing it leaves the reachability graph untouched.
std::optional<PassOutcome> pass_dead_transitions(const PetriNet& net) {
  std::vector<bool> dead_place(net.place_count());
  for (PlaceId p = 0; p < net.place_count(); ++p)
    dead_place[p] = unmarkable(net, p);
  std::vector<bool> keep_t(net.transition_count(), true);
  std::size_t removed = 0;
  for (TransitionId t = 0; t < net.transition_count(); ++t)
    for (PlaceId p : net.transition(t).pre)
      if (dead_place[p]) {
        keep_t[t] = false;
        ++removed;
        break;
      }
  if (removed == 0) return std::nullopt;
  std::vector<bool> keep_p(net.place_count(), true);
  return rebuild(net, "dead-transitions", keep_p, keep_t, removed);
}

/// Dead-place removal: a place nothing consumes (a sink) never constrains
/// enabling; projecting it away preserves deadlocks exactly.
std::optional<PassOutcome> pass_dead_places(const PetriNet& net) {
  std::vector<bool> keep_p(net.place_count(), true);
  std::size_t removed = 0;
  for (PlaceId p = 0; p < net.place_count(); ++p)
    if (net.place(p).post.empty()) {
      keep_p[p] = false;
      ++removed;
    }
  if (removed == 0) return std::nullopt;
  std::vector<bool> keep_t(net.transition_count(), true);
  return rebuild(net, "dead-places", keep_p, keep_t, removed);
}

/// Constant-place removal: a marked place whose every adjacent transition is
/// a pure self-loop on it stays marked forever and never blocks anything.
std::optional<PassOutcome> pass_constant_places(const PetriNet& net) {
  std::vector<bool> keep_p(net.place_count(), true);
  std::size_t removed = 0;
  for (PlaceId p = 0; p < net.place_count(); ++p) {
    if (!net.initial_marking().test(p)) continue;
    const petri::Place& place = net.place(p);
    if (place.pre.empty() && place.post.empty()) continue;  // dead-places pass
    bool constant = true;
    for (TransitionId t : place.pre)
      if (!net.transition(t).pre_bits.test(p)) constant = false;
    for (TransitionId t : place.post)
      if (!net.transition(t).post_bits.test(p)) constant = false;
    if (constant) {
      keep_p[p] = false;
      ++removed;
    }
  }
  if (removed == 0) return std::nullopt;
  std::vector<bool> keep_t(net.transition_count(), true);
  return rebuild(net, "constant-places", keep_p, keep_t, removed);
}

/// Duplicate-transition fusion: identical preset + postset means identical
/// enabling and identical successor markings; keep the first.
std::optional<PassOutcome> pass_dup_transitions(const PetriNet& net) {
  std::map<std::pair<std::vector<PlaceId>, std::vector<PlaceId>>, TransitionId>
      seen;
  std::vector<bool> keep_t(net.transition_count(), true);
  std::size_t removed = 0;
  for (TransitionId t = 0; t < net.transition_count(); ++t) {
    auto key = std::make_pair(net.transition(t).pre, net.transition(t).post);
    if (!seen.emplace(std::move(key), t).second) {
      keep_t[t] = false;
      ++removed;
    }
  }
  if (removed == 0) return std::nullopt;
  std::vector<bool> keep_p(net.place_count(), true);
  return rebuild(net, "dup-transitions", keep_p, keep_t, removed);
}

/// Duplicate-place fusion: identical producer set, consumer set and initial
/// marking keep two places' contents equal forever; one carries the
/// constraint.
std::optional<PassOutcome> pass_dup_places(const PetriNet& net) {
  std::map<std::tuple<bool, std::vector<TransitionId>,
                      std::vector<TransitionId>>,
           PlaceId>
      seen;
  std::vector<bool> keep_p(net.place_count(), true);
  std::size_t removed = 0;
  for (PlaceId p = 0; p < net.place_count(); ++p) {
    auto key = std::make_tuple(net.initial_marking().test(p), net.place(p).pre,
                               net.place(p).post);
    if (!seen.emplace(std::move(key), p).second) {
      keep_p[p] = false;
      ++removed;
    }
  }
  if (removed == 0) return std::nullopt;
  std::vector<bool> keep_t(net.transition_count(), true);
  return rebuild(net, "dup-places", keep_p, keep_t, removed);
}

/// Agglomeration (sequence collapse). Side conditions, all on the current
/// net (see reduce.hpp for the soundness argument):
///   p unmarked; producers F and consumers H nonempty and disjoint;
///   every f in F has post(f) = {p}; every h in H has pre(h) = {p};
///   every output place of every h has h as its only producer;
///   |F|*|H| <= |F|+|H| (no transition blowup).
/// Disjoint candidates (by the transitions they touch) are applied in one
/// sweep; each fused transition (f, h) expands to the sequence [f, h].
std::optional<PassOutcome> pass_agglomeration(const PetriNet& net) {
  std::vector<bool> claimed(net.transition_count());
  std::vector<PlaceId> chosen;
  for (PlaceId p = 0; p < net.place_count(); ++p) {
    if (net.initial_marking().test(p)) continue;
    const std::vector<TransitionId>& producers = net.place(p).pre;
    const std::vector<TransitionId>& consumers = net.place(p).post;
    if (producers.empty() || consumers.empty()) continue;
    if (producers.size() * consumers.size() >
        producers.size() + consumers.size())
      continue;
    // Both vectors are sorted; any shared transition is a self-loop on p.
    std::vector<TransitionId> overlap;
    std::set_intersection(producers.begin(), producers.end(),
                          consumers.begin(), consumers.end(),
                          std::back_inserter(overlap));
    if (!overlap.empty()) continue;
    bool ok = true;
    for (TransitionId f : producers) {
      if (claimed[f] || net.transition(f).post != std::vector<PlaceId>{p})
        ok = false;
    }
    for (TransitionId h : consumers) {
      if (claimed[h] || net.transition(h).pre != std::vector<PlaceId>{p}) {
        ok = false;
        continue;
      }
      for (PlaceId q : net.transition(h).post)
        if (net.place(q).pre != std::vector<TransitionId>{h}) ok = false;
    }
    if (!ok) continue;
    for (TransitionId f : producers) claimed[f] = true;
    for (TransitionId h : consumers) claimed[h] = true;
    chosen.push_back(p);
  }
  if (chosen.empty()) return std::nullopt;

  std::vector<bool> drop_place(net.place_count());
  for (PlaceId p : chosen) drop_place[p] = true;
  NetBuilder b(std::string(net.name()));
  std::vector<PlaceId> place_map(net.place_count(), petri::kInvalidPlace);
  for (PlaceId p = 0; p < net.place_count(); ++p)
    if (!drop_place[p])
      place_map[p] =
          b.add_place(net.place(p).name, net.initial_marking().test(p));
  RewriteRecord record;
  record.pass = "agglomeration";
  for (TransitionId t = 0; t < net.transition_count(); ++t) {
    if (claimed[t]) continue;
    TransitionId nt = b.add_transition(net.transition(t).name);
    for (PlaceId p : net.transition(t).pre)
      b.add_input_arc(place_map[p], nt);
    for (PlaceId p : net.transition(t).post)
      b.add_output_arc(nt, place_map[p]);
    record.transition_expansion.push_back({t});
  }
  for (PlaceId p : chosen) {
    for (TransitionId f : net.place(p).pre) {
      for (TransitionId h : net.place(p).post) {
        std::string name =
            net.transition(f).name + "." + net.transition(h).name;
        while (b.has_transition(name)) name += "'";
        TransitionId nt = b.add_transition(name);
        for (PlaceId q : net.transition(f).pre)
          b.add_input_arc(place_map[q], nt);
        for (PlaceId q : net.transition(h).post)
          b.add_output_arc(nt, place_map[q]);
        record.transition_expansion.push_back({f, h});
      }
    }
  }
  return PassOutcome{b.build(/*allow_empty_presets=*/true), std::move(record),
                     chosen.size()};
}

struct Pass {
  const char* name;
  std::optional<PassOutcome> (*fn)(const PetriNet&);
  ReduceLevel min_level;
};

constexpr Pass kPasses[] = {
    {"dead-transitions", pass_dead_transitions, ReduceLevel::kSafe},
    {"dead-places", pass_dead_places, ReduceLevel::kSafe},
    {"constant-places", pass_constant_places, ReduceLevel::kSafe},
    {"dup-transitions", pass_dup_transitions, ReduceLevel::kSafe},
    {"dup-places", pass_dup_places, ReduceLevel::kSafe},
    {"agglomeration", pass_agglomeration, ReduceLevel::kAggressive},
};

}  // namespace

const char* reduce_level_name(ReduceLevel level) {
  switch (level) {
    case ReduceLevel::kOff:
      return "off";
    case ReduceLevel::kSafe:
      return "safe";
    case ReduceLevel::kAggressive:
      return "aggressive";
  }
  return "off";
}

std::optional<ReduceLevel> parse_reduce_level(std::string_view name) {
  if (name == "off") return ReduceLevel::kOff;
  if (name == "safe") return ReduceLevel::kSafe;
  if (name == "aggressive") return ReduceLevel::kAggressive;
  return std::nullopt;
}

std::vector<petri::TransitionId> ReductionCertificate::map_to_original(
    const std::vector<petri::TransitionId>& trace) const {
  std::vector<petri::TransitionId> current = trace;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    std::vector<petri::TransitionId> parent;
    parent.reserve(current.size());
    for (petri::TransitionId t : current) {
      const std::vector<petri::TransitionId>& exp =
          it->transition_expansion.at(t);
      parent.insert(parent.end(), exp.begin(), exp.end());
    }
    current = std::move(parent);
  }
  return current;
}

std::optional<petri::Marking> replay_trace(
    const petri::PetriNet& net,
    const std::vector<petri::TransitionId>& trace) {
  petri::Marking m = net.initial_marking();
  for (petri::TransitionId t : trace) {
    if (t >= net.transition_count() || !net.enabled(t, m))
      return std::nullopt;
    bool unsafe = false;
    m = net.fire(t, m, &unsafe);
    if (unsafe) return std::nullopt;
  }
  return m;
}

MappedCounterexample map_counterexample(
    const petri::PetriNet& original, const ReductionCertificate& certificate,
    const std::vector<petri::TransitionId>& reduced_trace) {
  MappedCounterexample out;
  out.trace = certificate.map_to_original(reduced_trace);
  std::optional<petri::Marking> end = replay_trace(original, out.trace);
  if (end.has_value() && original.is_deadlocked(*end))
    out.deadlock = std::move(end);
  return out;
}

obs::RunReport::ReductionRun to_report_run(const ReductionStats& stats) {
  obs::RunReport::ReductionRun run;
  run.level = reduce_level_name(stats.level);
  run.places_before = static_cast<long long>(stats.places_before);
  run.places_after = static_cast<long long>(stats.places_after);
  run.transitions_before = static_cast<long long>(stats.transitions_before);
  run.transitions_after = static_cast<long long>(stats.transitions_after);
  run.seconds = stats.seconds;
  for (const PassCount& pc : stats.pass_counts)
    run.passes.emplace_back(pc.pass,
                            static_cast<long long>(pc.applications));
  return run;
}

ReductionResult reduce_net(const petri::PetriNet& net,
                           const ReduceOptions& options) {
  auto start = std::chrono::steady_clock::now();
  ReductionResult out{net, {}, {}};
  out.stats.level = options.level;
  out.stats.places_before = net.place_count();
  out.stats.transitions_before = net.transition_count();

  std::vector<std::size_t> applications(std::size(kPasses), 0);
  if (options.level != ReduceLevel::kOff) {
    for (std::size_t sweep = 0; sweep < options.max_iterations; ++sweep) {
      bool any = false;
      for (std::size_t i = 0; i < std::size(kPasses); ++i) {
        const Pass& pass = kPasses[i];
        if (pass.min_level == ReduceLevel::kAggressive &&
            options.level != ReduceLevel::kAggressive)
          continue;
        obs::Span span(options.tracer,
                       std::string("reduce.") + pass.name);
        std::optional<PassOutcome> outcome = pass.fn(out.net);
        if (!outcome) continue;
        out.net = std::move(outcome->net);
        out.certificate.append(std::move(outcome->record));
        applications[i] += outcome->applications;
        any = true;
      }
      ++out.stats.iterations;
      if (!any) break;
    }
  }

  out.stats.places_after = out.net.place_count();
  out.stats.transitions_after = out.net.transition_count();
  for (std::size_t i = 0; i < std::size(kPasses); ++i)
    if (applications[i] > 0)
      out.stats.pass_counts.push_back({kPasses[i].name, applications[i]});
  out.stats.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  if (options.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options.metrics;
    const std::string& p = options.metrics_prefix;
    reg.counter(p + "places_before").store(out.stats.places_before);
    reg.counter(p + "places_after").store(out.stats.places_after);
    reg.counter(p + "transitions_before").store(out.stats.transitions_before);
    reg.counter(p + "transitions_after").store(out.stats.transitions_after);
    reg.counter(p + "iterations").store(out.stats.iterations);
    for (const PassCount& pc : out.stats.pass_counts)
      reg.counter(p + "pass." + pc.pass + ".applications")
          .store(pc.applications);
    reg.timer(p + "seconds")
        .record_ns(static_cast<std::uint64_t>(out.stats.seconds * 1e9));
  }
  return out;
}

}  // namespace gpo::reduce
