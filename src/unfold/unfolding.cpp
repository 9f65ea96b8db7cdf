#include "unfold/unfolding.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_map>

#include "petri/builder.hpp"
#include "reach/explorer.hpp"
#include "util/stopwatch.hpp"

namespace gpo::unfold {

using petri::Marking;
using petri::PetriNet;
using petri::PlaceId;
using petri::TransitionId;

namespace {

/// Sorted-vector intersection.
std::vector<std::size_t> intersect(const std::vector<std::size_t>& a,
                                   const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

struct Candidate {
  std::size_t local_size;  // |[e]| (for the McMillan order)
  TransitionId transition;
  std::vector<std::size_t> preset;  // sorted condition ids

  bool operator>(const Candidate& o) const {
    if (local_size != o.local_size) return local_size > o.local_size;
    if (transition != o.transition) return transition > o.transition;
    return preset > o.preset;
  }
};

class Unfolder {
 public:
  Unfolder(const PetriNet& net, const UnfoldOptions& options)
      : net_(net), options_(options) {
    if (obs::kHotCountersEnabled && options_.metrics != nullptr) {
      live_events_ = &options_.metrics->counter("progress.states");
      live_queue_ = &options_.metrics->gauge("progress.frontier");
    }
  }

  Prefix run() {
    // Initial conditions: one per initially marked place, pairwise co.
    for (std::size_t p = net_.initial_marking().find_first();
         p < net_.place_count(); p = net_.initial_marking().find_next(p + 1))
      prefix_.conditions.push_back(
          {static_cast<PlaceId>(p), kNoEvent});
    const std::size_t k = prefix_.conditions.size();
    co_.assign(k, {});
    extendable_.assign(k, true);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        if (i != j) co_[i].push_back(j);

    seen_marks_.emplace(net_.initial_marking(), 0);
    for (std::size_t c = 0; c < k; ++c) find_extensions(c);

    while (!queue_.empty()) {
      if (prefix_.events.size() >= options_.max_events ||
          prefix_.conditions.size() >= options_.max_conditions ||
          timer_.elapsed_seconds() > options_.max_seconds ||
          util::cancel_requested(options_.cancel)) {
        prefix_.limit_hit = true;
        break;
      }
      Candidate cand = queue_.top();
      queue_.pop();
      insert_event(cand);
      if (live_queue_ != nullptr)
        live_queue_->set(static_cast<double>(queue_.size()));
    }
    if (options_.metrics != nullptr) {
      obs::MetricsRegistry& reg = *options_.metrics;
      const std::string p = options_.metrics_prefix;
      reg.counter(p + "events").store(prefix_.events.size());
      reg.counter(p + "conditions").store(prefix_.conditions.size());
      reg.counter(p + "cutoffs").store(prefix_.cutoff_count);
      std::size_t prefix_bytes = 0;
      for (const Event& e : prefix_.events)
        prefix_bytes += sizeof(Event) + e.mark.memory_bytes() +
                        (e.preset.capacity() + e.postset.capacity()) *
                            sizeof(std::size_t);
      prefix_bytes += prefix_.conditions.size() * sizeof(Condition);
      reg.gauge("mem." + p + "prefix_bytes")
          .set(static_cast<double>(prefix_bytes));
    }
    return std::move(prefix_);
  }

 private:
  /// Local configuration of a would-be event with the given preset: union of
  /// the producers' local configurations (event indices, sorted).
  std::vector<std::size_t> config_of(const std::vector<std::size_t>& preset)
      const {
    std::vector<std::size_t> config;
    for (std::size_t c : preset) {
      std::size_t producer = prefix_.conditions[c].producer;
      if (producer == kNoEvent) continue;
      std::vector<std::size_t> merged;
      std::set_union(config.begin(), config.end(),
                     configs_[producer].begin(), configs_[producer].end(),
                     std::back_inserter(merged));
      config = std::move(merged);
    }
    return config;
  }

  /// Mark(C ∪ {e}) where the event itself consumes `preset` and produces
  /// into `post_places`.
  Marking mark_of(const std::vector<std::size_t>& config,
                  const std::vector<std::size_t>& preset,
                  const petri::Transition& tr) const {
    std::vector<bool> present(prefix_.conditions.size(), false);
    for (std::size_t c = 0; c < prefix_.conditions.size(); ++c)
      if (prefix_.conditions[c].producer == kNoEvent) present[c] = true;
    for (std::size_t e : config) {
      for (std::size_t c : prefix_.events[e].preset) present[c] = false;
      for (std::size_t c : prefix_.events[e].postset) present[c] = true;
    }
    for (std::size_t c : preset) present[c] = false;
    Marking m(net_.place_count());
    for (std::size_t c = 0; c < prefix_.conditions.size(); ++c)
      if (present[c]) m.set(prefix_.conditions[c].place);
    m |= tr.post_bits;
    return m;
  }

  void insert_event(const Candidate& cand) {
    const petri::Transition& tr = net_.transition(cand.transition);
    std::vector<std::size_t> config = config_of(cand.preset);
    Event ev;
    ev.transition = cand.transition;
    ev.preset = cand.preset;
    ev.local_size = config.size() + 1;
    ev.mark = mark_of(config, cand.preset, tr);

    // McMillan cut-off: a smaller configuration already produced this mark.
    auto it = seen_marks_.find(ev.mark);
    ev.cutoff = it != seen_marks_.end() && it->second < ev.local_size;
    if (it == seen_marks_.end()) seen_marks_.emplace(ev.mark, ev.local_size);

    std::size_t eid = prefix_.events.size();
    config.push_back(eid);  // [e] = predecessors + e (eid is the maximum)
    configs_.push_back(std::move(config));

    // Output conditions.
    std::vector<std::size_t> common;
    bool first = true;
    for (std::size_t b : cand.preset) {
      common = first ? co_[b] : intersect(common, co_[b]);
      first = false;
    }
    std::vector<std::size_t> outputs;
    for (PlaceId p : tr.post) {
      std::size_t cid = prefix_.conditions.size();
      prefix_.conditions.push_back({p, eid});
      co_.emplace_back();
      extendable_.push_back(!ev.cutoff);
      outputs.push_back(cid);
    }
    for (std::size_t o : outputs) {
      for (std::size_t sibling : outputs)
        if (sibling != o) co_[o].push_back(sibling);
      for (std::size_t c : common) {
        co_[o].push_back(c);
        co_[c].push_back(o);  // o has the max index: stays sorted
      }
      std::sort(co_[o].begin(), co_[o].end());
    }

    ev.postset = outputs;
    bool cutoff = ev.cutoff;
    prefix_.events.push_back(std::move(ev));
    if (live_events_ != nullptr) live_events_->add();
    if (cutoff) {
      ++prefix_.cutoff_count;
      return;
    }
    for (std::size_t o : outputs) find_extensions(o);
  }

  /// Enqueues every possible extension whose preset contains condition c.
  void find_extensions(std::size_t c) {
    PlaceId cp = prefix_.conditions[c].place;
    for (TransitionId t : net_.place(cp).post) {
      const petri::Transition& tr = net_.transition(t);
      // Anchor c on its place; choose co conditions for the other inputs.
      std::vector<PlaceId> rest;
      for (PlaceId p : tr.pre)
        if (p != cp) rest.push_back(p);
      std::vector<std::size_t> chosen{c};
      search_presets(t, rest, 0, chosen, co_[c]);
    }
  }

  void search_presets(TransitionId t, const std::vector<PlaceId>& rest,
                      std::size_t idx, std::vector<std::size_t>& chosen,
                      const std::vector<std::size_t>& allowed) {
    if (idx == rest.size()) {
      Candidate cand;
      cand.transition = t;
      cand.preset = chosen;
      std::sort(cand.preset.begin(), cand.preset.end());
      if (!known_.insert({t, cand.preset}).second) return;
      cand.local_size = config_of(cand.preset).size() + 1;
      queue_.push(std::move(cand));
      return;
    }
    for (std::size_t d : allowed) {
      if (prefix_.conditions[d].place != rest[idx] || !extendable_[d])
        continue;
      chosen.push_back(d);
      search_presets(t, rest, idx + 1, chosen, intersect(allowed, co_[d]));
      chosen.pop_back();
    }
  }

  const PetriNet& net_;
  UnfoldOptions options_;
  util::Stopwatch timer_;
  Prefix prefix_;
  std::vector<std::vector<std::size_t>> co_;       // per condition, sorted
  std::vector<bool> extendable_;                   // false past cut-offs
  std::vector<std::vector<std::size_t>> configs_;  // per event, sorted
  std::unordered_map<Marking, std::size_t> seen_marks_;
  std::priority_queue<Candidate, std::vector<Candidate>,
                      std::greater<Candidate>>
      queue_;
  obs::Counter* live_events_ = nullptr;  // "progress.states"
  obs::Gauge* live_queue_ = nullptr;     // "progress.frontier"
  std::set<std::pair<TransitionId, std::vector<std::size_t>>> known_;
};

}  // namespace

Prefix unfold(const PetriNet& net, const UnfoldOptions& options) {
  return Unfolder(net, options).run();
}

PetriNet prefix_as_net(const PetriNet& net, const Prefix& prefix) {
  petri::NetBuilder b(std::string(net.name()) + "_prefix");
  // Names built with += (not operator+ chains): GCC 12's -Wrestrict fires a
  // bogus overlap warning on `const char* + std::string&&` at -O3.
  for (std::size_t c = 0; c < prefix.conditions.size(); ++c) {
    std::string cname = "c";
    cname += std::to_string(c);
    cname += '_';
    cname += net.place(prefix.conditions[c].place).name;
    b.add_place(cname, prefix.conditions[c].producer == kNoEvent);
  }
  for (std::size_t e = 0; e < prefix.events.size(); ++e) {
    std::string ename = "e";
    ename += std::to_string(e);
    ename += '_';
    ename += net.transition(prefix.events[e].transition).name;
    TransitionId t = b.add_transition(ename);
    for (std::size_t c : prefix.events[e].preset)
      b.add_input_arc(static_cast<PlaceId>(c), t);
    for (std::size_t c : prefix.events[e].postset)
      b.add_output_arc(t, static_cast<PlaceId>(c));
  }
  return b.build();
}

Marking cut_to_marking(const PetriNet& net, const Prefix& prefix,
                       const Marking& cut) {
  Marking m(net.place_count());
  for (std::size_t c = cut.find_first(); c < cut.size();
       c = cut.find_next(c + 1))
    m.set(prefix.conditions[c].place);
  return m;
}

}  // namespace gpo::unfold

namespace gpo::unfold {

PrefixDeadlockResult deadlock_via_prefix(const PetriNet& net,
                                         const Prefix& prefix,
                                         std::size_t max_cuts,
                                         double max_seconds,
                                         const util::CancelToken* cancel) {
  PrefixDeadlockResult result;
  PetriNet occurrence = prefix_as_net(net, prefix);
  reach::ExplorerOptions opt;
  opt.max_states = max_cuts;
  opt.max_seconds = max_seconds;
  opt.cancel = cancel;
  // Note: no stop_at_first_deadlock — a deadlock of the *occurrence net*
  // (a cut-off frontier) is not a deadlock of the original net; only the
  // predicate below decides.
  opt.bad_state = [&](const Marking& cut) {
    Marking m = cut_to_marking(net, prefix, cut);
    if (!net.is_deadlocked(m)) return false;
    if (!result.deadlock_found) {
      result.deadlock_found = true;
      result.witness = std::move(m);
    }
    return true;
  };
  auto r = reach::ExplicitExplorer(occurrence, opt).explore();
  result.cuts_explored = r.state_count;
  result.limit_hit = r.limit_hit;
  return result;
}

}  // namespace gpo::unfold
