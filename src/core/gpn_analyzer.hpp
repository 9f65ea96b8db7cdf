// Generalized partial-order analysis (Section 3 of the paper).
//
// A Generalized Petri Net shares the structure of the underlying safe net but
// marks places with *families of transition sets* and carries the family r of
// valid transition sets. Each valid set v in r is one complete resolution of
// every structural conflict (a "scenario"); the GPN state <m, r> represents
// the set of classical markings  mapping(<m,r>) = { {p | v in m(p)} : v in r }
// simultaneously. Conflicting transitions can then fire *at the same time*
// (multiple firing semantics), each moving only the scenarios that chose it,
// which collapses the exponential branching over concurrently marked conflict
// places into a single successor state.
//
// The analyzer below implements the paper's Section 3.3 procedure:
//   1. deadlock check:  U_t s_enabled(t,s) != r  <=>  some scenario's
//      classical marking enables nothing;
//   2. candidate maximal conflicting sets — connected components of the
//      conflict graph restricted to the enabled transitions, all of whose
//      members are multiple-enabled and whose trial firing does not disable
//      any other candidate or any single-enabled transition outside it;
//      all candidates fire simultaneously (multiple-execute);
//   3. otherwise a fully single-enabled *static* maximal conflicting set, if
//      one exists, is expanded transition-by-transition (the classical
//      partial-order reduction), else every single-enabled transition is.
//
// The template parameter selects the family representation (ExplicitFamily,
// BddFamily, InternedFamily or ZddFamily); see DESIGN.md decision 2.
//
// The big unions over all transitions (r' in m_update, the enabled-union of
// the deadlock check) are evaluated as balanced pairing trees instead of
// left folds. Union is associative and commutative over canonical families,
// so the result is value-identical; the balanced shape keeps both operands
// of every node small and — under the interner — turns the per-state
// accumulator chains (unique to each state, so never a cache hit) into
// pairwise subtree unions that recur across states (chain:14 53 -> 35 ms).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/gpo_result.hpp"
#include "core/set_family.hpp"
#include "petri/conflict.hpp"
#include "petri/net.hpp"
#include "por/stubborn.hpp"
#include "reach/explorer.hpp"
#include "util/hash.hpp"
#include "util/marking_table.hpp"
#include "util/stopwatch.hpp"

namespace gpo::core {

/// A GPN state <m, r>: one family per place plus the valid-set family.
/// The content hash folds every place family, so it is memoized: computed at
/// most once per finished state (visited-set probes hash each successor
/// several times). Copying resets the memo — the engines copy-then-mutate
/// (s_update) — while moving keeps it; 0 doubles as the "unset" sentinel.
template <typename Family>
struct GpnState {
  std::vector<Family> marking;
  Family r;

  GpnState() = default;
  GpnState(std::vector<Family> m, Family valid)
      : marking(std::move(m)), r(std::move(valid)) {}

  GpnState(const GpnState& o) : marking(o.marking), r(o.r) {}
  GpnState(GpnState&& o) noexcept = default;
  GpnState& operator=(const GpnState& o) {
    marking = o.marking;
    r = o.r;
    memo_hash_ = 0;
    return *this;
  }
  GpnState& operator=(GpnState&& o) noexcept = default;

  bool operator==(const GpnState& o) const {
    return r == o.r && marking == o.marking;
  }

  [[nodiscard]] std::size_t hash() const {
    if (memo_hash_ != 0) return memo_hash_;
    std::size_t h = uncached_hash();
    if (h == 0) h = 1;  // 0 is the "unset" sentinel
    memo_hash_ = h;
    return h;
  }

  /// The full fold, never memoized; hash() equals this (modulo the 1-in-2^64
  /// zero remap). The regression test compares the two.
  [[nodiscard]] std::size_t uncached_hash() const {
    std::size_t h = r.hash();
    for (const Family& f : marking) util::hash_combine(h, f.hash());
    return h;
  }

 private:
  mutable std::size_t memo_hash_ = 0;
};

template <typename Family>
class GpnAnalyzer {
 public:
  using Context = typename Family::Context;
  using State = GpnState<Family>;

  GpnAnalyzer(const petri::PetriNet& net, Context& ctx, GpoOptions options = {})
      : net_(net), ctx_(ctx), conflicts_(net), options_(options) {}

  // -- GPN semantics (exposed for unit tests and the examples) -------------

  /// <m0G, r0>: every initially marked place holds r0, the family of maximal
  /// conflict-free transition sets.
  [[nodiscard]] State initial_state() const {
    Family r0 = ctx_.initial_valid_sets(conflicts_);
    State s{std::vector<Family>(net_.place_count(), ctx_.empty()), r0};
    for (std::size_t p = net_.initial_marking().find_first();
         p < net_.place_count(); p = net_.initial_marking().find_next(p + 1))
      s.marking[p] = r0;
    return s;
  }

  /// Definition 3.2: s_enabled(t, <m,r>) = ( ⋂_{p in •t} m(p) ) ∩ r.
  [[nodiscard]] Family s_enabled(petri::TransitionId t, const State& s) const {
    Family acc = s.r;
    for (petri::PlaceId p : net_.transition(t).pre) {
      acc = acc.intersect(s.marking[p]);
      if (acc.is_empty()) break;
    }
    return acc;
  }

  /// Definition 3.5: m_enabled(t, s) = { v in ⋂_{p in •t} m(p) | t in v }.
  /// (m(p) ⊆ r is a state invariant, so the ∩r is implicit.)
  [[nodiscard]] Family m_enabled(petri::TransitionId t, const State& s) const {
    return s_enabled(t, s).containing(t);
  }

  /// Definition 3.3 (single firing rule): moves the common histories of t's
  /// input places to its output places; r is unchanged. The successor marking
  /// is built place-by-place (reserve + one push_back each) so untouched
  /// places cost one Family copy and touched ones none.
  [[nodiscard]] State s_update(const State& s, petri::TransitionId t) const {
    Family moved = s_enabled(t, s);
    const auto& tr = net_.transition(t);
    std::vector<Family> marking;
    marking.reserve(s.marking.size());
    for (petri::PlaceId p = 0; p < net_.place_count(); ++p) {
      const bool in_pre = tr.pre_bits.test(p);
      const bool in_post = tr.post_bits.test(p);
      if (in_pre && !in_post)
        marking.push_back(s.marking[p].subtract(moved));
      else if (in_post && !in_pre)
        marking.push_back(s.marking[p].unite(moved));
      else
        marking.push_back(s.marking[p]);
    }
    return State(std::move(marking), s.r);
  }

  /// Definition 3.6 (multiple firing rule): fires every transition of T'
  /// simultaneously; scenarios that chose t move through t, the rest stay.
  /// The new valid-set family r' drops scenarios that enable nothing —
  /// including the "extended conflicts" the paper illustrates in Fig. 7.
  [[nodiscard]] State m_update(const State& s,
                               const std::vector<petri::TransitionId>& fired)
      const {
    const std::size_t nt = net_.transition_count();
    util::Bitset in_fired(nt);
    for (petri::TransitionId t : fired) in_fired.set(t);

    // m_enabled per fired transition, indexed by transition id through a flat
    // side table — this sits in the hottest loop and a per-call hash map
    // would allocate buckets for every successor.
    std::vector<Family> me(fired.size(), ctx_.empty());
    std::vector<std::uint32_t> me_index(nt, UINT32_MAX);
    for (std::size_t i = 0; i < fired.size(); ++i)
      me_index[fired[i]] = static_cast<std::uint32_t>(i);
    for (std::size_t i = 0; i < fired.size(); ++i)
      me[i] = m_enabled(fired[i], s);

    // r' = U_{t not in T'} s_enabled(t,s)  ∪  U_{t in T'} m_enabled(t,s),
    // evaluated as a balanced reduction tree over the per-transition terms.
    std::vector<Family> terms;
    terms.reserve(nt);
    for (petri::TransitionId t = 0; t < nt; ++t)
      terms.push_back(in_fired.test(t) ? me[me_index[t]] : s_enabled(t, s));
    Family r_next = balanced_unite(terms);

    std::vector<Family> marking;
    marking.reserve(net_.place_count());
    for (petri::PlaceId p = 0; p < net_.place_count(); ++p) {
      Family removed = ctx_.empty();
      Family added = ctx_.empty();
      bool consumed = false, produced = false;
      for (petri::TransitionId t : net_.place(p).post) {  // consumers of p
        if (in_fired.test(t)) {
          removed = removed.unite(me[me_index[t]]);
          consumed = true;
        }
      }
      for (petri::TransitionId t : net_.place(p).pre) {  // producers of p
        if (in_fired.test(t)) {
          added = added.unite(me[me_index[t]]);
          produced = true;
        }
      }
      if (!consumed && !produced) {
        marking.push_back(s.marking[p].intersect(r_next));
      } else {
        Family m = consumed ? s.marking[p].subtract(removed)
                            : s.marking[p].unite(added);
        if (consumed && produced) m = m.unite(added);
        marking.push_back(m.intersect(r_next));
      }
    }
    return State(std::move(marking), std::move(r_next));
  }

  /// mapping(<m,r>) (Definition 3.4): the classical markings represented by
  /// this GPN state, one per valid set of the first `max`, duplicates
  /// collapsed (hashed, first-seen order kept).
  [[nodiscard]] std::vector<petri::Marking> mapping(
      const State& s, std::size_t max = SIZE_MAX) const {
    std::vector<TransitionSet> valid = s.r.members(max);
    std::vector<petri::Marking> out;
    util::MarkingTable seen(net_.place_count());
    for (const TransitionSet& v : valid) {
      petri::Marking m(net_.place_count());
      for (petri::PlaceId p = 0; p < net_.place_count(); ++p)
        if (s.marking[p].contains(v)) m.set(p);
      if (seen.insert(m.words()).second) out.push_back(std::move(m));
    }
    return out;
  }

  /// The paper's deadlock characterization: U_t s_enabled(t,s) != r. When a
  /// deadlock is possible, returns one dead scenario's classical marking.
  /// With `required_place`, only dead scenarios whose marking marks that
  /// place qualify (scenario v marks p iff v ∈ m(p), so the filter is one
  /// family intersection).
  [[nodiscard]] std::optional<TransitionSet> deadlock_scenario(
      const State& s,
      std::optional<petri::PlaceId> required_place = std::nullopt) const {
    std::vector<Family> terms;
    terms.reserve(net_.transition_count());
    for (petri::TransitionId t = 0; t < net_.transition_count(); ++t)
      terms.push_back(s_enabled(t, s));
    Family enabled_union = balanced_unite(terms);
    Family missing = s.r.subtract(enabled_union);
    if (required_place) missing = missing.intersect(s.marking[*required_place]);
    if (missing.is_empty()) return std::nullopt;
    return missing.members(1).front();
  }

  /// The classical marking of scenario v in state s: {p | v in m(p)}.
  [[nodiscard]] petri::Marking scenario_marking(const State& s,
                                                const TransitionSet& v) const {
    petri::Marking m(net_.place_count());
    for (petri::PlaceId p = 0; p < net_.place_count(); ++p)
      if (s.marking[p].contains(v)) m.set(p);
    return m;
  }

  [[nodiscard]] std::optional<petri::Marking> deadlock_witness(
      const State& s,
      std::optional<petri::PlaceId> required_place = std::nullopt) const {
    if (auto v = deadlock_scenario(s, required_place))
      return scenario_marking(s, *v);
    return std::nullopt;
  }

  // -- The analysis procedure ----------------------------------------------

  /// Per-state expansion decision (exposed for tests and diagnostics).
  struct Expansion {
    bool multiple = false;
    /// multiple: the union of all candidate MCSs, fired simultaneously.
    /// single: the transitions fired one-per-branch.
    std::vector<petri::TransitionId> transitions;
    /// Some single-enabled transition has an empty m_enabled: every scenario
    /// that marks its preset chose against it (a re-contested conflict).
    bool recontested = false;
  };

  [[nodiscard]] Expansion plan_expansion(
      const State& s,
      const std::vector<petri::TransitionId>& single_enabled) const;

  [[nodiscard]] std::vector<petri::TransitionId> single_enabled_transitions(
      const State& s) const {
    std::vector<petri::TransitionId> out;
    single_enabled_transitions(s, out);
    return out;
  }

  /// Scratch-vector variant (out is cleared first): the main loops keep one
  /// vector alive across states so the per-state allocation disappears.
  void single_enabled_transitions(const State& s,
                                  std::vector<petri::TransitionId>& out) const {
    out.clear();
    for (petri::TransitionId t = 0; t < net_.transition_count(); ++t)
      if (!s_enabled(t, s).is_empty()) out.push_back(t);
  }

  // -- Search machinery (used by explore()) --------------------------------

  /// One discovery edge of the reduced graph, root side first.
  struct ReplayStep {
    const State* from = nullptr;
    bool multiple = false;
    std::vector<petri::TransitionId> fired;
  };

  /// Classical firing sequence leading scenario v along the discovery path
  /// `steps` (root..leaf): keep at every step the transitions whose moved
  /// family contained v, and order each step's batch by classical simulation
  /// (the batch members are pairwise independent under v). Returns the empty
  /// sequence if the batch ever wedges (bug guard).
  [[nodiscard]] std::vector<petri::TransitionId> replay_scenario(
      const std::vector<ReplayStep>& steps, const TransitionSet& v) const {
    std::vector<petri::TransitionId> trace;
    petri::Marking m = net_.initial_marking();
    for (const ReplayStep& step : steps) {
      std::vector<petri::TransitionId> batch;
      for (petri::TransitionId t : step.fired) {
        Family moved =
            step.multiple ? m_enabled(t, *step.from) : s_enabled(t, *step.from);
        if (moved.contains(v)) batch.push_back(t);
      }
      while (!batch.empty()) {
        bool progressed = false;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (!net_.enabled(batch[i], m)) continue;
          m = net_.fire(batch[i], m);
          trace.push_back(batch[i]);
          batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(i));
          progressed = true;
          break;
        }
        if (!progressed) return {};  // bug guard
      }
    }
    return trace;
  }

  /// The classical stubborn-set deadlock search from the initial marking,
  /// merged into `result`: the one way the engine completes a verdict its
  /// reduced search cannot vouch for (the fragmentation bail-out and the
  /// anti-ignoring guard, which differ only in the `phase` a limit
  /// reports). It is complete for deadlock detection on its own, and its
  /// trace becomes the counterexample. Runs in a "delegated-search" span.
  void run_delegated(double remaining_seconds, const char* phase,
                     GpoResult& result) const {
    obs::Span span(options_.tracer, "delegated-search");
    por::StubbornOptions sopt;
    sopt.max_states = options_.max_states;
    sopt.max_seconds = remaining_seconds;
    sopt.cancel = options_.cancel;
    sopt.stop_at_first_deadlock = true;
    sopt.metrics = options_.metrics;
    sopt.metrics_prefix = options_.metrics_prefix + "delegated.";
    if (options_.required_witness_place) {
      petri::PlaceId rp = *options_.required_witness_place;
      sopt.deadlock_filter = [rp](const petri::Marking& m) {
        return m.test(rp);
      };
    }
    auto delegated = por::StubbornExplorer(net_, sopt).explore();
    result.delegated_states = delegated.state_count;
    result.limit_hit |= delegated.limit_hit;
    if (delegated.limit_hit) result.interrupted_phase = phase;
    result.fireable_transitions |= delegated.fireable_transitions;
    if (delegated.deadlock_found && !result.deadlock_found) {
      result.deadlock_found = true;
      result.deadlock_witness = std::move(delegated.first_deadlock);
      result.counterexample = std::move(delegated.counterexample);
      result.witness_is_dead = true;
    }
  }

  /// One edge of the reduced graph, for the anti-ignoring guard.
  struct ReducedEdge {
    std::size_t from, to;
    util::Bitset fired;
  };

  /// Anti-ignoring guard (the check the paper's footnote elides; DESIGN.md
  /// decision 4). A state is flagged when
  ///   - it lies in an SCC that contains a cycle, and a transition
  ///     single-enabled there fires on none of the SCC's internal edges (it
  ///     may be postponed forever), or
  ///   - `recontested` holds, in any SCC: a single-enabled transition has an
  ///     empty m_enabled, so every scenario that marks its preset chose
  ///     against it (its conflict is contested again, and no valid set can
  ///     choose differently the second time).
  /// Either way the reduced graph may miss classical behaviour, and the
  /// caller delegates to run_delegated(). Counts the flagged states in
  /// `result.ignoring_expansions` and returns whether any was flagged.
  ///
  /// Inputs are dense arrays over the reduced graph's state indices.
  bool ignoring_suspected(const std::vector<ReducedEdge>& edges,
                          const std::vector<util::Bitset>& enabled_at,
                          const std::vector<bool>& fully_expanded,
                          const std::vector<bool>& recontested,
                          GpoResult& result) const {
    const std::size_t nt = net_.transition_count();
    const std::size_t n = enabled_at.size();
    // Tarjan over the reduced graph.
    std::vector<std::vector<std::size_t>> succs(n);
    for (std::size_t e = 0; e < edges.size(); ++e)
      succs[edges[e].from].push_back(e);

    std::vector<std::size_t> comp(n, SIZE_MAX);
    std::vector<std::size_t> low(n), num(n, SIZE_MAX);
    std::vector<bool> on_stack(n, false);
    std::vector<std::size_t> stack;
    std::size_t counter = 0, comp_count = 0;
    // Iterative Tarjan (explicit frames) to survive deep graphs.
    struct Frame {
      std::size_t v;
      std::size_t next_edge;
    };
    for (std::size_t root = 0; root < n; ++root) {
      if (num[root] != SIZE_MAX) continue;
      std::vector<Frame> call{{root, 0}};
      num[root] = low[root] = counter++;
      stack.push_back(root);
      on_stack[root] = true;
      while (!call.empty()) {
        Frame& f = call.back();
        if (f.next_edge < succs[f.v].size()) {
          std::size_t w = edges[succs[f.v][f.next_edge++]].to;
          if (num[w] == SIZE_MAX) {
            num[w] = low[w] = counter++;
            stack.push_back(w);
            on_stack[w] = true;
            call.push_back({w, 0});
          } else if (on_stack[w]) {
            low[f.v] = std::min(low[f.v], num[w]);
          }
        } else {
          if (low[f.v] == num[f.v]) {
            while (true) {
              std::size_t w = stack.back();
              stack.pop_back();
              on_stack[w] = false;
              comp[w] = comp_count;
              if (w == f.v) break;
            }
            ++comp_count;
          }
          std::size_t v = f.v;
          call.pop_back();
          if (!call.empty())
            low[call.back().v] = std::min(low[call.back().v], low[v]);
        }
      }
    }

    // Fired transitions per SCC (internal edges only) + cyclicity.
    std::vector<util::Bitset> fired_in(comp_count, util::Bitset(nt));
    std::vector<bool> cyclic(comp_count, false);
    for (const ReducedEdge& e : edges)
      if (comp[e.from] == comp[e.to]) {
        fired_in[comp[e.from]] |= e.fired;
        cyclic[comp[e.from]] = true;  // internal edge => cycle (SCC property)
      }

    std::size_t flagged = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::size_t c = comp[v];
      const bool starving = cyclic[c] && !fully_expanded[v] &&
                            (enabled_at[v] - fired_in[c]).any();
      if (starving || recontested[v]) ++flagged;
    }
    result.ignoring_expansions += flagged;
    return flagged > 0;
  }

  [[nodiscard]] GpoResult explore() const;

 private:
  struct StateHash {
    std::size_t operator()(const State& s) const { return s.hash(); }
  };

  /// Union of all terms as a balanced pairing tree (terms is consumed).
  /// Each round unites slots 2i and 2i+1 into slot i, in place: slot i is
  /// written only after every slot it could still be read from (>= i).
  Family balanced_unite(std::vector<Family>& terms) const {
    if (terms.empty()) return ctx_.empty();
    for (std::size_t n = terms.size(); n > 1; n = (n + 1) / 2) {
      for (std::size_t i = 0; i < n / 2; ++i)
        terms[i] = terms[2 * i].unite(terms[2 * i + 1]);
      if (n % 2 == 1) terms[n / 2] = std::move(terms[n - 1]);
    }
    return std::move(terms[0]);
  }

  const petri::PetriNet& net_;
  Context& ctx_;
  petri::ConflictInfo conflicts_;
  GpoOptions options_;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <typename Family>
auto GpnAnalyzer<Family>::plan_expansion(
    const State& s,
    const std::vector<petri::TransitionId>& single_enabled) const
    -> Expansion {
  const std::size_t nt = net_.transition_count();
  util::Bitset enabled_bits(nt);
  for (petri::TransitionId t : single_enabled) enabled_bits.set(t);

  // Dynamic maximal conflicting sets: connected components of the conflict
  // graph restricted to the *multiple-enabled* transitions. A transition
  // that is single- but not multiple-enabled (every common history committed
  // its tokens to a competitor) is postponed, and its scenarios keep their
  // tokens in place. Such a transition marks a re-contested conflict, which
  // the plan reports for the anti-ignoring guard.
  util::Bitset m_bits(nt);
  for (petri::TransitionId t : single_enabled)
    if (!m_enabled(t, s).is_empty()) m_bits.set(t);
  Expansion plan;
  plan.recontested = m_bits.count() != single_enabled.size();
  std::vector<std::vector<petri::TransitionId>> dyn_components;
  {
    util::Bitset seen(nt);
    for (std::size_t ts = m_bits.find_first(); ts < nt;
         ts = m_bits.find_next(ts + 1)) {
      petri::TransitionId t = static_cast<petri::TransitionId>(ts);
      if (seen.test(t)) continue;
      std::vector<petri::TransitionId> comp, stack{t};
      seen.set(t);
      while (!stack.empty()) {
        petri::TransitionId u = stack.back();
        stack.pop_back();
        comp.push_back(u);
        util::Bitset nb = conflicts_.neighbors(u) & m_bits;
        for (std::size_t w = nb.find_first(); w < nt; w = nb.find_next(w + 1))
          if (!seen.test(w)) {
            seen.set(w);
            stack.push_back(static_cast<petri::TransitionId>(w));
          }
      }
      std::sort(comp.begin(), comp.end());
      dyn_components.push_back(std::move(comp));
    }
  }

  // Candidate check (Section 3.3): trial-fire the component alone; every
  // *other* multiple-enabled component must stay multiple-enabled and every
  // single-enabled transition outside it must stay single-enabled. Each
  // check is a full m_update plus re-probes — the expensive heart of MCS
  // enumeration.
  std::vector<std::size_t> candidates;
  for (std::size_t c = 0; c < dyn_components.size(); ++c) {
    State trial = m_update(s, dyn_components[c]);
    util::Bitset in_c(nt);
    for (petri::TransitionId t : dyn_components[c]) in_c.set(t);
    bool ok = true;
    for (std::size_t d = 0; d < dyn_components.size() && ok; ++d) {
      if (d == c) continue;
      for (petri::TransitionId t : dyn_components[d])
        if (m_enabled(t, trial).is_empty()) {
          ok = false;
          break;
        }
    }
    if (ok) {
      for (petri::TransitionId t : single_enabled)
        if (!in_c.test(t) && s_enabled(t, trial).is_empty()) {
          ok = false;
          break;
        }
    }
    if (ok) candidates.push_back(c);
  }

  if (!candidates.empty()) {
    plan.multiple = true;
    for (std::size_t c : candidates)
      plan.transitions.insert(plan.transitions.end(),
                              dyn_components[c].begin(),
                              dyn_components[c].end());
    std::sort(plan.transitions.begin(), plan.transitions.end());
    return plan;
  }

  // Fallback 1: a *static* maximal conflicting set whose members are all
  // single-enabled — safe to expand alone (classical partial-order
  // reduction), because nothing outside it can ever steal its tokens.
  // Prefer the smallest such component (fewest branches).
  const std::vector<petri::TransitionId>* best = nullptr;
  for (const auto& comp : conflicts_.components()) {
    bool all = !comp.empty();
    for (petri::TransitionId t : comp)
      if (!enabled_bits.test(t)) {
        all = false;
        break;
      }
    if (all && (best == nullptr || comp.size() < best->size())) best = &comp;
  }
  plan.multiple = false;
  plan.transitions = best != nullptr ? *best : single_enabled;
  return plan;
}

template <typename Family>
GpoResult GpnAnalyzer<Family>::explore() const {
  GpoResult result;
  util::Stopwatch timer;
  const std::size_t nt = net_.transition_count();
  result.fireable_transitions = util::Bitset(nt);

  // Telemetry slots, resolved once. The MCS timer is always-on when a
  // registry is attached (one clock read per expanded state); the per-state
  // live-progress updates compile out with the hot-counter gate.
  obs::Counter* live_states = nullptr;
  obs::Gauge* live_frontier = nullptr;
  obs::Gauge* live_families = nullptr;
  obs::Timer* mcs_timer = nullptr;
  obs::Timer* family_ops_timer = nullptr;
  obs::Histogram* expand_hist = nullptr;
  if (options_.metrics != nullptr) {
    mcs_timer =
        &options_.metrics->timer(options_.metrics_prefix + "mcs_seconds");
    // Per-state phase split: mcs_seconds covers plan_expansion (candidate
    // enumeration incl. its trial m_updates), family_ops_seconds the
    // deadlock check and the successor emissions.
    family_ops_timer = &options_.metrics->timer(options_.metrics_prefix +
                                                "family_ops_seconds");
    if constexpr (obs::kHotCountersEnabled) {
      expand_hist = &options_.metrics->histogram(options_.metrics_prefix +
                                                 "expand_seconds");
      live_states = &options_.metrics->counter("progress.states");
      live_frontier = &options_.metrics->gauge("progress.frontier");
      if constexpr (requires(Context& c, GpoFamilyStats& st) {
                      c.fill_stats(st);
                    })
        live_families = &options_.metrics->gauge("interner.families");
    }
  }

  std::unordered_map<State, std::size_t, StateHash> index;
  std::vector<State> states;
  // Bookkeeping for the anti-ignoring guard: the single-enabled set of each
  // state, the reduced graph's edges with the set of transitions each fired,
  // whether a state has been fully expanded, and whether its plan saw a
  // re-contested conflict.
  std::vector<util::Bitset> enabled_at;
  std::vector<bool> fully_expanded;
  std::vector<bool> recontested;
  std::vector<ReducedEdge> edges;
  // Discovery breadcrumbs for counterexample reconstruction.
  struct Breadcrumb {
    std::size_t parent = 0;
    bool multiple = false;
    std::vector<petri::TransitionId> fired;
  };
  std::vector<Breadcrumb> breadcrumbs;
  Breadcrumb pending_crumb;  // describes the edge currently being emitted

  auto intern = [&](State&& st) -> std::pair<std::size_t, bool> {
    auto [it, inserted] = index.try_emplace(std::move(st), states.size());
    if (inserted) {
      states.push_back(it->first);
      enabled_at.emplace_back(nt);
      fully_expanded.push_back(false);
      recontested.push_back(false);
      breadcrumbs.push_back(pending_crumb);
      if (live_states != nullptr) live_states->add();
    }
    return {it->second, inserted};
  };

  // Classical firing sequence leading scenario v into GPN state `leaf`:
  // flatten the discovery path and hand it to the shared replayer.
  auto reconstruct = [&](std::size_t leaf, const TransitionSet& v) {
    std::vector<std::size_t> path;  // state indices root..leaf
    for (std::size_t i = leaf; i != 0; i = breadcrumbs[i].parent)
      path.push_back(i);
    std::reverse(path.begin(), path.end());
    std::vector<ReplayStep> steps;
    steps.reserve(path.size());
    for (std::size_t child : path) {
      const Breadcrumb& bc = breadcrumbs[child];
      steps.push_back({&states[bc.parent], bc.multiple, bc.fired});
    }
    return replay_scenario(steps, v);
  };

  std::deque<std::size_t> frontier;
  {
    obs::Span span(options_.tracer, "initial-state");
    intern(initial_state());
  }
  frontier.push_back(0);

  bool stopped = false;
  // Per-state scratch, capacity reused across the whole search.
  std::vector<petri::TransitionId> single_enabled;
  single_enabled.reserve(net_.transition_count());

  // Expands states from `frontier` until it drains (or a limit/stop hits).
  auto run_bfs = [&]() {
    while (!frontier.empty() && !stopped) {
      if (live_frontier != nullptr) {
        live_frontier->set(static_cast<double>(frontier.size()));
        if (live_families != nullptr) {
          GpoFamilyStats fs;
          if constexpr (requires(Context& c, GpoFamilyStats& st) {
                          c.fill_stats(st);
                        })
            ctx_.fill_stats(fs);
          live_families->set(static_cast<double>(fs.distinct_families));
        }
      }
      if (states.size() > options_.max_states ||
          timer.elapsed_seconds() > options_.max_seconds ||
          util::cancel_requested(options_.cancel)) {
        result.limit_hit = true;
        result.interrupted_phase = "reduced-search";
        return;
      }
      if (states.size() > options_.delegate_after_states) {
        result.bailed_to_classical = true;
        return;
      }
      std::size_t si = frontier.front();
      frontier.pop_front();
      // Per-state expansion latency (deadlock check + MCS planning +
      // successor emission); covers every exit from this iteration.
      obs::ScopedHistogramTimer state_timer(expand_hist);
      const State s = states[si];  // copy: `states` may grow below

      // Deadlock check (before expansion, as in the paper's reach()).
      auto scenario = [&] {
        obs::ScopedTimer ft(family_ops_timer);
        return deadlock_scenario(s, options_.required_witness_place);
      }();
      if (scenario) {
        if (!result.deadlock_found) {
          result.deadlock_found = true;
          petri::Marking witness = scenario_marking(s, *scenario);
          result.witness_is_dead = net_.is_deadlocked(witness);
          result.deadlock_witness = std::move(witness);
          result.counterexample = reconstruct(si, *scenario);
        }
        if (options_.stop_at_first_deadlock) {
          stopped = true;
          return;
        }
      }

      single_enabled_transitions(s, single_enabled);
      for (petri::TransitionId t : single_enabled) enabled_at[si].set(t);
      result.fireable_transitions |= enabled_at[si];
      if (single_enabled.empty()) continue;  // fully dead GPN state

      Expansion plan = [&] {
        obs::ScopedTimer st(mcs_timer);
        return plan_expansion(s, single_enabled);
      }();
      recontested[si] = plan.recontested;

      auto emit = [&](State&& next, const util::Bitset& fired,
                      const std::string& label) {
        ++result.edge_count;
        auto [idx, fresh] = intern(std::move(next));
        edges.push_back({si, idx, fired});
        if (options_.build_graph)
          result.graph.edges.push_back({si, idx, label});
        if (fresh) frontier.push_back(idx);
      };

      if (plan.multiple) {
        ++result.multiple_steps;
        util::Bitset fired(nt);
        std::string label = "{";
        for (std::size_t i = 0; i < plan.transitions.size(); ++i) {
          if (i > 0) label += ',';
          label += net_.transition(plan.transitions[i]).name;
          fired.set(plan.transitions[i]);
        }
        label += "}";
        pending_crumb = {si, true, plan.transitions};
        State next = [&] {
          obs::ScopedTimer ft(family_ops_timer);
          return m_update(s, plan.transitions);
        }();
        emit(std::move(next), fired, label);
      } else {
        ++result.single_steps;
        if (plan.transitions.size() == single_enabled.size())
          fully_expanded[si] = true;
        for (petri::TransitionId t : plan.transitions) {
          util::Bitset fired(nt);
          fired.set(t);
          pending_crumb = {si, false, {t}};
          State next = [&] {
            obs::ScopedTimer ft(family_ops_timer);
            return s_update(s, t);
          }();
          emit(std::move(next), fired, net_.transition(t).name);
        }
      }
    }
  };

  {
    obs::Span span(options_.tracer, "reduced-search");
    run_bfs();
  }

  // A verdict the reduced search cannot vouch for is finished by one
  // classical stubborn-set search from the initial marking, either because
  // the search grew past the fragmentation threshold (re-contested cyclic
  // nets fragment the scenario families beyond the classical graph), or
  // because, with no deadlock found, the anti-ignoring guard flags a state.
  if (result.bailed_to_classical) {
    run_delegated(options_.max_seconds - timer.elapsed_seconds(),
                  "delegated-search", result);
  } else if (!result.limit_hit && !result.deadlock_found) {
    obs::Span span(options_.tracer, "ignoring-guard");
    if (ignoring_suspected(edges, enabled_at, fully_expanded, recontested,
                           result))
      run_delegated(options_.max_seconds - timer.elapsed_seconds(),
                    "ignoring-guard", result);
  }

  result.state_count = states.size();
  result.seconds = timer.elapsed_seconds();
  // Representations with shared backing stores (the family interner) report
  // dedup/cache counters; plain value representations leave the block empty.
  if constexpr (requires(Context& c, GpoFamilyStats& st) { c.fill_stats(st); })
    ctx_.fill_stats(result.family_stats);
  if (options_.metrics != nullptr) {
    publish_gpo_stats(*options_.metrics, options_.metrics_prefix, result);
    if (live_families != nullptr)
      live_families->set(
          static_cast<double>(result.family_stats.distinct_families));
  }
  if (options_.build_graph) {
    result.graph.initial = 0;
    result.graph.node_labels.reserve(states.size());
    for (const State& st : states) {
      std::string label;
      for (const auto& m : mapping(st, 16)) {
        if (!label.empty()) label += " ";
        label += reach::marking_to_string(net_, m);
      }
      result.graph.node_labels.push_back(label);
    }
  }
  return result;
}

}  // namespace gpo::core
