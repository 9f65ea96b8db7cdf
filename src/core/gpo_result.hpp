// Result structures for generalized partial-order analysis, shared by both
// family representations (and by the CLI/bench front-ends).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "petri/dot.hpp"
#include "petri/net.hpp"
#include "util/bitset.hpp"
#include "util/cancel_token.hpp"

namespace gpo::dd {
struct Stats;
}  // namespace gpo::dd

namespace gpo::core {

/// Storage backend for the canonical families of the reduced search.
enum class FamilyStore {
  kExplicit,  // sorted bitset vectors (hash-consed when FamilyKind::kInterned)
  kZdd,       // one canonical zero-suppressed DD per family, shared nodes
};

/// Parses the --family-store / family-store= spellings; nullopt on anything
/// else (callers own the error message).
[[nodiscard]] inline std::optional<FamilyStore> parse_family_store(
    std::string_view name) {
  if (name == "explicit") return FamilyStore::kExplicit;
  if (name == "zdd") return FamilyStore::kZdd;
  return std::nullopt;
}

struct GpoOptions {
  std::size_t max_states = std::numeric_limits<std::size_t>::max();
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Cooperative cancellation; polled in the reduced search and forwarded to
  /// the delegated classical search. A fired token reports as limit_hit
  /// with the phase it interrupted, like a timeout.
  const util::CancelToken* cancel = nullptr;
  bool stop_at_first_deadlock = false;
  /// Record the GPN state graph (labels summarize markings); small nets only.
  bool build_graph = false;
  /// Fragmentation bail-out: scenario tracking pays off only while GPN
  /// states stay coarser than classical markings. On heavily re-contested
  /// cyclic nets (conflicts resolved differently on every revolution) the
  /// family dynamics can fragment far past the classical graph instead.
  /// When the GPN state count exceeds this threshold the engine concedes,
  /// abandons the reduced search and completes the verdict with one
  /// classical stubborn-set search from the initial marking — sound, and
  /// bounded by the plain reachability graph.
  std::size_t delegate_after_states = 100'000;
  /// When set, a deadlock is only reported if its witness marking marks this
  /// place (the safety-to-deadlock reduction's violation place). The filter
  /// is applied family-algebraically: dead scenarios are intersected with
  /// m(place).
  std::optional<petri::PlaceId> required_witness_place;
  /// Optional telemetry sink; when set the engine bumps the live progress
  /// slots during the search, times the MCS computation, and publishes its
  /// final counters under `metrics_prefix` before returning.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "gpo.";
  /// Optional phase tracer: the engine opens "reduced-search" and
  /// "ignoring-guard" spans, and a "delegated-search" span around the
  /// classical search (nested in "ignoring-guard" when the guard starts it),
  /// so the phase tree (and a timeout's interrupted-phase diagnostic) show
  /// where the time went.
  obs::Tracer* tracer = nullptr;
  /// Family storage backend (ignored by FamilyKind::kBdd, which is its own
  /// representation). kZdd stores every canonical family as one
  /// zero-suppressed decision diagram over the transition universe: shared
  /// node structure typically cuts families_bytes by an order of magnitude
  /// on scenario-heavy nets, interning is pointer equality and the op cache
  /// a node-level computed table.
  FamilyStore family_store = FamilyStore::kExplicit;
};

/// Counters of the canonical family store (FamilyKind::kInterned and kBdd,
/// or any kind run with FamilyStore::kZdd; `available` stays false for the
/// plain explicit representation).
struct GpoFamilyStats {
  bool available = false;
  /// Which store produced the counters: "interned" (hash-consed explicit
  /// arena), "zdd" (canonical zero-suppressed DD manager) or "bdd" (the
  /// BDD manager of FamilyKind::kBdd).
  std::string backend;
  /// Distinct canonical families in the store (== peak: nothing is freed
  /// during an analysis): interner arena slots, or BDD nodes for the bdd
  /// backend, each of which is the root of one canonical family. Zero for
  /// the zdd backend, which reports zdd_nodes instead.
  std::size_t distinct_families = 0;
  /// Families presented for interning; dedup_ratio = intern_calls /
  /// distinct_families is how many deep constructions hash-consing saved.
  std::size_t intern_calls = 0;
  double dedup_ratio = 0.0;
  std::size_t op_cache_hits = 0;
  std::size_t op_cache_misses = 0;
  double op_cache_hit_rate = 0.0;
  /// Direct-mapped op-cache capacity misses (colliding overwrites) and
  /// occupancy, decomposing the miss stream into capacity vs. compulsory.
  std::size_t op_cache_evictions = 0;
  std::size_t op_cache_occupied = 0;
  /// Total computed-table slots (summed over per-thread caches).
  std::size_t op_cache_capacity = 0;
  /// Payload bytes of the canonical store (explicit arena: member vectors +
  /// bitset words; zdd/bdd: node arena + unique table + computed table).
  std::size_t families_bytes = 0;
  /// Peak live ZDD nodes (zdd backend only; the DD analogue of
  /// distinct_families).
  std::size_t zdd_nodes = 0;
  /// Per-op-kind computed-cache breakdown (zdd and bdd backends): one entry
  /// per DD op, published as <backend>.cache.<op>.{hits,misses}.
  struct OpCacheCount {
    std::string op;
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  std::vector<OpCacheCount> op_counts;
};

/// Fills `out` from a decision-diagram manager's kernel counters; `backend`
/// is "zdd" or "bdd" (the bdd backend reports its nodes as
/// distinct_families, the zdd backend as zdd_nodes).
void fill_dd_family_stats(const dd::Stats& s, const char* backend,
                          GpoFamilyStats& out);

struct GpoResult {
  std::size_t state_count = 0;
  std::size_t edge_count = 0;
  /// How many expansions used the multiple (simultaneous) firing rule vs the
  /// single-firing fallback.
  std::size_t multiple_steps = 0;
  std::size_t single_steps = 0;
  /// GPN states of cyclic SCCs that the anti-ignoring guard flagged: a
  /// single-enabled transition there is starved (fired on no edge inside the
  /// SCC) or re-contested (its m_enabled is empty). The guard runs only when
  /// the reduced search found no deadlock, and any flag delegates.
  std::size_t ignoring_expansions = 0;
  /// Markings the delegated stubborn-set search from m0 visited (guard or
  /// bail-out); 0 when nothing was delegated.
  std::size_t delegated_states = 0;
  /// The fragmentation bail-out fired (GpoOptions::delegate_after_states):
  /// the verdict was completed by the delegated search.
  bool bailed_to_classical = false;

  bool deadlock_found = false;
  /// Classical dead marking extracted from a valid set with no enabled
  /// transition (the paper's deadlock characterization).
  std::optional<petri::Marking> deadlock_witness;
  /// A classical firing sequence from the initial marking into the witness:
  /// the dead scenario replayed along the GPN discovery path, or the trace
  /// of the delegated search (which also starts at the initial marking).
  /// Empty only when the initial marking itself is the witness.
  std::vector<petri::TransitionId> counterexample;
  /// The witness re-checked against the classical enabling rule — must always
  /// hold; kept as a self-diagnostic.
  bool witness_is_dead = false;

  /// Transitions single-enabled in at least one explored GPN state, i.e.
  /// enabled at some covered classical marking, plus those the delegated
  /// search fired when it ran. A sound *lower bound* on the
  /// fireable transitions: membership certifies quasi-liveness, but the
  /// reduction may skip markings where further transitions were enabled, so
  /// the complement only suggests (not proves) dead transitions — use the
  /// exhaustive engine for exact dead-transition detection.
  util::Bitset fireable_transitions;

  bool limit_hit = false;
  /// Which phase the limit interrupted: "reduced-search",
  /// "delegated-search" or "ignoring-guard". Empty when !limit_hit.
  std::string interrupted_phase;
  double seconds = 0.0;

  /// Interner/op-cache counters (FamilyKind::kInterned runs only).
  GpoFamilyStats family_stats;

  petri::LabeledGraph graph;  // populated when GpoOptions::build_graph
};

/// Publishes the final counters of one GPO analysis under `prefix`
/// (including the "family_*" interner block when available and the
/// "mem.<prefix>families_bytes" gauge). Invoked by the engine itself when
/// GpoOptions::metrics is set.
void publish_gpo_stats(obs::MetricsRegistry& reg, std::string_view prefix,
                       const GpoResult& result);

}  // namespace gpo::core
