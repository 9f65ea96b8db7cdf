// A from-scratch reduced ordered binary decision diagram (ROBDD) package
// [Bryant 1986], built as the substrate for the symbolic-model-checking
// baseline (the paper compares against SMV) and as the second representation
// of GPN set families (src/core/set_family.hpp).
//
// Design notes:
//  * Nodes live in the kernel's flat arena and are hash-consed through its
//    open-addressing unique table (dd::NodeTable, shared with the
//    zero-suppressed package in zdd.hpp), so two equivalent functions always
//    have the same Ref — equality is O(1). The BDD-specific reduction rule
//    (redundant-test elimination: low == high ⇒ low) is applied here in
//    make_node; the shared table is a pure structural interner.
//  * Every memoized operation — ite, and_exists, exists, forall, rename and
//    restrict_var — goes through the one dd::ComputedCache, keyed by an op
//    code and up to three Refs. The cache is lossy and sized from the node
//    table, so memory follows the diagrams, not the number of calls.
//  * No complement edges: negation is a cached O(|f|) traversal. This keeps
//    the invariants simple; the verification workloads here are bounded by
//    variable ordering, not by the constant factor complement edges buy.
//  * No garbage collection: nodes are never freed, and total_nodes() is by
//    construction the peak live size — exactly the "Peak BDD-size" statistic
//    Table 1 reports for SMV. A configurable node limit turns pathological
//    orderings into a clean BddLimitExceeded instead of memory exhaustion.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/dd_kernel.hpp"
#include "util/bitset.hpp"

namespace gpo::bdd {

using Var = dd::Var;
/// Index of a node in the manager arena. Refs are stable for the lifetime of
/// the manager and canonical: equal Refs <=> equal Boolean functions.
using Ref = dd::Ref;

inline constexpr Ref kFalse = dd::kTerminal0;
inline constexpr Ref kTrue = dd::kTerminal1;

/// Thrown when an operation would grow the arena past the node limit.
using BddLimitExceeded = dd::DdLimitExceeded;

class BddManager {
 public:
  /// `num_vars` fixes the variable universe 0..num_vars-1 (variable index ==
  /// level: smaller index is closer to the root). `node_limit` bounds the
  /// arena size.
  explicit BddManager(Var num_vars, std::size_t node_limit = std::size_t{1}
                                                             << 23);

  [[nodiscard]] Var num_vars() const { return table_.num_vars(); }

  /// The function "variable v".
  [[nodiscard]] Ref var(Var v);
  /// The function "not variable v".
  [[nodiscard]] Ref nvar(Var v);

  [[nodiscard]] Ref ite(Ref f, Ref g, Ref h);
  [[nodiscard]] Ref apply_not(Ref f) { return ite(f, kFalse, kTrue); }
  [[nodiscard]] Ref apply_and(Ref f, Ref g) { return ite(f, g, kFalse); }
  [[nodiscard]] Ref apply_or(Ref f, Ref g) { return ite(f, kTrue, g); }
  [[nodiscard]] Ref apply_xor(Ref f, Ref g) {
    return ite(f, apply_not(g), g);
  }
  /// f ∧ ¬g — set difference when functions encode families of sets.
  [[nodiscard]] Ref apply_diff(Ref f, Ref g) {
    return ite(g, kFalse, f);
  }
  [[nodiscard]] Ref apply_imp(Ref f, Ref g) { return ite(f, g, kTrue); }
  [[nodiscard]] Ref apply_iff(Ref f, Ref g) { return ite(f, g, apply_not(g)); }

  /// Conjunction of the listed (positive) variables; the canonical cube
  /// representation used by the quantifiers below.
  [[nodiscard]] Ref cube(const std::vector<Var>& vars);

  /// ∃ vars(cube) . f
  [[nodiscard]] Ref exists(Ref f, Ref cube);
  /// ∀ vars(cube) . f
  [[nodiscard]] Ref forall(Ref f, Ref cube);
  /// ∃ vars(cube) . (f ∧ g) — the relational-product workhorse of image
  /// computation, without building f ∧ g in full.
  [[nodiscard]] Ref and_exists(Ref f, Ref g, Ref cube);

  /// Renames variables: node with var v becomes var map[v]. The map must be
  /// strictly monotone on the support of f (checked), which keeps the result
  /// ordered without re-normalization.
  [[nodiscard]] Ref rename(Ref f, const std::vector<Var>& map);

  /// Cofactor: f with variable v fixed to `value`.
  [[nodiscard]] Ref restrict_var(Ref f, Var v, bool value);

  /// Number of assignments to `counted_vars` satisfying f. Requires
  /// support(f) ⊆ counted_vars (checked). Exact while the count fits a
  /// double's 53-bit mantissa; beyond that it is a faithful rounding.
  [[nodiscard]] double sat_count(Ref f, const std::vector<Var>& counted_vars);

  /// One satisfying assignment as a bitset over all variables (don't-care
  /// variables are reported as 0). Precondition: f != kFalse.
  [[nodiscard]] util::Bitset pick_one_sat(Ref f);

  /// Enumerates satisfying assignments over `universe_vars` (don't-cares
  /// expanded), invoking `visit` for each; stops early after `max_count`.
  /// Returns false if truncated. Requires support(f) ⊆ universe_vars.
  bool enumerate_sats(Ref f, const std::vector<Var>& universe_vars,
                      std::size_t max_count,
                      const std::function<void(const util::Bitset&)>& visit);

  /// Variables f depends on.
  [[nodiscard]] std::vector<Var> support(Ref f) const;

  /// Number of distinct nodes in f (including terminals).
  [[nodiscard]] std::size_t node_count(Ref f) const;

  /// Arena size == peak live nodes (no GC), the Table-1 "peak BDD" metric.
  [[nodiscard]] std::size_t total_nodes() const { return table_.size(); }

  /// Node-table and computed-cache counters (per-op split named by kOpNames).
  [[nodiscard]] dd::Stats stats() const {
    return dd::collect_stats(table_, cache_, kOpNames);
  }

  /// Names of the op codes the computed cache is keyed on, in code order.
  static constexpr std::array<const char*, 6> kOpNames = {
      "ite", "and_exists", "exists", "forall", "rename", "restrict"};

  [[nodiscard]] Var var_of(Ref f) const { return table_.node(f).var; }
  [[nodiscard]] Ref low_of(Ref f) const { return table_.node(f).low; }
  [[nodiscard]] Ref high_of(Ref f) const { return table_.node(f).high; }
  [[nodiscard]] bool is_terminal(Ref f) const { return f <= kTrue; }

 private:
  enum Op : std::uint8_t {
    kOpIte = 0,
    kOpAndExists = 1,
    kOpExists = 2,
    kOpForall = 3,
    kOpRename = 4,
    kOpRestrict = 5,
  };

  [[nodiscard]] const dd::Node& node(Ref r) const { return table_.node(r); }

  Ref make_node(Var var, Ref low, Ref high);

  Ref exists_rec(Ref f, Ref cube, bool universal);
  Ref rename_rec(Ref f, const std::vector<Var>& map);

  dd::NodeTable table_;
  dd::ComputedCache cache_;
  /// rename() keys its cache entries on (f, rename_epoch_): the map is not a
  /// Ref, so each call takes a fresh epoch and sees only its own entries.
  Ref rename_epoch_ = 0;
};

}  // namespace gpo::bdd
