// Set families — the central datatype of Generalized Petri Nets.
//
// A GPN marking maps each place to a family F ⊆ 2^T of transition sets
// ("colored tokens" carrying the history of conflict choices), and each GPN
// state carries the family r of valid transition sets (Definition 3.1). Every
// GPN operation reduces to a handful of family operations: intersection,
// union, difference, "members containing transition t", emptiness, equality.
//
// This header defines two of the four interchangeable representations
// (DESIGN.md, decisions 2, 9 and 12):
//   * ExplicitFamily — canonical sorted vector of transition bitsets. Simple,
//     exact, and linear in the number of member sets; mirrors what the
//     paper's JULIE prototype plausibly did. It is the semantic oracle.
//   * BddFamily — a Boolean function over |T| BDD variables (a set S ⊆ T is a
//     member iff its characteristic assignment satisfies the function).
//     Family operations become constant-to-polynomial BDD operations and the
//     initial family r0 (maximal conflict-free sets) is built from the
//     conflict clauses, while its explicit enumeration is exponential.
// The other two are InternedFamily (core/family_interner.hpp: explicit
// families hash-consed behind 32-bit ids) and ZddFamily (core/zdd_family.hpp:
// canonical zero-suppressed DDs, r0 built symbolically like the BDD one).
//
// All four satisfy the same compile-time interface; the GPO engine
// (gpn_analyzer.hpp) is templated over it. A property-based test drives them
// through random operation sequences and asserts identical contents.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/gpo_result.hpp"
#include "petri/conflict.hpp"
#include "petri/net.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"

namespace gpo::core {

using TransitionSet = util::Bitset;  // over |T| transitions

// ---------------------------------------------------------------------------
// ExplicitFamily
// ---------------------------------------------------------------------------

class ExplicitFamily {
 public:
  /// Shared per-net state: just the universe size. Families from different
  /// contexts with the same universe are compatible.
  class Context {
   public:
    explicit Context(std::size_t num_transitions)
        : num_transitions_(num_transitions) {}

    [[nodiscard]] std::size_t num_transitions() const {
      return num_transitions_;
    }

    [[nodiscard]] ExplicitFamily empty() const {
      return ExplicitFamily(num_transitions_, {});
    }
    [[nodiscard]] ExplicitFamily single(const TransitionSet& set) const {
      if (set.size() != num_transitions_)
        throw std::invalid_argument("single: wrong universe size");
      return ExplicitFamily(num_transitions_, {set});
    }
    [[nodiscard]] ExplicitFamily from_sets(
        std::vector<TransitionSet> sets) const;
    /// r0: the maximal conflict-free subsets of T (explicit enumeration;
    /// throws std::length_error past ConflictInfo's cap).
    [[nodiscard]] ExplicitFamily initial_valid_sets(
        const petri::ConflictInfo& conflicts) const;

   private:
    std::size_t num_transitions_;
  };

  [[nodiscard]] ExplicitFamily intersect(const ExplicitFamily& o) const;
  [[nodiscard]] ExplicitFamily unite(const ExplicitFamily& o) const;
  [[nodiscard]] ExplicitFamily subtract(const ExplicitFamily& o) const;
  /// {v in F | t in v}.
  [[nodiscard]] ExplicitFamily containing(petri::TransitionId t) const;

  [[nodiscard]] bool is_empty() const { return sets_.empty(); }
  [[nodiscard]] bool contains(const TransitionSet& v) const;
  [[nodiscard]] double count() const {
    return static_cast<double>(sets_.size());
  }
  /// Up to `max` member sets, in canonical order.
  [[nodiscard]] std::vector<TransitionSet> members(
      std::size_t max = SIZE_MAX) const;

  [[nodiscard]] std::size_t hash() const;
  bool operator==(const ExplicitFamily& o) const { return sets_ == o.sets_; }

  [[nodiscard]] std::size_t universe() const { return num_transitions_; }
  /// Approximate heap footprint (member vector + bitset words); used by the
  /// FamilyInterner's arena accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Empty family over a zero universe; a placeholder for arena slots
  /// (FamilyInterner) awaiting their canonical value.
  ExplicitFamily() = default;

 private:
  ExplicitFamily(std::size_t num_transitions, std::vector<TransitionSet> sets)
      : num_transitions_(num_transitions), sets_(std::move(sets)) {}

  std::size_t num_transitions_ = 0;
  std::vector<TransitionSet> sets_;  // sorted ascending, unique (canonical)
};

// ---------------------------------------------------------------------------
// BddFamily
// ---------------------------------------------------------------------------

class BddFamily {
 public:
  /// Owns the BDD manager all families of one analysis share. Non-copyable;
  /// families hold a pointer back to it.
  class Context {
   public:
    explicit Context(std::size_t num_transitions,
                     std::size_t node_limit = std::size_t{1} << 23)
        : num_transitions_(num_transitions),
          manager_(std::make_unique<bdd::BddManager>(
              static_cast<bdd::Var>(num_transitions), node_limit)) {}

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    [[nodiscard]] std::size_t num_transitions() const {
      return num_transitions_;
    }
    [[nodiscard]] bdd::BddManager& manager() const { return *manager_; }

    [[nodiscard]] BddFamily empty() const {
      return BddFamily(manager_.get(), num_transitions_, bdd::kFalse);
    }
    [[nodiscard]] BddFamily single(const TransitionSet& set) const;
    [[nodiscard]] BddFamily from_sets(
        const std::vector<TransitionSet>& sets) const;
    /// r0 built symbolically: independence clauses ¬(t ∧ u) for each
    /// conflicting pair plus maximality clauses (t ∨ ⋁ conflicting u) —
    /// polynomial in the net size, never enumerated.
    [[nodiscard]] BddFamily initial_valid_sets(
        const petri::ConflictInfo& conflicts) const;

    /// GpoResult hook, as ZddFamily::Context's: the BDD manager's node and
    /// computed-cache counters.
    void fill_stats(GpoFamilyStats& out) const {
      fill_dd_family_stats(manager_->stats(), "bdd", out);
    }

   private:
    std::size_t num_transitions_;
    std::unique_ptr<bdd::BddManager> manager_;
  };

  [[nodiscard]] BddFamily intersect(const BddFamily& o) const {
    return with(mgr_->apply_and(ref_, o.ref_));
  }
  [[nodiscard]] BddFamily unite(const BddFamily& o) const {
    return with(mgr_->apply_or(ref_, o.ref_));
  }
  [[nodiscard]] BddFamily subtract(const BddFamily& o) const {
    return with(mgr_->apply_diff(ref_, o.ref_));
  }
  [[nodiscard]] BddFamily containing(petri::TransitionId t) const {
    return with(mgr_->apply_and(ref_, mgr_->var(static_cast<bdd::Var>(t))));
  }

  [[nodiscard]] bool is_empty() const { return ref_ == bdd::kFalse; }
  [[nodiscard]] bool contains(const TransitionSet& v) const;
  [[nodiscard]] double count() const;
  [[nodiscard]] std::vector<TransitionSet> members(
      std::size_t max = SIZE_MAX) const;

  /// Refs are hash-consed, so the node index is a perfect hash/equality.
  [[nodiscard]] std::size_t hash() const {
    return static_cast<std::size_t>(util::mix64(ref_));
  }
  bool operator==(const BddFamily& o) const { return ref_ == o.ref_; }

  [[nodiscard]] std::size_t universe() const { return num_transitions_; }
  [[nodiscard]] bdd::Ref ref() const { return ref_; }

 private:
  friend class Context;
  BddFamily(bdd::BddManager* mgr, std::size_t num_transitions, bdd::Ref ref)
      : mgr_(mgr), num_transitions_(num_transitions), ref_(ref) {}
  [[nodiscard]] BddFamily with(bdd::Ref r) const {
    return BddFamily(mgr_, num_transitions_, r);
  }

  bdd::BddManager* mgr_ = nullptr;
  std::size_t num_transitions_ = 0;
  bdd::Ref ref_ = bdd::kFalse;
};

}  // namespace gpo::core
