// ZddFamily — the fourth interchangeable set-family representation (next to
// ExplicitFamily, BddFamily and InternedFamily): each family is one canonical
// zero-suppressed decision diagram over the transition universe
// (src/bdd/zdd.hpp), all families of one analysis sharing a single manager.
//
// Where the FamilyInterner stores every distinct family as a full sorted
// vector of bitsets (bytes linear in members × universe), the ZDD manager
// stores the *union of all families' structure* as shared nodes: families
// differing in a few scenarios share almost all of their representation, so
// the store grows with structural novelty, not with member counts. Interning
// is implicit — canonical Refs make equality a pointer comparison, exactly
// like InternedFamily's ids — and the interner's direct-mapped op cache
// becomes the manager's node-level computed table.
//
// The manager is single-threaded; GpnAnalyzer<ZddFamily> runs only on the
// sequential engine (core/gpo.cpp enforces this when dispatching
// FamilyStore::kZdd).
#pragma once

#include <memory>
#include <vector>

#include "bdd/zdd.hpp"
#include "core/gpo_result.hpp"
#include "petri/conflict.hpp"
#include "petri/net.hpp"
#include "util/bitset.hpp"
#include "util/hash.hpp"

namespace gpo::core {

using TransitionSet = util::Bitset;  // over |T| transitions

class ZddFamily {
 public:
  /// Owns the ZDD manager all families of one analysis share. Non-copyable;
  /// families hold a pointer back to it (mirrors BddFamily::Context).
  class Context {
   public:
    explicit Context(std::size_t num_transitions,
                     std::size_t node_limit = std::size_t{1} << 23)
        : num_transitions_(num_transitions),
          manager_(std::make_unique<zdd::ZddManager>(
              static_cast<zdd::Var>(num_transitions), node_limit)) {}

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    [[nodiscard]] std::size_t num_transitions() const {
      return num_transitions_;
    }
    [[nodiscard]] zdd::ZddManager& manager() const { return *manager_; }

    [[nodiscard]] ZddFamily empty() const {
      return ZddFamily(manager_.get(), num_transitions_, zdd::kEmpty);
    }
    [[nodiscard]] ZddFamily single(const TransitionSet& set) const;
    [[nodiscard]] ZddFamily from_sets(
        const std::vector<TransitionSet>& sets) const;
    /// r0 built symbolically from the conflict graph, one component at a
    /// time: the component's conflict-free sets bottom-up in descending
    /// transition order, then a maximality filter per transition, then the
    /// unordered ZDD product across components (disjoint supports, so the
    /// product is exact). Only family operations run, so no member set is
    /// ever listed; cost follows the diagram sizes, not the member count,
    /// which can be exponential (up to 3^(n/3) per n-transition component).
    [[nodiscard]] ZddFamily initial_valid_sets(
        const petri::ConflictInfo& conflicts) const;

    /// GpoResult hook: GpnAnalyzer::explore() detects this method at compile
    /// time and surfaces the counters in GpoResult::family_stats.
    void fill_stats(GpoFamilyStats& out) const {
      fill_dd_family_stats(manager_->stats(), "zdd", out);
    }

   private:
    std::size_t num_transitions_;
    std::unique_ptr<zdd::ZddManager> manager_;
  };

  [[nodiscard]] ZddFamily intersect(const ZddFamily& o) const {
    return with(mgr_->intersect(ref_, o.ref_));
  }
  [[nodiscard]] ZddFamily unite(const ZddFamily& o) const {
    return with(mgr_->unite(ref_, o.ref_));
  }
  [[nodiscard]] ZddFamily subtract(const ZddFamily& o) const {
    return with(mgr_->subtract(ref_, o.ref_));
  }
  [[nodiscard]] ZddFamily containing(petri::TransitionId t) const {
    return with(mgr_->containing(ref_, static_cast<zdd::Var>(t)));
  }

  [[nodiscard]] bool is_empty() const { return ref_ == zdd::kEmpty; }
  [[nodiscard]] bool contains(const TransitionSet& v) const {
    return mgr_->contains(ref_, v);
  }
  [[nodiscard]] double count() const {
    return static_cast<double>(mgr_->count(ref_));
  }
  /// Up to `max` member sets, in the diagram's DFS order (a valid members()
  /// order, though different from ExplicitFamily's sorted order).
  [[nodiscard]] std::vector<TransitionSet> members(
      std::size_t max = SIZE_MAX) const;

  /// Refs are hash-consed, so the node index is a perfect hash/equality.
  [[nodiscard]] std::size_t hash() const {
    return static_cast<std::size_t>(util::mix64(ref_));
  }
  bool operator==(const ZddFamily& o) const { return ref_ == o.ref_; }

  [[nodiscard]] std::size_t universe() const { return num_transitions_; }
  [[nodiscard]] zdd::Ref ref() const { return ref_; }

 private:
  friend class Context;
  ZddFamily(zdd::ZddManager* mgr, std::size_t num_transitions, zdd::Ref ref)
      : mgr_(mgr), num_transitions_(num_transitions), ref_(ref) {}
  [[nodiscard]] ZddFamily with(zdd::Ref r) const {
    return ZddFamily(mgr_, num_transitions_, r);
  }

  zdd::ZddManager* mgr_ = nullptr;
  std::size_t num_transitions_ = 0;
  zdd::Ref ref_ = zdd::kEmpty;
};

}  // namespace gpo::core
