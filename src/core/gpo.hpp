// Convenience front-end: runs generalized partial-order analysis with a
// runtime-selected set-family representation. This is the entry point the
// engine table (src/engine/), the examples and the benchmark harnesses use;
// library code that wants the full API instantiates GpnAnalyzer directly.
#pragma once

#include "core/family_interner.hpp"
#include "core/gpn_analyzer.hpp"
#include "core/gpo_result.hpp"
#include "petri/net.hpp"

namespace gpo::core {

enum class FamilyKind {
  kExplicit,  // canonical sorted vector of transition sets
  kBdd,       // Boolean function over |T| BDD variables
  kInterned,  // hash-consed explicit families behind 32-bit ids + op cache
};

/// A GPN state of the interned engine: per-place markings and r are 32-bit
/// FamilyIds into the shared interner, so visited-set hashing and equality
/// run over flat id vectors and successor construction copies ids, not sets.
using InternedGpnState = GpnState<InternedFamily>;

/// Runs the Section 3.3 analysis procedure on `net` and returns the result.
/// With FamilyKind::kExplicit or kInterned, nets whose explicit r0 would
/// exceed the enumeration cap throw std::length_error — switch to kBdd, or
/// to GpoOptions::family_store == FamilyStore::kZdd (whose r0 is built
/// symbolically from the conflict graph), for those. kInterned, kBdd and
/// kZdd runs additionally report GpoResult::family_stats. FamilyStore::kZdd
/// replaces the family storage of kExplicit/kInterned with the canonical ZDD
/// backend (sequential only); kBdd ignores it.
[[nodiscard]] GpoResult run_gpo(const petri::PetriNet& net,
                                FamilyKind kind = FamilyKind::kExplicit,
                                const GpoOptions& options = {});

[[nodiscard]] inline const char* family_kind_name(FamilyKind k) {
  switch (k) {
    case FamilyKind::kExplicit:
      return "explicit";
    case FamilyKind::kBdd:
      return "bdd";
    case FamilyKind::kInterned:
      return "interned";
  }
  return "unknown";
}

}  // namespace gpo::core
