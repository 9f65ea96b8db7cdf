// Convenience front-end: runs generalized partial-order analysis with a
// runtime-selected set-family representation. This is the entry point the
// CLI, the examples and the benchmark harness use; library code that wants
// the full API instantiates GpnAnalyzer directly.
#pragma once

#include <optional>
#include <string_view>

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
/// symbolically from the conflict graph), for those. kInterned and kZdd
/// runs additionally report GpoResult::family_stats. FamilyStore::kZdd
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

[[nodiscard]] inline const char* family_store_name(FamilyStore s) {
  switch (s) {
    case FamilyStore::kExplicit:
      return "explicit";
    case FamilyStore::kZdd:
      return "zdd";
  }
  return "unknown";
}

/// Parses the --family-store / family-store= spellings; nullopt on anything
/// else (callers own the error message).
[[nodiscard]] inline std::optional<FamilyStore> parse_family_store(
    std::string_view name) {
  if (name == "explicit") return FamilyStore::kExplicit;
  if (name == "zdd") return FamilyStore::kZdd;
  return std::nullopt;
}

}  // namespace gpo::core
