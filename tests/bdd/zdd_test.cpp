// ZDD kernel tests: canonicity (equal families <=> equal Refs, however they
// were built), the zero-suppression invariant, and the family algebra —
// unite/intersect/subtract/containing/product — cross-checked against a
// brute-force std::set-of-Bitset model on random universes of up to 12
// elements, where exhaustive comparison is cheap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <set>
#include <vector>

#include "bdd/zdd.hpp"
#include "util/bitset.hpp"

namespace gpo::zdd {
namespace {

using util::Bitset;
using SetFamily = std::set<Bitset>;

Bitset make_set(std::size_t n, std::initializer_list<std::size_t> bits) {
  return Bitset(n, bits);
}

/// Reference model of the same algebra over explicit sets.
SetFamily brute_unite(const SetFamily& a, const SetFamily& b) {
  SetFamily out = a;
  out.insert(b.begin(), b.end());
  return out;
}

SetFamily brute_intersect(const SetFamily& a, const SetFamily& b) {
  SetFamily out;
  for (const Bitset& s : a)
    if (b.count(s) != 0) out.insert(s);
  return out;
}

SetFamily brute_subtract(const SetFamily& a, const SetFamily& b) {
  SetFamily out;
  for (const Bitset& s : a)
    if (b.count(s) == 0) out.insert(s);
  return out;
}

SetFamily brute_containing(const SetFamily& a, std::size_t t) {
  SetFamily out;
  for (const Bitset& s : a)
    if (s.test(t)) out.insert(s);
  return out;
}

SetFamily brute_product(const SetFamily& a, const SetFamily& b) {
  SetFamily out;
  for (const Bitset& s : a)
    for (const Bitset& t : b) {
      Bitset u = s;
      for (std::size_t i = t.find_first(); i < t.size();
           i = t.find_next(i + 1))
        u.set(i);
      out.insert(u);
    }
  return out;
}

/// Full member dump of a diagram, as the reference's sorted set.
SetFamily members_of(const ZddManager& mgr, Ref f) {
  SetFamily out;
  bool complete = mgr.enumerate(
      f, std::size_t(-1), [&](const Bitset& s) { out.insert(s); });
  EXPECT_TRUE(complete);
  return out;
}

/// Asserts the diagram f denotes exactly `expect` — via enumeration, count,
/// and per-set membership walks (three independent read paths).
void expect_family(const ZddManager& mgr, Ref f, const SetFamily& expect) {
  EXPECT_EQ(members_of(mgr, f), expect);
  EXPECT_EQ(mgr.count(f), expect.size());
  for (const Bitset& s : expect) EXPECT_TRUE(mgr.contains(f, s));
}

TEST(Zdd, TerminalsDenoteEmptyFamilyAndUnitFamily) {
  ZddManager mgr(4);
  EXPECT_EQ(mgr.count(kEmpty), 0u);
  EXPECT_EQ(mgr.count(kUnit), 1u);
  EXPECT_FALSE(mgr.contains(kEmpty, Bitset(4)));
  EXPECT_TRUE(mgr.contains(kUnit, Bitset(4)));
  EXPECT_FALSE(mgr.contains(kUnit, make_set(4, {1})));
  expect_family(mgr, kEmpty, {});
  expect_family(mgr, kUnit, {Bitset(4)});
}

TEST(Zdd, SingleBuildsOneMemberFamily) {
  ZddManager mgr(6);
  Bitset s = make_set(6, {0, 3, 5});
  Ref f = mgr.single(s);
  expect_family(mgr, f, {s});
  EXPECT_FALSE(mgr.contains(f, make_set(6, {0, 3})));
  EXPECT_FALSE(mgr.contains(f, make_set(6, {0, 3, 4, 5})));
}

TEST(Zdd, FromSetsCollapsesDuplicatesAndIsOrderInsensitive) {
  ZddManager mgr(5);
  Bitset a = make_set(5, {0, 2});
  Bitset b = make_set(5, {1});
  Bitset c = make_set(5, {2, 3, 4});
  Ref f = mgr.from_sets({a, b, c, a, b});
  Ref g = mgr.from_sets({c, a, b});
  // Canonicity: same family, same Ref — regardless of build order.
  EXPECT_EQ(f, g);
  expect_family(mgr, f, {a, b, c});
}

TEST(Zdd, CanonicityAcrossOperationOrders) {
  ZddManager mgr(6);
  Ref a = mgr.from_sets({make_set(6, {0}), make_set(6, {1, 2})});
  Ref b = mgr.from_sets({make_set(6, {3}), make_set(6, {1, 2})});
  Ref c = mgr.single(make_set(6, {4, 5}));
  EXPECT_EQ(mgr.unite(mgr.unite(a, b), c), mgr.unite(a, mgr.unite(b, c)));
  EXPECT_EQ(mgr.unite(a, b), mgr.unite(b, a));
  EXPECT_EQ(mgr.unite(a, a), a);
  EXPECT_EQ(mgr.intersect(a, a), a);
  EXPECT_EQ(mgr.subtract(a, a), kEmpty);
  EXPECT_EQ(mgr.subtract(a, kEmpty), a);
  EXPECT_EQ(mgr.intersect(a, kEmpty), kEmpty);
  EXPECT_EQ(mgr.unite(a, kEmpty), a);
  EXPECT_EQ(mgr.product(a, kUnit), a);
  EXPECT_EQ(mgr.product(a, kEmpty), kEmpty);
}

TEST(Zdd, ZeroSuppressionHoldsStructurally) {
  ZddManager mgr(8);
  // make_node applies the rule directly...
  Ref low = mgr.single(make_set(8, {5}));
  EXPECT_EQ(mgr.make_node(2, low, kEmpty), low);
  // ...and no reachable node of a built diagram violates it.
  std::mt19937_64 rng(7);
  std::vector<Bitset> sets;
  for (int i = 0; i < 20; ++i) {
    Bitset s(8);
    for (std::size_t v = 0; v < 8; ++v)
      if (rng() % 3 == 0) s.set(v);
    sets.push_back(s);
  }
  Ref f = mgr.from_sets(sets);
  std::vector<Ref> stack{f};
  std::set<Ref> seen;
  while (!stack.empty()) {
    Ref r = stack.back();
    stack.pop_back();
    if (mgr.is_terminal(r) || !seen.insert(r).second) continue;
    EXPECT_NE(mgr.high_of(r), kEmpty) << "zero-suppression violated";
    EXPECT_LT(mgr.var_of(r), mgr.num_vars());
    stack.push_back(mgr.low_of(r));
    stack.push_back(mgr.high_of(r));
  }
}

TEST(Zdd, ContainingSelectsExactlyTheMembersWithThatElement) {
  ZddManager mgr(6);
  Bitset a = make_set(6, {0, 2});
  Bitset b = make_set(6, {2, 4});
  Bitset c = make_set(6, {1});
  Ref f = mgr.from_sets({a, b, c});
  expect_family(mgr, mgr.containing(f, 2), {a, b});
  expect_family(mgr, mgr.containing(f, 1), {c});
  expect_family(mgr, mgr.containing(f, 5), {});
  // The result is canonical too: equal to building the subset directly.
  EXPECT_EQ(mgr.containing(f, 2), mgr.from_sets({a, b}));
}

TEST(Zdd, ProductComputesUnorderedUnions) {
  ZddManager mgr(6);
  Ref f = mgr.from_sets({make_set(6, {0}), make_set(6, {1})});
  Ref g = mgr.from_sets({make_set(6, {4}), make_set(6, {5})});
  expect_family(mgr, mgr.product(f, g),
                {make_set(6, {0, 4}), make_set(6, {0, 5}),
                 make_set(6, {1, 4}), make_set(6, {1, 5})});
  // Overlapping supports collapse duplicates: {0}x{0,1} = {{0},{0,1}}.
  Ref h = mgr.from_sets({make_set(6, {0}), make_set(6, {0, 1})});
  expect_family(mgr, mgr.product(mgr.single(make_set(6, {0})), h),
                {make_set(6, {0}), make_set(6, {0, 1})});
}

TEST(Zdd, EnumerateTruncatesAtMaxCount) {
  ZddManager mgr(5);
  Ref f = mgr.from_sets({make_set(5, {0}), make_set(5, {1}),
                         make_set(5, {2}), make_set(5, {3})});
  std::size_t visited = 0;
  bool complete = mgr.enumerate(f, 2, [&](const Bitset&) { ++visited; });
  EXPECT_FALSE(complete);
  EXPECT_EQ(visited, 2u);
}

TEST(Zdd, NodeLimitThrows) {
  ZddManager mgr(16, /*node_limit=*/8);
  std::vector<Bitset> sets;
  for (std::size_t i = 0; i + 1 < 16; ++i)
    sets.push_back(make_set(16, {i, i + 1}));
  EXPECT_THROW((void)mgr.from_sets(sets), ZddLimitExceeded);
}

TEST(Zdd, RandomizedAlgebraMatchesBruteForce) {
  std::mt19937_64 rng(20260809);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 4 + rng() % 9;  // universe of 4..12 elements
    ZddManager mgr(static_cast<Var>(n));
    auto random_family = [&](std::size_t max_members) {
      SetFamily fam;
      std::size_t k = rng() % (max_members + 1);
      for (std::size_t i = 0; i < k; ++i) {
        Bitset s(n);
        for (std::size_t v = 0; v < n; ++v)
          if (rng() % 4 == 0) s.set(v);
        fam.insert(s);
      }
      return fam;
    };
    SetFamily fa = random_family(12);
    SetFamily fb = random_family(12);
    Ref a = mgr.from_sets({fa.begin(), fa.end()});
    Ref b = mgr.from_sets({fb.begin(), fb.end()});
    SCOPED_TRACE("round=" + std::to_string(round) +
                 " n=" + std::to_string(n));
    expect_family(mgr, a, fa);
    expect_family(mgr, b, fb);
    expect_family(mgr, mgr.unite(a, b), brute_unite(fa, fb));
    expect_family(mgr, mgr.intersect(a, b), brute_intersect(fa, fb));
    expect_family(mgr, mgr.subtract(a, b), brute_subtract(fa, fb));
    expect_family(mgr, mgr.product(a, b), brute_product(fa, fb));
    std::size_t t = rng() % n;
    expect_family(mgr, mgr.containing(a, static_cast<Var>(t)),
                  brute_containing(fa, t));
    // Canonicity against the reference: rebuilding the brute-force result
    // from scratch lands on the very same Ref the operation produced.
    SetFamily u = brute_unite(fa, fb);
    EXPECT_EQ(mgr.unite(a, b), mgr.from_sets({u.begin(), u.end()}));
  }
}

// The computed cache is sized from the node table: it starts at
// kMinEntries, doubles whenever the live nodes outnumber its entries and
// stops at kMaxEntries, and it never holds more entries than it has slots.
TEST(Zdd, StatsCountNodesAndCacheTraffic) {
  constexpr std::size_t kVars = 24;
  ZddManager mgr(kVars);
  EXPECT_EQ(mgr.stats().cache_entries, dd::ComputedCache::kMinEntries);
  std::mt19937_64 rng(3);
  Ref acc = kEmpty;
  for (int i = 0; i < 3000; ++i) {
    Bitset s(kVars);
    for (std::size_t v = 0; v < kVars; ++v)
      if (rng() % 3 == 0) s.set(v);
    acc = mgr.unite(acc, mgr.single(s));
    const dd::Stats st = mgr.stats();
    ASSERT_TRUE(std::has_single_bit(st.cache_entries)) << st.cache_entries;
    ASSERT_LE(st.cache_entries, dd::ComputedCache::kMaxEntries);
    ASSERT_GE(st.cache_entries,
              std::min(st.nodes, dd::ComputedCache::kMaxEntries));
    ASSERT_LE(st.cache_occupied, st.cache_entries);
  }
  const dd::Stats s = mgr.stats();
  EXPECT_GT(s.nodes, dd::ComputedCache::kMinEntries);
  EXPECT_GT(s.cache_entries, dd::ComputedCache::kMinEntries);
  EXPECT_GT(s.cache_misses, 0u);
  EXPECT_GT(s.memory_bytes, 0u);
  ASSERT_EQ(s.ops.size(), ZddManager::kOpNames.size());
  std::size_t hits = 0, misses = 0;
  for (const dd::Stats::OpCount& oc : s.ops) {
    hits += oc.hits;
    misses += oc.misses;
  }
  EXPECT_EQ(hits, s.cache_hits);
  EXPECT_EQ(misses, s.cache_misses);
}

}  // namespace
}  // namespace gpo::zdd
