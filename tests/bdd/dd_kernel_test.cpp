// Decision-diagram kernel tests: the open-addressing unique table keeps one
// canonical Ref per triple across its rehash growths and stops at exactly
// its node limit; the computed cache keys on the op and all three operands
// and keeps its entries when it grows; and the BDD operations that share the
// one cache agree with truth-table evaluation on random formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/dd_kernel.hpp"

namespace gpo::dd {
namespace {

TEST(DdKernel, NodeTableRefsSurviveRehashGrowth) {
  NodeTable table(/*num_vars=*/64, /*node_limit=*/std::size_t{1} << 20,
                  "test");
  const std::size_t initial_slots = table.slot_count();
  std::mt19937_64 rng(7);
  struct Triple {
    Var var;
    Ref low, high;
    Ref ref;
  };
  std::vector<Triple> triples;
  for (int i = 0; i < 20000; ++i) {
    // Children must exist already; the table never inspects them further.
    const Ref bound = static_cast<Ref>(table.size());
    const Var var = static_cast<Var>(rng() % 64);
    const Ref low = static_cast<Ref>(rng() % bound);
    const Ref high = static_cast<Ref>(rng() % bound);
    const Ref ref = table.insert(var, low, high);
    triples.push_back({var, low, high, ref});
  }
  EXPECT_GE(table.slot_count(), initial_slots << 4);  // several growths
  EXPECT_GE(table.slot_count(), 2 * (table.size() - 2));
  const std::size_t size = table.size();
  for (const Triple& t : triples) {
    ASSERT_EQ(table.insert(t.var, t.low, t.high), t.ref);
    const Node& n = table.node(t.ref);
    ASSERT_EQ(n.var, t.var);
    ASSERT_EQ(n.low, t.low);
    ASSERT_EQ(n.high, t.high);
  }
  EXPECT_EQ(table.size(), size);  // re-inserting interns nothing new
}

TEST(DdKernel, NodeTableThrowsAtExactlyTheLimit) {
  constexpr std::size_t kLimit = 100;
  NodeTable table(/*num_vars=*/200, kLimit, "test");
  // The two terminals count toward the limit.
  for (Var v = 0; table.size() < kLimit; ++v)
    table.insert(v, kTerminal0, kTerminal1);
  EXPECT_EQ(table.size(), kLimit);
  try {
    table.insert(150, kTerminal0, kTerminal1);
    FAIL() << "insert past the limit must throw";
  } catch (const DdLimitExceeded& e) {
    EXPECT_EQ(e.limit(), kLimit);
    EXPECT_STREQ(e.what(), "test node limit exceeded (100 nodes)");
  }
  EXPECT_EQ(table.size(), kLimit);
  // A triple that is already interned still resolves at the limit.
  EXPECT_EQ(table.insert(0, kTerminal0, kTerminal1), Ref{2});
}

TEST(DdKernel, CacheKeysOnOpAndEveryOperand) {
  ComputedCache cache;
  Ref out = 0;
  cache.store(1, 5, 6, 7, 100);
  ASSERT_TRUE(cache.lookup(1, 5, 6, 7, out));
  EXPECT_EQ(out, 100u);
  EXPECT_FALSE(cache.lookup(1, 5, 6, 8, out));  // third operand differs
  EXPECT_FALSE(cache.lookup(2, 5, 6, 7, out));  // op differs
  EXPECT_FALSE(cache.lookup(1, 6, 5, 7, out));  // operands swapped

  cache.store(1, 5, 6, 8, 200);
  ASSERT_TRUE(cache.lookup(1, 5, 6, 8, out));
  EXPECT_EQ(out, 200u);
  cache.store(2, 5, 6, 7, 300);
  ASSERT_TRUE(cache.lookup(2, 5, 6, 7, out));
  EXPECT_EQ(out, 300u);
  // The first entry is either still there with its own result or evicted by
  // a colliding store; it never answers with another key's result.
  if (cache.lookup(1, 5, 6, 7, out)) {
    EXPECT_EQ(out, 100u);
  }
  EXPECT_EQ(cache.hits() + cache.misses(), 7u);
}

// The same, where the two keys share a slot: a cache that compared fewer
// fields than it hashes would answer for the wrong key only there.
TEST(DdKernel, CacheKeysOnEveryFieldWithinOneSlot) {
  Ref out = 0;
  {
    // (1, 5, 6, c') lands in (1, 5, 6, 7)'s slot for about one c' in
    // kMinEntries; none of them was stored, so none may hit.
    ComputedCache cache;
    cache.store(1, 5, 6, 7, 100);
    for (Ref c = 8; c < 200000; ++c)
      ASSERT_FALSE(cache.lookup(1, 5, 6, c, out)) << c;
  }
  // (2, 5, 6, c) overwrites (1, 5, 6, c) exactly when the two share a slot;
  // the first key must then miss rather than answer with the second's value.
  ComputedCache cache;
  std::size_t shared = 0;
  for (Ref c = 0; c < 100000; ++c) {
    cache.store(1, 5, 6, c, 2 * c);
    cache.store(2, 5, 6, c, 2 * c + 1);
    if (cache.lookup(1, 5, 6, c, out))
      ASSERT_EQ(out, 2 * c) << c;
    else
      ++shared;
  }
  EXPECT_GT(shared, 0u);
}

TEST(DdKernel, CacheReserveKeepsLiveEntries) {
  ComputedCache cache;
  const std::size_t before = cache.entries();
  EXPECT_EQ(before, ComputedCache::kMinEntries);
  std::mt19937_64 rng(11);
  struct Key {
    std::uint8_t op;
    Ref a, b, c, result;
  };
  std::vector<Key> keys;
  for (std::size_t i = 0; i < before; ++i) {
    Key k{static_cast<std::uint8_t>(rng() % 6), static_cast<Ref>(rng()),
          static_cast<Ref>(rng()), static_cast<Ref>(rng() % 4),
          static_cast<Ref>(i)};
    cache.store(k.op, k.a, k.b, k.c, k.result);
    keys.push_back(k);
  }
  std::vector<Key> live;
  Ref out = 0;
  for (const Key& k : keys)
    if (cache.lookup(k.op, k.a, k.b, k.c, out)) live.push_back(k);
  ASSERT_EQ(live.size(), cache.occupied());
  ASSERT_GT(live.size(), before / 2);

  cache.reserve(before + 1);  // one node more than entries: one doubling
  EXPECT_EQ(cache.entries(), 2 * before);
  cache.reserve(before * 10);
  EXPECT_EQ(cache.entries(), 16 * before);
  cache.reserve(std::size_t{1} << 30);  // capped
  EXPECT_EQ(cache.entries(), ComputedCache::kMaxEntries);
  EXPECT_EQ(cache.occupied(), live.size());
  for (const Key& k : live) {
    ASSERT_TRUE(cache.lookup(k.op, k.a, k.b, k.c, out));
    EXPECT_EQ(out, k.result);
  }
}

// --- BDD operations on the shared cache vs. truth tables -------------------

constexpr Var kVars = 10;
using Table = std::bitset<std::size_t{1} << kVars>;

Table truth_table(const bdd::BddManager& mgr, Ref f) {
  Table t;
  for (std::size_t x = 0; x < t.size(); ++x) {
    Ref cur = f;
    while (!mgr.is_terminal(cur))
      cur = (x >> mgr.var_of(cur)) & 1 ? mgr.high_of(cur) : mgr.low_of(cur);
    t[x] = cur == bdd::kTrue;
  }
  return t;
}

Table quantify(const Table& f, const std::vector<Var>& vars, bool universal) {
  Table out;
  for (std::size_t x = 0; x < out.size(); ++x) {
    std::size_t base = x;
    for (Var v : vars) base &= ~(std::size_t{1} << v);
    bool any = false, all = true;
    // Every completion of x on `vars`.
    for (std::size_t m = 0; m < (std::size_t{1} << vars.size()); ++m) {
      std::size_t y = base;
      for (std::size_t i = 0; i < vars.size(); ++i)
        if ((m >> i) & 1) y |= std::size_t{1} << vars[i];
      any = any || f[y];
      all = all && f[y];
    }
    out[x] = universal ? all : any;
  }
  return out;
}

TEST(DdKernel, SharedCacheOpsMatchTruthTables) {
  bdd::BddManager mgr(kVars);
  std::mt19937_64 rng(2024);
  std::vector<Ref> pool;
  std::vector<Table> tables;
  auto add = [&](Ref f, const Table& t) {
    pool.push_back(f);
    tables.push_back(t);
  };
  add(bdd::kFalse, Table{});
  add(bdd::kTrue, Table{}.set());
  for (Var v = 0; v < kVars; ++v) add(mgr.var(v), truth_table(mgr, mgr.var(v)));
  auto pick = [&] { return rng() % pool.size(); };
  auto random_vars = [&] {
    std::vector<Var> vars;
    for (Var v = 0; v < kVars; ++v)
      if (rng() % 3 == 0) vars.push_back(v);
    return vars;
  };

  for (int step = 0; step < 600; ++step) {
    const std::size_t i = pick(), j = pick(), k = pick();
    Ref r = bdd::kFalse;
    Table want;
    switch (rng() % 7) {
      case 0:
      case 1:
        r = mgr.ite(pool[i], pool[j], pool[k]);
        want = (tables[i] & tables[j]) | (~tables[i] & tables[k]);
        break;
      case 2: {
        std::vector<Var> vars = random_vars();
        r = mgr.exists(pool[i], mgr.cube(vars));
        want = quantify(tables[i], vars, /*universal=*/false);
        break;
      }
      case 3: {
        std::vector<Var> vars = random_vars();
        r = mgr.forall(pool[i], mgr.cube(vars));
        want = quantify(tables[i], vars, /*universal=*/true);
        break;
      }
      case 4: {
        std::vector<Var> vars = random_vars();
        r = mgr.and_exists(pool[i], pool[j], mgr.cube(vars));
        want = quantify(tables[i] & tables[j], vars, /*universal=*/false);
        break;
      }
      case 5: {
        // A random strictly increasing map from f's support into 0..9.
        const std::vector<Var> sup = mgr.support(pool[i]);
        std::vector<Var> targets;
        for (Var v = 0; v < kVars; ++v) targets.push_back(v);
        std::shuffle(targets.begin(), targets.end(), rng);
        targets.resize(sup.size());
        std::sort(targets.begin(), targets.end());
        std::vector<Var> map(kVars, 0);
        for (std::size_t s = 0; s < sup.size(); ++s) map[sup[s]] = targets[s];
        r = mgr.rename(pool[i], map);
        for (std::size_t x = 0; x < want.size(); ++x) {
          std::size_t y = 0;
          for (Var v : sup)
            if ((x >> map[v]) & 1) y |= std::size_t{1} << v;
          want[x] = tables[i][y];
        }
        break;
      }
      case 6: {
        const Var v = static_cast<Var>(rng() % kVars);
        const bool value = rng() % 2 == 0;
        r = mgr.restrict_var(pool[i], v, value);
        for (std::size_t x = 0; x < want.size(); ++x) {
          std::size_t y = x & ~(std::size_t{1} << v);
          if (value) y |= std::size_t{1} << v;
          want[x] = tables[i][y];
        }
        break;
      }
    }
    ASSERT_EQ(truth_table(mgr, r), want) << "step " << step;
    add(r, want);
  }

  // Canonicity on top: equal truth tables were built as the same Ref.
  std::map<std::string, Ref> by_table;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    auto [it, fresh] = by_table.emplace(tables[i].to_string(), pool[i]);
    if (!fresh) {
      ASSERT_EQ(it->second, pool[i]);
    }
  }
  // Every op kind went through the one cache.
  const Stats s = mgr.stats();
  ASSERT_EQ(s.ops.size(), bdd::BddManager::kOpNames.size());
  for (const Stats::OpCount& oc : s.ops)
    EXPECT_GT(oc.hits + oc.misses, 0u) << oc.op;
}

}  // namespace
}  // namespace gpo::dd
