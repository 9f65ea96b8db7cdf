#include "core/set_family.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/family_interner.hpp"
#include "core/zdd_family.hpp"
#include "models/models.hpp"
#include "petri/conflict.hpp"

namespace gpo::core {
namespace {

TransitionSet ts(std::size_t n, std::initializer_list<std::size_t> bits) {
  return TransitionSet(n, bits);
}

// ---------------------------------------------------------------------------
// Typed tests running identically over both representations.
// ---------------------------------------------------------------------------

template <typename F>
class FamilyTest : public ::testing::Test {};

using FamilyTypes =
    ::testing::Types<ExplicitFamily, BddFamily, InternedFamily, ZddFamily>;
TYPED_TEST_SUITE(FamilyTest, FamilyTypes);

TYPED_TEST(FamilyTest, EmptyFamily) {
  typename TypeParam::Context ctx(4);
  auto e = ctx.empty();
  EXPECT_TRUE(e.is_empty());
  EXPECT_EQ(e.count(), 0.0);
  EXPECT_TRUE(e.members().empty());
  EXPECT_FALSE(e.contains(ts(4, {})));
}

TYPED_TEST(FamilyTest, SingleAndContains) {
  typename TypeParam::Context ctx(4);
  auto f = ctx.single(ts(4, {0, 2}));
  EXPECT_FALSE(f.is_empty());
  EXPECT_EQ(f.count(), 1.0);
  EXPECT_TRUE(f.contains(ts(4, {0, 2})));
  EXPECT_FALSE(f.contains(ts(4, {0})));
  EXPECT_FALSE(f.contains(ts(4, {0, 1, 2})));
  // The empty set is a legitimate member, distinct from the empty family.
  auto g = ctx.single(ts(4, {}));
  EXPECT_FALSE(g.is_empty());
  EXPECT_TRUE(g.contains(ts(4, {})));
}

TYPED_TEST(FamilyTest, SetAlgebra) {
  typename TypeParam::Context ctx(4);
  auto ab = ctx.from_sets({ts(4, {0}), ts(4, {1})});
  auto bc = ctx.from_sets({ts(4, {1}), ts(4, {2})});
  EXPECT_EQ(ab.intersect(bc), ctx.single(ts(4, {1})));
  EXPECT_EQ(ab.unite(bc),
            ctx.from_sets({ts(4, {0}), ts(4, {1}), ts(4, {2})}));
  EXPECT_EQ(ab.subtract(bc), ctx.single(ts(4, {0})));
  EXPECT_EQ(ab.subtract(ab), ctx.empty());
  EXPECT_EQ(ab.intersect(ctx.empty()), ctx.empty());
  EXPECT_EQ(ab.unite(ctx.empty()), ab);
}

TYPED_TEST(FamilyTest, ContainingFiltersOnMembership) {
  typename TypeParam::Context ctx(4);
  auto f = ctx.from_sets({ts(4, {0, 1}), ts(4, {1, 2}), ts(4, {3})});
  EXPECT_EQ(f.containing(1),
            ctx.from_sets({ts(4, {0, 1}), ts(4, {1, 2})}));
  EXPECT_EQ(f.containing(3), ctx.single(ts(4, {3})));
  EXPECT_EQ(f.containing(0).containing(2), ctx.empty());
}

TYPED_TEST(FamilyTest, EqualityAndHashAreCanonical) {
  typename TypeParam::Context ctx(4);
  auto a = ctx.from_sets({ts(4, {0}), ts(4, {1})});
  auto b = ctx.from_sets({ts(4, {1}), ts(4, {0})});  // different order
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  auto c = a.unite(ctx.single(ts(4, {2}))).subtract(ctx.single(ts(4, {2})));
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.hash(), c.hash());
}

TYPED_TEST(FamilyTest, MembersRoundTrip) {
  typename TypeParam::Context ctx(5);
  std::vector<TransitionSet> sets{ts(5, {0, 3}), ts(5, {1}), ts(5, {2, 4})};
  auto f = ctx.from_sets(sets);
  auto out = f.members();
  EXPECT_EQ(out.size(), 3u);
  for (const auto& s : sets)
    EXPECT_NE(std::find(out.begin(), out.end(), s), out.end());
}

TYPED_TEST(FamilyTest, MembersRespectsCap) {
  typename TypeParam::Context ctx(4);
  auto f = ctx.from_sets({ts(4, {0}), ts(4, {1}), ts(4, {2}), ts(4, {3})});
  EXPECT_EQ(f.members(2).size(), 2u);
}

TYPED_TEST(FamilyTest, InitialValidSetsOnFig7) {
  auto net = models::make_fig7();
  petri::ConflictInfo ci(net);
  typename TypeParam::Context ctx(net.transition_count());
  auto r0 = ctx.initial_valid_sets(ci);
  EXPECT_EQ(r0.count(), 4.0);  // {A,C},{A,D},{B,C},{B,D}
  auto a = net.find_transition("A");
  auto b = net.find_transition("B");
  auto c = net.find_transition("C");
  auto d = net.find_transition("D");
  TransitionSet ac(net.transition_count());
  ac.set(a);
  ac.set(c);
  EXPECT_TRUE(r0.contains(ac));
  TransitionSet abx(net.transition_count());
  abx.set(a);
  abx.set(b);
  EXPECT_FALSE(r0.contains(abx));  // conflicting pair
  TransitionSet just_a(net.transition_count());
  just_a.set(a);
  EXPECT_FALSE(r0.contains(just_a));  // not maximal
  (void)d;
}

TYPED_TEST(FamilyTest, InitialValidSetsAreMaximalIndependent) {
  auto net = models::make_nsdp(2);
  petri::ConflictInfo ci(net);
  typename TypeParam::Context ctx(net.transition_count());
  auto r0 = ctx.initial_valid_sets(ci);
  for (const TransitionSet& v : r0.members()) {
    for (std::size_t t = 0; t < net.transition_count(); ++t) {
      if (v.test(t)) {
        // Independence.
        EXPECT_FALSE(v.intersects(ci.neighbors(static_cast<std::uint32_t>(t))));
      } else {
        // Maximality.
        EXPECT_TRUE(v.intersects(ci.neighbors(static_cast<std::uint32_t>(t))));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-representation equivalence under random operation sequences.
// ---------------------------------------------------------------------------

TEST(FamilyEquivalence, RandomOperationSequences) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 6;
    ExplicitFamily::Context ectx(n);
    BddFamily::Context bctx(n);
    ZddFamily::Context zctx(n);

    auto random_set = [&]() {
      TransitionSet s(n);
      for (std::size_t i = 0; i < n; ++i)
        if (rng() % 2) s.set(i);
      return s;
    };

    std::vector<ExplicitFamily> epool{ectx.empty()};
    std::vector<BddFamily> bpool{bctx.empty()};
    std::vector<ZddFamily> zpool{zctx.empty()};
    for (int step = 0; step < 60; ++step) {
      std::size_t i = rng() % epool.size();
      std::size_t j = rng() % epool.size();
      switch (rng() % 5) {
        case 0: {
          TransitionSet s = random_set();
          epool.push_back(ectx.single(s));
          bpool.push_back(bctx.single(s));
          zpool.push_back(zctx.single(s));
          break;
        }
        case 1:
          epool.push_back(epool[i].unite(epool[j]));
          bpool.push_back(bpool[i].unite(bpool[j]));
          zpool.push_back(zpool[i].unite(zpool[j]));
          break;
        case 2:
          epool.push_back(epool[i].intersect(epool[j]));
          bpool.push_back(bpool[i].intersect(bpool[j]));
          zpool.push_back(zpool[i].intersect(zpool[j]));
          break;
        case 3:
          epool.push_back(epool[i].subtract(epool[j]));
          bpool.push_back(bpool[i].subtract(bpool[j]));
          zpool.push_back(zpool[i].subtract(zpool[j]));
          break;
        default: {
          petri::TransitionId t = rng() % n;
          epool.push_back(epool[i].containing(t));
          bpool.push_back(bpool[i].containing(t));
          zpool.push_back(zpool[i].containing(t));
          break;
        }
      }
      const ExplicitFamily& e = epool.back();
      const BddFamily& b = bpool.back();
      const ZddFamily& z = zpool.back();
      ASSERT_EQ(e.count(), b.count()) << "trial " << trial << " step " << step;
      ASSERT_EQ(e.count(), z.count()) << "trial " << trial << " step " << step;
      ASSERT_EQ(e.is_empty(), b.is_empty());
      ASSERT_EQ(e.is_empty(), z.is_empty());
      auto em = e.members();
      auto bm = b.members();
      auto zm = z.members();
      std::sort(bm.begin(), bm.end());
      std::sort(zm.begin(), zm.end());
      ASSERT_EQ(em, bm) << "trial " << trial << " step " << step;
      ASSERT_EQ(em, zm) << "trial " << trial << " step " << step;
    }

    // Equality semantics agree pairwise across the pools.
    for (std::size_t i = 0; i < epool.size(); ++i)
      for (std::size_t j = 0; j < epool.size(); ++j) {
        ASSERT_EQ(epool[i] == epool[j], bpool[i] == bpool[j]);
        ASSERT_EQ(epool[i] == epool[j], zpool[i] == zpool[j]);
      }
  }
}

TEST(FamilyEquivalence, InitialValidSetsMatchOnModels) {
  for (auto make : {+[] { return models::make_nsdp(3); },
                    +[] { return models::make_arbiter_tree(4); },
                    +[] { return models::make_overtake(3); },
                    +[] { return models::make_readers_writers(4); }}) {
    auto net = make();
    petri::ConflictInfo ci(net);
    ExplicitFamily::Context ectx(net.transition_count());
    BddFamily::Context bctx(net.transition_count());
    ZddFamily::Context zctx(net.transition_count());
    auto er0 = ectx.initial_valid_sets(ci);
    auto br0 = bctx.initial_valid_sets(ci);
    auto zr0 = zctx.initial_valid_sets(ci);
    EXPECT_EQ(er0.count(), br0.count()) << net.name();
    EXPECT_EQ(er0.count(), zr0.count()) << net.name();
    auto em = er0.members();
    auto bm = br0.members();
    auto zm = zr0.members();
    std::sort(bm.begin(), bm.end());
    std::sort(zm.begin(), zm.end());
    EXPECT_EQ(em, bm) << net.name();
    EXPECT_EQ(em, zm) << net.name();
  }
}

// The symbolic ZDD r0 is pinned to the enumerated one by canonical Ref:
// both are built in one manager, so equal families are the same node.
TEST(FamilyEquivalence, ZddInitialValidSetsMatchEnumerationOnRandomNets) {
  for (std::uint64_t seed = 3100; seed < 3160; ++seed) {
    models::RandomNetParams p;
    p.machines = 2 + seed % 4;
    p.states_per_machine = 3 + seed % 2;
    p.transitions = 6 + seed % 13;
    p.sync_percent = static_cast<std::uint32_t>(20 * (seed % 5));
    p.seed = seed;
    auto net = models::make_random_net(p);
    petri::ConflictInfo ci(net);
    const std::vector<TransitionSet> enumerated =
        ci.maximal_conflict_free_sets();
    ZddFamily::Context zctx(net.transition_count());
    EXPECT_EQ(zctx.initial_valid_sets(ci), zctx.from_sets(enumerated))
        << "seed " << seed;
    BddFamily::Context bctx(net.transition_count());
    auto bm = bctx.initial_valid_sets(ci).members();
    std::sort(bm.begin(), bm.end());
    EXPECT_EQ(bm, enumerated) << "seed " << seed;
  }
}

// Far beyond any enumeration: nsdp:24 has 5.33e13 maximal conflict-free
// sets, which the symbolic build represents in a 2^20-node arena.
TEST(FamilyEquivalence, ZddInitialValidSetsScaleOnLargeNsdp) {
  for (std::size_t n : {14, 24}) {
    auto net = models::make_nsdp(n);
    petri::ConflictInfo ci(net);
    ZddFamily::Context zctx(net.transition_count(),
                            /*node_limit=*/std::size_t{1} << 20);
    BddFamily::Context bctx(net.transition_count());
    const double expected = bctx.initial_valid_sets(ci).count();
    EXPECT_EQ(zctx.initial_valid_sets(ci).count(), expected) << "nsdp:" << n;
    if (n == 24) {
      EXPECT_NEAR(expected, 5.33e13, 0.01e13);
    }
  }
}

TEST(FamilyContext, UniverseMismatchThrows) {
  ExplicitFamily::Context ectx(4);
  EXPECT_THROW((void)ectx.single(ts(5, {0})), std::invalid_argument);
  BddFamily::Context bctx(4);
  EXPECT_THROW((void)bctx.single(ts(5, {0})), std::invalid_argument);
  ZddFamily::Context zctx(4);
  EXPECT_THROW((void)zctx.single(ts(5, {0})), std::invalid_argument);
}

TEST(ExplicitFamilyContaining, MatchesBruteForceOnRandomFamilies) {
  // Regression for the word/mask fast path in ExplicitFamily::containing:
  // the hoisted single-word probe must select exactly the members a per-bit
  // test(t) loop selects, across word boundaries (universe > 64).
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng() % 140;  // spans 1..3 storage words
    ExplicitFamily::Context ctx(n);
    std::vector<TransitionSet> sets;
    const std::size_t members = rng() % 30;
    for (std::size_t k = 0; k < members; ++k) {
      TransitionSet s(n);
      for (std::size_t i = 0; i < n; ++i)
        if (rng() % 4 == 0) s.set(i);
      sets.push_back(s);
    }
    ExplicitFamily f = ctx.from_sets(sets);
    for (int probe = 0; probe < 8; ++probe) {
      const petri::TransitionId t =
          static_cast<petri::TransitionId>(rng() % n);
      std::vector<TransitionSet> expect;
      for (const TransitionSet& s : f.members())
        if (s.test(t)) expect.push_back(s);
      EXPECT_EQ(f.containing(t).members(), expect)
          << "trial " << trial << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace gpo::core
