// Lock-free FamilyInterner stress tests: concurrent insert agreement, table
// growth under racing inserters, no lost inserts across migration, and
// op-cache statistics aggregation at join. Labeled `parallel` so the TSan CI
// leg checks the CAS protocol's memory ordering for real, not just its
// outcomes.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/family_interner.hpp"

namespace gpo::core {
namespace {

// Distinct index -> distinct family: the index's bits become one member set,
// so the stream never repeats (the universe must cover the index range).
ExplicitFamily family_for(const ExplicitFamily::Context& ctx, std::uint64_t i) {
  ++i;  // keep index 0 off the empty set
  TransitionSet s(ctx.num_transitions());
  for (std::size_t b = 0; b < ctx.num_transitions(); ++b)
    if ((i >> b) & 1u) s.set(b);
  return ctx.single(s);
}

// 8 threads intern the same deterministic stream concurrently: every thread
// must observe the same id for the same family (the unique table never
// splits a value across ids), and no insert may be lost.
TEST(FamilyInternerStress, ConcurrentInsertIdAgreement) {
  constexpr std::size_t kTransitions = 16;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kStream = 500;
  FamilyInterner interner(kTransitions, /*op_cache_entries=*/1 << 10);
  ExplicitFamily::Context ctx(kTransitions);

  std::vector<std::vector<FamilyId>> ids(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      ids[w].reserve(kStream);
      for (std::uint64_t i = 0; i < kStream; ++i)
        ids[w].push_back(interner.intern(family_for(ctx, i)));
    });
  }
  for (std::thread& t : pool) t.join();

  for (std::size_t w = 1; w < kThreads; ++w) EXPECT_EQ(ids[w], ids[0]);

  // No lost inserts: every id in the agreed stream resolves to a family
  // that re-interns to the same id, and ids are dense in [0, size).
  const std::size_t n = interner.size();
  for (FamilyId id : ids[0]) {
    ASSERT_LT(id, n);
    EXPECT_EQ(interner.intern(interner.family(id)), id);
  }
}

// A deliberately tiny initial table (4 slots) forces growth migrations to
// race the inserters. Every distinct family must keep exactly one id across
// however many generations the table went through.
TEST(FamilyInternerStress, TableGrowthRaceKeepsIdsUnique) {
  constexpr std::size_t kTransitions = 24;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 400;
  FamilyInterner interner(kTransitions, /*op_cache_entries=*/1 << 10,
                          /*initial_table_capacity=*/4);
  ExplicitFamily::Context ctx(kTransitions);

  // Each thread alternates a shared stream (every thread contests the same
  // families, racing claims) with a thread-private stream (steady pressure
  // that keeps tripping the load factor mid-race).
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        interner.intern(family_for(ctx, i));
        interner.intern(family_for(ctx, 10000 + w * kPerThread + i));
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_GT(interner.unique_table_growths(), 0u);
  EXPECT_GE(interner.unique_table_capacity(), interner.size());

  // No duplicate ids: re-interning every stored family returns its own id
  // (a lost insert or a double insert would break one of these).
  const std::size_t n = interner.size();
  ASSERT_GT(n, kPerThread);
  for (FamilyId id = 0; id < n; ++id)
    ASSERT_EQ(interner.intern(interner.family(id)), id) << "id " << id;

  FamilyInternerStats s = interner.stats();
  EXPECT_EQ(s.distinct_families, n);
  EXPECT_GE(s.intern_calls, s.distinct_families);
}

// Per-thread op caches: every thread runs the same op stream, then the
// joined stats() must aggregate all threads' counters (hits+misses equals
// the total op count, every thread's cache is represented).
TEST(FamilyInternerStress, OpCacheStatsAggregateAtJoin) {
  constexpr std::size_t kTransitions = 12;
  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kOps = 300;
  FamilyInterner interner(kTransitions, /*op_cache_entries=*/1 << 12);

  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kThreads; ++w) {
    pool.emplace_back([&] {
      TransitionSet a(kTransitions), b(kTransitions);
      a.set(1);
      b.set(2);
      FamilyId fa = interner.from_sets({a});
      FamilyId fb = interner.from_sets({b});
      for (std::uint64_t i = 0; i < kOps; ++i) {
        FamilyId u = interner.unite(fa, fb);
        FamilyId n = interner.intersect(u, fa);
        ASSERT_EQ(n, fa);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  EXPECT_EQ(interner.op_cache_thread_count(), kThreads);
  FamilyInternerStats s = interner.stats();
  // 2 cached ops per iteration per thread; each thread misses each distinct
  // (op, a, b) once and hits thereafter, so hits dominate and the totals add
  // up exactly across the join.
  EXPECT_EQ(s.op_cache_hits + s.op_cache_misses, kThreads * kOps * 2);
  EXPECT_GE(s.op_cache_hits, kThreads * (kOps - 1) * 2);
  EXPECT_EQ(s.op_cache_evictions, 0u);
}

// Interleaved family algebra from 8 threads on one interner: the same input
// stream yields the same ids on every thread, and every arena entry stays
// canonical (re-interning it returns its own id).
TEST(FamilyInternerStress, ConcurrentInternersAgreeOnIds) {
  constexpr std::size_t kTransitions = 12;
  constexpr std::size_t kThreads = 8;
  FamilyInterner interner(kTransitions, /*op_cache_entries=*/1 << 10);

  // Every thread interns the same deterministic stream of families and
  // records the ids it got back.
  std::vector<std::vector<FamilyId>> shared_ids(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < 200; ++i) {
        TransitionSet a(kTransitions), b(kTransitions);
        a.set(i % kTransitions);
        a.set((i * 7 + 1) % kTransitions);
        b.set((i * 5 + 2) % kTransitions);
        FamilyId fa = interner.from_sets({a});
        FamilyId fb = interner.from_sets({b});
        FamilyId u = interner.unite(fa, fb);
        FamilyId n = interner.intersect(u, fa);
        shared_ids[w].push_back(u);
        shared_ids[w].push_back(n);
        // Algebra sanity under the race: fa ⊆ u, so u ∩ fa == fa.
        ASSERT_EQ(n, fa);
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (std::size_t w = 1; w < kThreads; ++w)
    EXPECT_EQ(shared_ids[w], shared_ids[0]);

  const std::size_t n = interner.size();
  ASSERT_GT(n, 1u);
  for (FamilyId id = 0; id < n; ++id) {
    ExplicitFamily f = interner.family(id);
    EXPECT_EQ(interner.intern(std::move(f)), id);
  }

  FamilyInternerStats s = interner.stats();
  EXPECT_EQ(s.distinct_families, n);
  EXPECT_GE(s.intern_calls, s.distinct_families);
  EXPECT_GT(interner.op_cache_thread_count(), 0u);
}

}  // namespace
}  // namespace gpo::core
