#include "util/marking_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/bitset.hpp"

namespace gpo::util {
namespace {

// A distinct marking of `places` bits per `i`: the bits of i spread over
// every word, so markings of one id differ in the first and the last word.
Bitset marking_of(std::size_t places, std::uint64_t i) {
  Bitset m(places);
  for (std::size_t b = 0; b < 64 && b < places; ++b)
    if ((i >> b) & 1u) m.set(b);
  if (places > 64) m.assign(places - 1, (i & 1u) != 0);
  if (places > 128) m.assign(127, (i & 2u) != 0);
  return m;
}

class MarkingTableWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarkingTableWidth, InsertOrderIdsAndDuplicates) {
  const std::size_t places = GetParam();
  MarkingTable table(places);
  EXPECT_EQ(table.width(), (places + 63) / 64);

  // Enough inserts to cross five growths of the 16-slot start table.
  constexpr std::size_t kCount = 5000;
  std::size_t growths = 0;
  std::size_t slot_bytes = table.slot_bytes();
  for (std::uint64_t i = 0; i < kCount; ++i) {
    Bitset m = marking_of(places, i);
    ASSERT_FALSE(table.contains(m.words(), MarkingTable::hash(m.words())))
        << "i=" << i;
    auto [id, fresh] = table.insert(m.words());
    ASSERT_TRUE(fresh) << "i=" << i;
    ASSERT_EQ(id, i) << "ids follow insertion order";
    if (table.slot_bytes() != slot_bytes) {
      ++growths;
      slot_bytes = table.slot_bytes();
    }
  }
  EXPECT_GE(growths, 5u);
  EXPECT_EQ(table.size(), kCount);

  // Every marking reads back and is found, and a duplicate insert returns
  // its first id.
  for (std::uint64_t i = 0; i < kCount; ++i) {
    Bitset m = marking_of(places, i);
    EXPECT_TRUE(table.contains(m.words(), MarkingTable::hash(m.words())))
        << "i=" << i;
    auto stored = table[i];
    ASSERT_TRUE(std::equal(stored.begin(), stored.end(), m.words().begin()))
        << "i=" << i;
    auto [id, fresh] = table.insert(m.words());
    EXPECT_FALSE(fresh) << "i=" << i;
    EXPECT_EQ(id, i);
  }
  EXPECT_EQ(table.size(), kCount);
}

TEST_P(MarkingTableWidth, MemoryIsArenaPlusSlots) {
  const std::size_t places = GetParam();
  MarkingTable table(places);
  for (std::uint64_t i = 0; i < 300; ++i) {
    Bitset m = marking_of(places, i);
    (void)table.insert(m.words());
    ASSERT_LE(table.size(), table.capacity());
    EXPECT_EQ(table.arena_bytes(),
              table.capacity() * table.width() * sizeof(std::uint64_t));
    EXPECT_EQ(table.slot_bytes() / sizeof(std::uint64_t) / 4 * 3,
              table.capacity());
    EXPECT_EQ(table.memory_bytes(), table.arena_bytes() + table.slot_bytes());
  }
}

// One, two and three words per marking, across both word boundaries.
INSTANTIATE_TEST_SUITE_P(OneTwoThreeWords, MarkingTableWidth,
                         ::testing::Values(63, 64, 65, 129));

TEST(MarkingTable, MarkingsDifferingOnlyInTheLastWordAreDistinct) {
  MarkingTable table(129);
  Bitset a(129), b(129);
  b.set(128);
  EXPECT_EQ(table.insert(a.words()), (std::pair<std::size_t, bool>{0, true}));
  EXPECT_FALSE(table.contains(b.words(), MarkingTable::hash(b.words())));
  EXPECT_EQ(table.insert(b.words()), (std::pair<std::size_t, bool>{1, true}));
  EXPECT_EQ(table.insert(a.words()), (std::pair<std::size_t, bool>{0, false}));
  EXPECT_EQ(table.insert(b.words()), (std::pair<std::size_t, bool>{1, false}));
}

TEST(MarkingTable, NetWithoutPlacesHasOneMarking) {
  MarkingTable table(0);
  Bitset empty(0);
  EXPECT_EQ(table.width(), 0u);
  EXPECT_TRUE(table.insert(empty.words()).second);
  EXPECT_FALSE(table.insert(empty.words()).second);
  EXPECT_EQ(table.size(), 1u);
}

}  // namespace
}  // namespace gpo::util
