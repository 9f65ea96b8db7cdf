// Visited store of the explicit breadth-first search (reach/search.hpp):
// flat, fixed-width state vectors in an open-addressing table, as in the
// state tables of the LTSmin lineage (SNIPPETS.md).
//
// Every marking takes W = ⌈|P|/64⌉ words, stored inline in one growable word
// arena; marking `id` lives at words [id·W, (id+1)·W). An open-addressing
// slot table (linear probing, power-of-two size, load ≤ 3/4) indexes the
// arena. A slot is one word packing the top 24 bits of the marking's hash
// above id + 1, 0 meaning empty, so a probe reads arena words only when the
// tags agree. Ids are given in insertion order (0, 1, 2, ...) and a marking
// is copied into the arena only when it is new. The table and the arena grow
// together: the arena is reserved for exactly the markings the slot table
// holds before its next growth, so memory_bytes() is a function of size().
//
// Not thread-safe for writers: the parallel search reads the table with
// contains() from several threads only while no thread inserts, and each of
// its workers keeps a private table of the successors it produced.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/bitset.hpp"
#include "util/hash.hpp"

namespace gpo::util {

class MarkingTable {
 public:
  using Word = Bitset::Word;

  /// An empty table for markings of `bits` places.
  explicit MarkingTable(std::size_t bits)
      : width_((bits + Bitset::kWordBits - 1) / Bitset::kWordBits),
        slots_(kInitialSlots, 0) {
    arena_.reserve(capacity() * width_);
  }

  /// Words per marking (W).
  [[nodiscard]] std::size_t width() const { return width_; }
  /// Number of stored markings; the next new marking gets this id.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Markings the table holds before its slot table (and arena) next grow.
  [[nodiscard]] std::size_t capacity() const {
    return slots_.size() / 4 * 3;
  }

  /// The words of marking `id`. Valid until the next insert that grows the
  /// table; copy them out before inserting.
  [[nodiscard]] std::span<const Word> operator[](std::size_t id) const {
    return {arena_.data() + id * width_, width_};
  }

  /// Whether the marking `m` (width() words), whose hash(m) is `h`, is
  /// stored. Read-only, so any number of threads may call it while nobody
  /// inserts.
  [[nodiscard]] bool contains(std::span<const Word> m, std::uint64_t h) const {
    return find(m, h).second != kNone;
  }

  /// Interns the marking `m` (width() words). Returns its id and whether it
  /// was new; a new marking gets id size() and is copied into the arena.
  std::pair<std::size_t, bool> insert(std::span<const Word> m) {
    return insert(m, hash(m));
  }
  /// insert() for a marking whose hash(m) is already known.
  std::pair<std::size_t, bool> insert(std::span<const Word> m,
                                      std::uint64_t h) {
    auto [i, found] = find(m, h);
    if (found != kNone) return {found, false};
    if (size_ == capacity()) {
      grow();
      const std::size_t mask = slots_.size() - 1;
      i = h & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
    }
    if (size_ + 1 > kIdMask)
      throw std::length_error("MarkingTable: more than 2^40 markings");
    const std::size_t id = size_++;
    slots_[i] = (h & ~kIdMask) | (id + 1);
    arena_.insert(arena_.end(), m.begin(), m.end());
    return {id, true};
  }

  /// Forgets every marking but keeps the memory, so refilling the table to
  /// its old size does not grow it again.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    arena_.clear();
    size_ = 0;
  }

  /// Word-wise multiply-xor chain finished by MurmurHash3's mixer: the low
  /// bits pick the home slot, the top 24 bits become the slot's tag.
  [[nodiscard]] static std::uint64_t hash(std::span<const Word> m) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (Word w : m) h = (h ^ w) * 0xff51afd7ed558ccdull;
    return mix64(h);
  }

  /// Heap bytes of the word arena (its reserved capacity).
  [[nodiscard]] std::size_t arena_bytes() const {
    return arena_.capacity() * sizeof(Word);
  }
  /// Heap bytes of the slot table.
  [[nodiscard]] std::size_t slot_bytes() const {
    return slots_.size() * sizeof(std::uint64_t);
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return arena_bytes() + slot_bytes();
  }

 private:
  static constexpr unsigned kIdBits = 40;
  static constexpr std::uint64_t kIdMask = (std::uint64_t{1} << kIdBits) - 1;
  static constexpr std::size_t kInitialSlots = 16;

  static constexpr std::size_t kNone = ~std::size_t{0};

  /// Linear probe for `m` with hash `h`: its slot and id, or the empty slot
  /// that ends the probe and kNone.
  [[nodiscard]] std::pair<std::size_t, std::size_t> find(
      std::span<const Word> m, std::uint64_t h) const {
    const std::uint64_t tag = h & ~kIdMask;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    for (std::uint64_t slot = slots_[i]; slot != 0;
         i = (i + 1) & mask, slot = slots_[i]) {
      if ((slot & ~kIdMask) != tag) continue;
      const std::size_t id = (slot & kIdMask) - 1;
      if (std::equal(m.begin(), m.end(), arena_.begin() + id * width_))
        return {i, id};
    }
    return {i, kNone};
  }

  /// Doubles the slot table, re-hashes every stored marking from the arena
  /// and reserves the arena for the new capacity().
  void grow() {
    std::vector<std::uint64_t> slots(slots_.size() * 2, 0);
    const std::size_t mask = slots.size() - 1;
    for (std::size_t id = 0; id < size_; ++id) {
      const std::uint64_t h = hash((*this)[id]);
      std::size_t i = h & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
      slots[i] = (h & ~kIdMask) | (id + 1);
    }
    slots_.swap(slots);
    arena_.reserve(capacity() * width_);
  }

  std::size_t width_;
  std::size_t size_ = 0;
  std::vector<Word> arena_;
  std::vector<std::uint64_t> slots_;
};

}  // namespace gpo::util
