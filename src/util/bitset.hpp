// Dynamic fixed-capacity bitset used for safe-Petri-net markings and
// transition sets. Unlike std::vector<bool> it exposes word-level operations
// (intersection, union, difference, subset tests) and a stable hash, which the
// explorers use on their hot paths.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace gpo::util {

/// A dynamically sized bitset with value semantics.
///
/// The number of bits is fixed at construction (the "universe size"); all
/// binary operations require operands over the same universe and throw
/// std::invalid_argument otherwise. Bits beyond size() are kept zero as a
/// class invariant so that word-wise comparison and hashing are exact.
class Bitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  Bitset() = default;

  /// Creates a bitset of `size` bits, all cleared.
  explicit Bitset(std::size_t size)
      : size_(size), words_((size + kWordBits - 1) / kWordBits, 0) {}

  /// Creates a bitset of `size` bits with the listed bits set.
  Bitset(std::size_t size, std::initializer_list<std::size_t> bits)
      : Bitset(size) {
    for (std::size_t b : bits) set(b);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const {
    check_index(i);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  void set(std::size_t i) {
    check_index(i);
    words_[i / kWordBits] |= Word{1} << (i % kWordBits);
  }

  void reset(std::size_t i) {
    check_index(i);
    words_[i / kWordBits] &= ~(Word{1} << (i % kWordBits));
  }

  void assign(std::size_t i, bool value) { value ? set(i) : reset(i); }

  void clear() {
    for (Word& w : words_) w = 0;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (Word w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  /// The wi-th storage word (bit i lives in word i / kWordBits at bit
  /// i % kWordBits); bits past size() are zero by invariant. For word-level
  /// filters over many same-universe bitsets (ExplicitFamily::containing),
  /// where the caller hoists the word index and mask out of the loop
  /// instead of re-deriving them in every test().
  [[nodiscard]] Word word(std::size_t wi) const { return words_[wi]; }
  [[nodiscard]] std::size_t word_count() const { return words_.size(); }

  /// Read/write view of the storage words, for stores that keep markings as
  /// flat words (util::MarkingTable) and fire transitions word by word.
  /// Writers must keep the bits past size() zero.
  [[nodiscard]] std::span<Word> words() { return words_; }
  [[nodiscard]] std::span<const Word> words() const { return words_; }

  [[nodiscard]] bool none() const {
    for (Word w : words_)
      if (w != 0) return false;
    return true;
  }

  [[nodiscard]] bool any() const { return !none(); }

  /// Index of the lowest set bit, or size() if none.
  [[nodiscard]] std::size_t find_first() const { return find_next(0); }

  /// Index of the lowest set bit >= from, or size() if none.
  [[nodiscard]] std::size_t find_next(std::size_t from) const {
    if (from >= size_) return size_;
    std::size_t wi = from / kWordBits;
    Word w = words_[wi] & (~Word{0} << (from % kWordBits));
    while (true) {
      if (w != 0) {
        std::size_t bit = wi * kWordBits +
                          static_cast<std::size_t>(std::countr_zero(w));
        return bit < size_ ? bit : size_;
      }
      if (++wi == words_.size()) return size_;
      w = words_[wi];
    }
  }

  Bitset& operator|=(const Bitset& o) {
    check_same(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }

  Bitset& operator&=(const Bitset& o) {
    check_same(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }

  /// Set difference: clears every bit that is set in `o`.
  Bitset& operator-=(const Bitset& o) {
    check_same(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
    return *this;
  }

  Bitset& operator^=(const Bitset& o) {
    check_same(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
    return *this;
  }

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator-(Bitset a, const Bitset& b) { return a -= b; }
  friend Bitset operator^(Bitset a, const Bitset& b) { return a ^= b; }

  /// True if every bit set here is also set in `o`.
  [[nodiscard]] bool is_subset_of(const Bitset& o) const {
    check_same(o);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if ((words_[i] & ~o.words_[i]) != 0) return false;
    return true;
  }

  /// True if this and `o` share at least one set bit.
  [[nodiscard]] bool intersects(const Bitset& o) const {
    check_same(o);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if ((words_[i] & o.words_[i]) != 0) return true;
    return false;
  }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Lexicographic order on (size, words); suitable for ordered containers
  /// and the canonical ordering inside set families.
  friend bool operator<(const Bitset& a, const Bitset& b) {
    if (a.size_ != b.size_) return a.size_ < b.size_;
    return a.words_ < b.words_;
  }

  /// FNV-1a over the words in one pass, chained from `seed`; the trailing-bit
  /// invariant makes this exact. Callers hashing a sequence of bitsets
  /// (ExplicitFamily, the state stores) thread the running hash through
  /// `seed` instead of finalizing and re-mixing per element.
  [[nodiscard]] std::uint64_t hash_value(
      std::uint64_t seed = 1469598103934665603ull) const {
    std::uint64_t h = seed;
    for (Word w : words_) {
      h ^= w;
      h *= 1099511628211ull;
    }
    h ^= size_;
    h *= 1099511628211ull;
    return h;
  }

  [[nodiscard]] std::size_t hash() const {
    return static_cast<std::size_t>(hash_value());
  }

  /// Heap bytes owned by this bitset (the word payload; excludes sizeof the
  /// object itself). The telemetry layer sums this over marking stores for
  /// the "mem.*" gauges of the run report.
  [[nodiscard]] std::size_t memory_bytes() const {
    return words_.capacity() * sizeof(Word);
  }

  /// Indices of all set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> to_indices() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for (std::size_t i = find_first(); i < size_; i = find_next(i + 1))
      out.push_back(i);
    return out;
  }

  /// "{1,4,7}" style rendering, mainly for diagnostics and tests.
  [[nodiscard]] std::string to_string() const {
    std::string s = "{";
    bool first = true;
    for (std::size_t i = find_first(); i < size_; i = find_next(i + 1)) {
      if (!first) s += ',';
      s += std::to_string(i);
      first = false;
    }
    s += '}';
    return s;
  }

 private:
  void check_index(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("Bitset index out of range");
  }
  void check_same(const Bitset& o) const {
    if (size_ != o.size_)
      throw std::invalid_argument("Bitset size mismatch: " +
                                  std::to_string(size_) + " vs " +
                                  std::to_string(o.size_));
  }

  std::size_t size_ = 0;
  std::vector<Word> words_;
};

struct BitsetHash {
  std::size_t operator()(const Bitset& b) const { return b.hash(); }
};

}  // namespace gpo::util

template <>
struct std::hash<gpo::util::Bitset> {
  std::size_t operator()(const gpo::util::Bitset& b) const noexcept {
    return b.hash();
  }
};
