// Shared decision-diagram kernel: the representation-independent substrate
// under both the ROBDD package (bdd.hpp) and the zero-suppressed package
// (zdd.hpp). Each manager owns one NodeTable and one ComputedCache and no
// other hash table.
//
// What is shared and what is not:
//   * NodeTable — the node arena (one flat vector of (var, low, high)
//     triples) plus the unique table that hash-conses it: a power-of-two
//     array of Refs probed linearly, compared against the arena, rehashed
//     from the arena at load ½. Both diagram kinds never free nodes and rely
//     on insert() returning one canonical Ref per structurally distinct
//     triple. The *reduction rule* is deliberately NOT here: BDDs drop
//     redundant tests (low == high ⇒ low), ZDDs drop positive-empty edges
//     (high == ∅ ⇒ low). Each manager applies its own rule in make_node
//     before asking the table for a Ref, so the table stays a pure
//     structural interner and canonicity remains the manager's invariant.
//   * ComputedCache — a lossy direct-mapped memo table for node operations
//     of up to three operands, the classical "computed table" of OBDD
//     packages. A colliding entry is overwritten (counted as an eviction);
//     recomputation after an overwrite is sound because ops are
//     deterministic functions of canonical Refs, and it creates no node
//     that the first computation did not. The table follows the node
//     table: managers call reserve(size()) after every insert, which
//     doubles it while live nodes outnumber its entries, up to kMaxEntries.
//   * DdLimitExceeded — the clean out-of-budget escape both managers throw
//     instead of exhausting memory on a pathological variable order.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/hash.hpp"

namespace gpo::dd {

using Var = std::uint32_t;
/// Index of a node in a NodeTable arena. Refs are stable for the lifetime of
/// the table and canonical under the owning manager's reduction rule:
/// equal Refs <=> equal functions/families.
using Ref = std::uint32_t;

/// The two terminal nodes every diagram kind seeds at fixed indices. Their
/// meaning is per-manager (BDD: false/true; ZDD: ∅ / {∅}).
inline constexpr Ref kTerminal0 = 0;
inline constexpr Ref kTerminal1 = 1;

inline constexpr Ref kInvalidRef = 0xFFFFFFFFu;

/// Thrown when an operation would grow a node arena past its limit.
class DdLimitExceeded : public std::runtime_error {
 public:
  DdLimitExceeded(const char* kind, std::size_t limit)
      : std::runtime_error(std::string(kind) + " node limit exceeded (" +
                           std::to_string(limit) + " nodes)"),
        limit_(limit) {}

  [[nodiscard]] std::size_t limit() const { return limit_; }

 private:
  std::size_t limit_;
};

struct Node {
  Var var;  // == num_vars for the two terminals (below every real level)
  Ref low;
  Ref high;
};

/// Hash-consed node store. Insert-only: nodes are never freed, so size() is
/// by construction the peak live size — the "peak DD-size" statistic the
/// benchmarks report — and a Ref stays valid forever. A node's children are
/// inserted before it, so they always have smaller Refs.
class NodeTable {
 public:
  /// `kind` labels DdLimitExceeded messages ("BDD"/"ZDD"); it must outlive
  /// the table (string literals do).
  NodeTable(Var num_vars, std::size_t node_limit, const char* kind)
      : num_vars_(num_vars),
        node_limit_(node_limit),
        kind_(kind),
        slots_(kInitialSlots, kInvalidRef) {
    nodes_.push_back({num_vars_, kTerminal0, kTerminal0});
    nodes_.push_back({num_vars_, kTerminal1, kTerminal1});
  }

  /// The Ref of the unique node (var, low, high), allocating it on first
  /// sight. Pure structural interning: callers apply their reduction rule
  /// *before* calling (the table never inspects low/high semantics).
  Ref insert(Var var, Ref low, Ref high) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(var, low, high, mask);
    for (Ref r; (r = slots_[i]) != kInvalidRef; i = (i + 1) & mask) {
      const Node& n = nodes_[r];
      if (n.low == low && n.high == high && n.var == var) return r;
    }
    if (nodes_.size() >= node_limit_) throw DdLimitExceeded(kind_, node_limit_);
    const Ref ref = static_cast<Ref>(nodes_.size());
    nodes_.push_back({var, low, high});
    slots_[i] = ref;
    if (2 * (nodes_.size() - 2) > slots_.size()) grow();
    return ref;
  }

  /// The reference is invalidated by the next insert() (vector growth); copy
  /// the Node before recursing, as every manager's recursion does.
  [[nodiscard]] const Node& node(Ref r) const { return nodes_[r]; }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Var num_vars() const { return num_vars_; }
  [[nodiscard]] std::size_t node_limit() const { return node_limit_; }
  /// Unique-table slots (a power of two, at least twice the interned nodes).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// Heap bytes of the arena and the unique table, the backing of the
  /// "mem.*" gauges: 12 B per arena node plus 4 B per slot.
  [[nodiscard]] std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(Node) + slots_.capacity() * sizeof(Ref);
  }

  /// The non-terminal nodes reachable from f, in ascending Ref order — so
  /// every node comes after its children, the order a bottom-up pass needs.
  [[nodiscard]] std::vector<Ref> reachable(Ref f) const {
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<Ref> out;
    std::vector<Ref> stack{f};
    while (!stack.empty()) {
      const Ref x = stack.back();
      stack.pop_back();
      if (x <= kTerminal1 || seen[x]) continue;
      seen[x] = true;
      out.push_back(x);
      stack.push_back(nodes_[x].low);
      stack.push_back(nodes_[x].high);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Number of distinct nodes in f, terminals included.
  [[nodiscard]] std::size_t node_count(Ref f) const {
    const std::vector<Ref> inner = reachable(f);
    bool saw0 = f == kTerminal0, saw1 = f == kTerminal1;
    for (Ref x : inner)
      for (Ref child : {nodes_[x].low, nodes_[x].high}) {
        saw0 = saw0 || child == kTerminal0;
        saw1 = saw1 || child == kTerminal1;
      }
    return inner.size() + (saw0 ? 1 : 0) + (saw1 ? 1 : 0);
  }

 private:
  static constexpr std::size_t kInitialSlots = std::size_t{1} << 10;

  [[nodiscard]] static std::size_t slot_of(Var var, Ref low, Ref high,
                                           std::size_t mask) {
    return static_cast<std::size_t>(util::mix64(
               ((std::uint64_t{low} << 32) | high) ^
               (std::uint64_t{var} * 0x9E3779B97F4A7C15ull))) &
           mask;
  }

  /// Doubles the slot array and re-places every interned node from the
  /// arena (the old slots carry nothing the arena does not).
  void grow() {
    slots_.assign(slots_.size() * 2, kInvalidRef);
    const std::size_t mask = slots_.size() - 1;
    for (Ref r = kTerminal1 + 1; r < nodes_.size(); ++r) {
      const Node& n = nodes_[r];
      std::size_t i = slot_of(n.var, n.low, n.high, mask);
      while (slots_[i] != kInvalidRef) i = (i + 1) & mask;
      slots_[i] = r;
    }
  }

  Var num_vars_;
  std::size_t node_limit_;
  const char* kind_;
  std::vector<Node> nodes_;
  std::vector<Ref> slots_;  // kInvalidRef == empty
};

/// Direct-mapped computed table for (op, a, b, c) -> result memoization. The
/// counters decompose the miss stream: `evictions` counts colliding
/// overwrites (capacity misses), so hit-rate shortfalls can be attributed to
/// cache size vs. compulsory first-sight misses.
class ComputedCache {
 public:
  /// Distinct op kinds the per-op breakdown tracks; op codes are folded
  /// into this range (managers use small contiguous enums, so in practice
  /// the mapping is the identity).
  static constexpr std::size_t kOpKinds = 8;
  static constexpr std::size_t kMinEntries = std::size_t{1} << 12;
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 22;

  ComputedCache() : slots_(kMinEntries) {}

  [[nodiscard]] bool lookup(std::uint8_t op, Ref a, Ref b, Ref c, Ref& out) {
    const Entry& e = slots_[index(op, a, b, c)];
    if (e.a == a && e.b == b && e.c == c && e.op == op) {
      ++hits_;
      ++op_hits_[op & (kOpKinds - 1)];
      out = e.result;
      return true;
    }
    ++misses_;
    ++op_misses_[op & (kOpKinds - 1)];
    return false;
  }

  void store(std::uint8_t op, Ref a, Ref b, Ref c, Ref result) {
    Entry& e = slots_[index(op, a, b, c)];
    if (e.a == kInvalidRef)
      ++occupied_;
    else if (e.a != a || e.b != b || e.c != c || e.op != op)
      ++evictions_;
    e = {a, b, c, result, op};
  }

  /// Sizes the table for `live_nodes`: doubles it while the nodes outnumber
  /// the entries, up to kMaxEntries. Every entry stays where lookup() finds
  /// it: doubling the mask sends old slot i to i or i + old size, so no two
  /// entries collide on the way.
  void reserve(std::size_t live_nodes) {
    if (live_nodes > slots_.size() && slots_.size() < kMaxEntries)
      grow(live_nodes);
  }

  /// Forgets every entry (the counters keep their totals).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Entry{});
    occupied_ = 0;
  }

  [[nodiscard]] std::size_t entries() const { return slots_.size(); }
  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }
  /// Per-op-kind decomposition of the hit/miss streams (op folded mod
  /// kOpKinds); sums to hits()/misses().
  [[nodiscard]] std::size_t op_hits(std::uint8_t op) const {
    return op_hits_[op & (kOpKinds - 1)];
  }
  [[nodiscard]] std::size_t op_misses(std::uint8_t op) const {
    return op_misses_[op & (kOpKinds - 1)];
  }
  [[nodiscard]] std::size_t evictions() const { return evictions_; }
  [[nodiscard]] std::size_t occupied() const { return occupied_; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Entry);
  }

 private:
  struct Entry {
    Ref a = kInvalidRef;  // kInvalidRef marks a never-written slot
    Ref b = 0;
    Ref c = 0;
    Ref result = 0;
    std::uint8_t op = 0;
  };

  [[nodiscard]] std::size_t index(std::uint8_t op, Ref a, Ref b,
                                  Ref c) const {
    return static_cast<std::size_t>(util::mix64(
               ((std::uint64_t{a} << 32) | b) ^
               (((std::uint64_t{c} << 8) | op) * 0x9E3779B97F4A7C15ull))) &
           (slots_.size() - 1);
  }

  void grow(std::size_t live_nodes) {
    std::size_t entries = slots_.size();
    while (entries < live_nodes && entries < kMaxEntries) entries <<= 1;
    std::vector<Entry> old(entries);
    old.swap(slots_);
    for (const Entry& e : old)
      if (e.a != kInvalidRef) slots_[index(e.op, e.a, e.b, e.c)] = e;
  }

  std::vector<Entry> slots_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
  std::size_t occupied_ = 0;
  std::array<std::size_t, kOpKinds> op_hits_{};
  std::array<std::size_t, kOpKinds> op_misses_{};
};

/// Counters of one manager's node table and computed cache, the source of
/// the per-backend family stats and the *.cache_* gauges.
struct Stats {
  struct OpCount {
    const char* op = "";
    std::size_t hits = 0;
    std::size_t misses = 0;
  };

  std::size_t nodes = 0;  ///< arena size == peak live nodes (no GC)
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  std::size_t cache_occupied = 0;
  std::size_t cache_entries = 0;
  std::size_t memory_bytes = 0;  ///< arena + unique table + computed table
  /// Per-op decomposition of the hit/miss streams, in the manager's op
  /// order; sums to cache_hits/cache_misses.
  std::vector<OpCount> ops;
};

/// Snapshot of `table` and `cache`; `op_names[i]` names the manager's op
/// code i.
[[nodiscard]] inline Stats collect_stats(const NodeTable& table,
                                         const ComputedCache& cache,
                                         std::span<const char* const> op_names) {
  Stats s;
  s.nodes = table.size();
  s.cache_hits = cache.hits();
  s.cache_misses = cache.misses();
  s.cache_evictions = cache.evictions();
  s.cache_occupied = cache.occupied();
  s.cache_entries = cache.entries();
  s.memory_bytes = table.memory_bytes() + cache.memory_bytes();
  for (std::size_t op = 0; op < op_names.size(); ++op) {
    const auto code = static_cast<std::uint8_t>(op);
    s.ops.push_back({op_names[op], cache.op_hits(code), cache.op_misses(code)});
  }
  return s;
}

}  // namespace gpo::dd
