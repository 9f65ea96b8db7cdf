#include "bdd/zdd.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace gpo::zdd {

// Every recursion below copies a Node before recursing where a recursive call
// (or make_node) may grow the arena and invalidate table references — the
// same discipline as bdd.cpp. Terminals carry the num_vars sentinel as their
// var, so the generic var-comparison branches handle them without special
// cases beyond the identities at each entry.

Ref ZddManager::single(const util::Bitset& set) {
  // Built bottom-up (highest element first) so each node's children are
  // strictly deeper; high edges are never kEmpty, so nothing suppresses.
  Ref r = kUnit;
  std::vector<std::size_t> idx = set.to_indices();
  for (auto it = idx.rbegin(); it != idx.rend(); ++it)
    r = make_node(static_cast<Var>(*it), kEmpty, r);
  return r;
}

Ref ZddManager::from_sets(const std::vector<util::Bitset>& sets) {
  Ref r = kEmpty;
  for (const util::Bitset& s : sets) r = unite(r, single(s));
  return r;
}

Ref ZddManager::unite(Ref f, Ref g) { return unite_rec(f, g); }
Ref ZddManager::intersect(Ref f, Ref g) { return intersect_rec(f, g); }
Ref ZddManager::subtract(Ref f, Ref g) { return subtract_rec(f, g); }
Ref ZddManager::containing(Ref f, Var t) { return containing_rec(f, t); }
Ref ZddManager::product(Ref f, Ref g) { return product_rec(f, g); }

Ref ZddManager::unite_rec(Ref f, Ref g) {
  if (f == g || g == kEmpty) return f;
  if (f == kEmpty) return g;
  if (f > g) std::swap(f, g);  // commutative: canonical operand order

  Ref out;
  if (cache_.lookup(kOpUnite, f, g, 0, out)) return out;

  const Var vf = node(f).var;
  const Var vg = node(g).var;
  Ref result;
  if (vf < vg) {
    const dd::Node nf = node(f);
    Ref lo = unite_rec(nf.low, g);
    result = make_node(vf, lo, nf.high);
  } else if (vg < vf) {
    const dd::Node ng = node(g);
    Ref lo = unite_rec(f, ng.low);
    result = make_node(vg, lo, ng.high);
  } else {
    const dd::Node nf = node(f);
    const dd::Node ng = node(g);
    Ref lo = unite_rec(nf.low, ng.low);
    Ref hi = unite_rec(nf.high, ng.high);
    result = make_node(vf, lo, hi);
  }
  cache_.store(kOpUnite, f, g, 0, result);
  return result;
}

Ref ZddManager::intersect_rec(Ref f, Ref g) {
  if (f == g) return f;
  if (f == kEmpty || g == kEmpty) return kEmpty;
  if (f > g) std::swap(f, g);

  Ref out;
  if (cache_.lookup(kOpIntersect, f, g, 0, out)) return out;

  const Var vf = node(f).var;
  const Var vg = node(g).var;
  Ref result;
  if (vf < vg) {
    // Members of f containing vf cannot be in g (g never mentions vf).
    result = intersect_rec(node(f).low, g);
  } else if (vg < vf) {
    result = intersect_rec(f, node(g).low);
  } else {
    const dd::Node nf = node(f);
    const dd::Node ng = node(g);
    Ref lo = intersect_rec(nf.low, ng.low);
    Ref hi = intersect_rec(nf.high, ng.high);
    result = make_node(vf, lo, hi);
  }
  cache_.store(kOpIntersect, f, g, 0, result);
  return result;
}

Ref ZddManager::subtract_rec(Ref f, Ref g) {
  if (f == kEmpty || f == g) return kEmpty;
  if (g == kEmpty) return f;

  Ref out;
  if (cache_.lookup(kOpSubtract, f, g, 0, out)) return out;

  const Var vf = node(f).var;
  const Var vg = node(g).var;
  Ref result;
  if (vf < vg) {
    // g never mentions vf, so f's vf-containing members all survive.
    const dd::Node nf = node(f);
    Ref lo = subtract_rec(nf.low, g);
    result = make_node(vf, lo, nf.high);
  } else if (vg < vf) {
    result = subtract_rec(f, node(g).low);
  } else {
    const dd::Node nf = node(f);
    const dd::Node ng = node(g);
    Ref lo = subtract_rec(nf.low, ng.low);
    Ref hi = subtract_rec(nf.high, ng.high);
    result = make_node(vf, lo, hi);
  }
  cache_.store(kOpSubtract, f, g, 0, result);
  return result;
}

Ref ZddManager::containing_rec(Ref f, Var t) {
  if (is_terminal(f)) return kEmpty;  // no member of ∅ or {∅} contains t
  const Var vf = node(f).var;
  if (vf > t) return kEmpty;  // t can no longer appear below this level

  Ref out;
  if (cache_.lookup(kOpContaining, f, static_cast<Ref>(t), 0, out)) return out;

  Ref result;
  if (vf == t) {
    // Exactly the high branch's members, each re-tagged with t.
    result = make_node(t, kEmpty, node(f).high);
  } else {
    const dd::Node nf = node(f);
    Ref lo = containing_rec(nf.low, t);
    Ref hi = containing_rec(nf.high, t);
    result = make_node(vf, lo, hi);
  }
  cache_.store(kOpContaining, f, static_cast<Ref>(t), 0, result);
  return result;
}

Ref ZddManager::product_rec(Ref f, Ref g) {
  if (f == kEmpty || g == kEmpty) return kEmpty;
  if (f == kUnit) return g;
  if (g == kUnit) return f;
  if (f > g) std::swap(f, g);  // {S ∪ T} is commutative

  Ref out;
  if (cache_.lookup(kOpProduct, f, g, 0, out)) return out;

  const Var vf = node(f).var;
  const Var vg = node(g).var;
  Ref result;
  if (vf < vg) {
    const dd::Node nf = node(f);
    Ref lo = product_rec(nf.low, g);
    Ref hi = product_rec(nf.high, g);
    result = make_node(vf, lo, hi);
  } else if (vg < vf) {
    const dd::Node ng = node(g);
    Ref lo = product_rec(ng.low, f);
    Ref hi = product_rec(ng.high, f);
    result = make_node(vg, lo, hi);
  } else {
    // Shared top element v: a union contains v iff either side does.
    const dd::Node nf = node(f);
    const dd::Node ng = node(g);
    Ref hi = unite_rec(product_rec(nf.high, ng.high),
                       unite_rec(product_rec(nf.high, ng.low),
                                 product_rec(nf.low, ng.high)));
    Ref lo = product_rec(nf.low, ng.low);
    result = make_node(vf, lo, hi);
  }
  cache_.store(kOpProduct, f, g, 0, result);
  return result;
}

bool ZddManager::contains(Ref f, const util::Bitset& set) const {
  std::size_t pending = set.find_first();
  Ref cur = f;
  while (true) {
    if (cur == kEmpty) return false;
    if (cur == kUnit) return pending >= set.size();
    const dd::Node& n = node(cur);
    if (pending < set.size() && n.var > pending)
      return false;  // element `pending` cannot appear below this level
    if (pending < set.size() && n.var == pending) {
      cur = n.high;
      pending = set.find_next(pending + 1);
    } else {
      cur = n.low;  // n.var is not in the set: it must be absent
    }
  }
}

std::size_t ZddManager::count(Ref f) const {
  // Bottom-up over f's nodes: ascending Refs put children first.
  const std::vector<Ref> nodes = table_.reachable(f);
  std::vector<std::size_t> counts(nodes.size());
  auto count_of = [&](Ref x) -> std::size_t {
    if (x == kEmpty) return 0;
    if (x == kUnit) return 1;
    return counts[std::lower_bound(nodes.begin(), nodes.end(), x) -
                  nodes.begin()];
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const dd::Node& n = node(nodes[i]);
    std::size_t lo = count_of(n.low);
    std::size_t hi = count_of(n.high);
    counts[i] = lo > SIZE_MAX - hi ? SIZE_MAX : lo + hi;  // saturate
  }
  return count_of(f);
}

bool ZddManager::enumerate(
    Ref f, std::size_t max_count,
    const std::function<void(const util::Bitset&)>& visit) const {
  std::size_t emitted = 0;
  util::Bitset current(num_vars());
  std::function<bool(Ref)> rec = [&](Ref x) -> bool {
    if (x == kEmpty) return true;
    if (x == kUnit) {
      if (emitted++ >= max_count) return false;
      visit(current);
      return true;
    }
    const dd::Node& n = node(x);  // const walk: the arena cannot grow
    if (!rec(n.low)) return false;
    current.set(n.var);
    bool ok = rec(n.high);
    current.reset(n.var);
    return ok;
  };
  return rec(f);
}

std::size_t ZddManager::node_count(Ref f) const {
  return table_.node_count(f);
}

}  // namespace gpo::zdd
