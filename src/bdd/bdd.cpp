#include "bdd/bdd.hpp"

#include <algorithm>
#include <cmath>

namespace gpo::bdd {

BddManager::BddManager(Var num_vars, std::size_t node_limit)
    : table_(num_vars, node_limit, "BDD") {}

Ref BddManager::make_node(Var var, Ref low, Ref high) {
  if (low == high) return low;  // redundant-test elimination
  const Ref r = table_.insert(var, low, high);
  cache_.reserve(table_.size());
  return r;
}

Ref BddManager::var(Var v) { return make_node(v, kFalse, kTrue); }
Ref BddManager::nvar(Var v) { return make_node(v, kTrue, kFalse); }

Ref BddManager::ite(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  Ref out;
  if (cache_.lookup(kOpIte, f, g, h, out)) return out;

  Var top = node(f).var;
  top = std::min(top, node(g).var);
  top = std::min(top, node(h).var);

  auto cof = [&](Ref x, bool hi) -> Ref {
    if (node(x).var != top) return x;
    return hi ? node(x).high : node(x).low;
  };

  Ref lo = ite(cof(f, false), cof(g, false), cof(h, false));
  Ref hi = ite(cof(f, true), cof(g, true), cof(h, true));
  Ref result = make_node(top, lo, hi);
  cache_.store(kOpIte, f, g, h, result);
  return result;
}

Ref BddManager::cube(const std::vector<Var>& vars) {
  std::vector<Var> sorted = vars;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  Ref c = kTrue;
  for (Var v : sorted) c = make_node(v, kFalse, c);
  return c;
}

Ref BddManager::exists(Ref f, Ref cube) {
  return exists_rec(f, cube, /*universal=*/false);
}

Ref BddManager::forall(Ref f, Ref cube) {
  return exists_rec(f, cube, /*universal=*/true);
}

Ref BddManager::exists_rec(Ref f, Ref cube, bool universal) {
  if (is_terminal(f)) return f;
  // Skip quantified variables above f's top level: they don't constrain f.
  while (!is_terminal(cube) && node(cube).var < node(f).var)
    cube = node(cube).high;
  if (cube == kTrue) return f;

  const Op op = universal ? kOpForall : kOpExists;
  Ref out;
  if (cache_.lookup(op, f, cube, 0, out)) return out;

  // Copy: recursion below may grow the node arena and invalidate references.
  const dd::Node n = node(f);
  Ref result;
  if (n.var == node(cube).var) {
    Ref lo = exists_rec(n.low, node(cube).high, universal);
    Ref hi = exists_rec(n.high, node(cube).high, universal);
    result = universal ? apply_and(lo, hi) : apply_or(lo, hi);
  } else {
    Ref lo = exists_rec(n.low, cube, universal);
    Ref hi = exists_rec(n.high, cube, universal);
    result = make_node(n.var, lo, hi);
  }
  cache_.store(op, f, cube, 0, result);
  return result;
}

Ref BddManager::and_exists(Ref f, Ref g, Ref cube) {
  if (f == kFalse || g == kFalse) return kFalse;
  if (cube == kTrue) return apply_and(f, g);
  if (f == kTrue && g == kTrue) return kTrue;

  const Ref key_cube = cube;
  Ref out;
  if (cache_.lookup(kOpAndExists, f, g, key_cube, out)) return out;

  Var top = std::min(node(f).var, node(g).var);
  // Quantified variables above both supports contribute nothing.
  while (!is_terminal(cube) && node(cube).var < top)
    cube = node(cube).high;
  if (cube == kTrue) {
    Ref r = apply_and(f, g);
    cache_.store(kOpAndExists, f, g, key_cube, r);
    return r;
  }

  auto cof = [&](Ref x, bool hi) -> Ref {
    if (node(x).var != top) return x;
    return hi ? node(x).high : node(x).low;
  };

  Ref result;
  if (node(cube).var == top) {
    Ref inner = node(cube).high;
    Ref lo = and_exists(cof(f, false), cof(g, false), inner);
    if (lo == kTrue) {
      result = kTrue;  // short-circuit: ∨ with anything is true
    } else {
      Ref hi = and_exists(cof(f, true), cof(g, true), inner);
      result = apply_or(lo, hi);
    }
  } else {
    Ref lo = and_exists(cof(f, false), cof(g, false), cube);
    Ref hi = and_exists(cof(f, true), cof(g, true), cube);
    result = make_node(top, lo, hi);
  }
  cache_.store(kOpAndExists, f, g, key_cube, result);
  return result;
}

Ref BddManager::rename(Ref f, const std::vector<Var>& map) {
  // Monotonicity check over the support keeps the recursion order-safe.
  std::vector<Var> sup = support(f);
  for (std::size_t i = 1; i < sup.size(); ++i) {
    if (map[sup[i - 1]] >= map[sup[i]])
      throw std::invalid_argument(
          "BddManager::rename: map is not strictly monotone on support");
  }
  // A fresh epoch per call; should the counter wrap, entries of the calls
  // that used the same epoch 2^32 calls ago must not match, so they go.
  if (++rename_epoch_ == 0) cache_.clear();
  return rename_rec(f, map);
}

Ref BddManager::rename_rec(Ref f, const std::vector<Var>& map) {
  if (is_terminal(f)) return f;
  Ref out;
  if (cache_.lookup(kOpRename, f, rename_epoch_, 0, out)) return out;
  // Copy: recursion below may grow the node arena and invalidate references.
  const dd::Node n = node(f);
  Ref lo = rename_rec(n.low, map);
  Ref hi = rename_rec(n.high, map);
  Ref result = make_node(map[n.var], lo, hi);
  cache_.store(kOpRename, f, rename_epoch_, 0, result);
  return result;
}

Ref BddManager::restrict_var(Ref f, Var v, bool value) {
  if (is_terminal(f) || node(f).var > v) return f;
  if (node(f).var == v) return value ? node(f).high : node(f).low;
  // f's top var is above v: rebuild.
  Ref out;
  if (cache_.lookup(kOpRestrict, f, v, value, out)) return out;
  // Copy: the recursive calls below may grow the arena.
  const dd::Node n = node(f);
  Ref lo = restrict_var(n.low, v, value);
  Ref hi = restrict_var(n.high, v, value);
  Ref result = make_node(n.var, lo, hi);
  cache_.store(kOpRestrict, f, v, value, result);
  return result;
}

double BddManager::sat_count(Ref f, const std::vector<Var>& counted_vars) {
  std::vector<Var> sorted = counted_vars;
  std::sort(sorted.begin(), sorted.end());
  const Var nv = num_vars();
  // position[v] = index of v in the counted list; num_vars sentinel if absent.
  std::vector<std::uint32_t> position(nv + 1, static_cast<std::uint32_t>(-1));
  for (std::size_t i = 0; i < sorted.size(); ++i) position[sorted[i]] = i;
  position[nv] = static_cast<std::uint32_t>(sorted.size());

  // Bottom-up over f's nodes: ascending Refs put children first.
  const std::vector<Ref> nodes = table_.reachable(f);
  std::vector<double> counts(nodes.size());
  auto count_of = [&](Ref x) -> double {
    if (x == kFalse) return 0.0;
    if (x == kTrue) return 1.0;
    return counts[std::lower_bound(nodes.begin(), nodes.end(), x) -
                  nodes.begin()];
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const dd::Node& n = node(nodes[i]);
    if (position[n.var] == static_cast<std::uint32_t>(-1))
      throw std::invalid_argument(
          "sat_count: support not contained in counted variables");
    auto weight = [&](Ref child) {
      // Levels skipped between the node and child double the count each.
      std::uint32_t from = position[n.var] + 1;
      std::uint32_t to = position[node(child).var];
      return count_of(child) * std::pow(2.0, static_cast<double>(to - from));
    };
    counts[i] = weight(n.low) + weight(n.high);
  }
  double top_skip = static_cast<double>(position[node(f).var]);
  return count_of(f) * std::pow(2.0, top_skip);
}

util::Bitset BddManager::pick_one_sat(Ref f) {
  if (f == kFalse)
    throw std::invalid_argument("pick_one_sat: function is false");
  util::Bitset assignment(num_vars());
  Ref cur = f;
  while (!is_terminal(cur)) {
    const dd::Node& n = node(cur);
    if (n.low != kFalse) {
      cur = n.low;
    } else {
      assignment.set(n.var);
      cur = n.high;
    }
  }
  return assignment;
}

bool BddManager::enumerate_sats(
    Ref f, const std::vector<Var>& universe_vars, std::size_t max_count,
    const std::function<void(const util::Bitset&)>& visit) {
  std::vector<Var> sorted = universe_vars;
  std::sort(sorted.begin(), sorted.end());
  for (Var v : support(f))
    if (!std::binary_search(sorted.begin(), sorted.end(), v))
      throw std::invalid_argument(
          "enumerate_sats: support not contained in universe");

  std::size_t emitted = 0;
  util::Bitset assignment(num_vars());
  // Depth-first over the universe variables, expanding don't-cares.
  std::function<bool(Ref, std::size_t)> rec = [&](Ref x,
                                                  std::size_t depth) -> bool {
    if (x == kFalse) return true;
    if (depth == sorted.size()) {
      if (emitted++ >= max_count) return false;
      visit(assignment);
      return true;
    }
    Var v = sorted[depth];
    Ref lo = x, hi = x;
    if (!is_terminal(x) && node(x).var == v) {
      lo = node(x).low;
      hi = node(x).high;
    }
    assignment.reset(v);
    if (!rec(lo, depth + 1)) return false;
    assignment.set(v);
    if (!rec(hi, depth + 1)) return false;
    assignment.reset(v);
    return true;
  };
  return rec(f, 0);
}

std::vector<Var> BddManager::support(Ref f) const {
  std::vector<bool> in_support(num_vars(), false);
  for (Ref x : table_.reachable(f)) in_support[node(x).var] = true;
  std::vector<Var> out;
  for (Var v = 0; v < num_vars(); ++v)
    if (in_support[v]) out.push_back(v);
  return out;
}

std::size_t BddManager::node_count(Ref f) const {
  return table_.node_count(f);
}

}  // namespace gpo::bdd
