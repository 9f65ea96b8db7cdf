#include "core/gpo.hpp"

#include "core/zdd_family.hpp"

namespace gpo::core {

void publish_gpo_stats(obs::MetricsRegistry& reg, std::string_view prefix,
                       const GpoResult& result) {
  std::string p(prefix);
  reg.counter(p + "states").store(result.state_count);
  reg.counter(p + "edges").store(result.edge_count);
  reg.counter(p + "multiple_steps").store(result.multiple_steps);
  reg.counter(p + "single_steps").store(result.single_steps);
  reg.counter(p + "ignoring_expansions").store(result.ignoring_expansions);
  reg.counter(p + "delegated_states").store(result.delegated_states);
  reg.gauge(p + "bailed_to_classical")
      .set(result.bailed_to_classical ? 1.0 : 0.0);
  reg.timer(p + "seconds")
      .record_ns(static_cast<std::uint64_t>(result.seconds * 1e9));
  const GpoFamilyStats& fs = result.family_stats;
  if (fs.available) {
    if (fs.backend == "interned") {
      reg.counter(p + "family_distinct").store(fs.distinct_families);
      reg.counter(p + "family_intern_calls").store(fs.intern_calls);
      reg.gauge(p + "family_dedup_ratio").set(fs.dedup_ratio);
    }
    reg.counter(p + "family_op_cache_hits").store(fs.op_cache_hits);
    reg.counter(p + "family_op_cache_misses").store(fs.op_cache_misses);
    reg.gauge(p + "family_op_cache_hit_rate").set(fs.op_cache_hit_rate);
    reg.counter(p + "family_op_cache_evictions").store(fs.op_cache_evictions);
    reg.counter(p + "family_op_cache_occupied").store(fs.op_cache_occupied);
    reg.counter(p + "family_op_cache_capacity").store(fs.op_cache_capacity);
    reg.gauge(p + "family_op_cache_occupancy")
        .set(fs.op_cache_capacity == 0
                 ? 0.0
                 : static_cast<double>(fs.op_cache_occupied) /
                       static_cast<double>(fs.op_cache_capacity));
    reg.gauge("mem." + p + "families_bytes")
        .set(static_cast<double>(fs.families_bytes));
    if (fs.backend == "zdd" || fs.backend == "bdd") {
      const std::string dd = p + fs.backend + ".";
      reg.counter(dd + "nodes")
          .store(fs.backend == "zdd" ? fs.zdd_nodes : fs.distinct_families);
      reg.counter(dd + "cache_hits").store(fs.op_cache_hits);
      reg.counter(dd + "cache_misses").store(fs.op_cache_misses);
      reg.counter(dd + "cache_evictions").store(fs.op_cache_evictions);
      for (const GpoFamilyStats::OpCacheCount& oc : fs.op_counts) {
        if (oc.hits + oc.misses == 0) continue;  // an op this run never used
        reg.counter(dd + "cache." + oc.op + ".hits").store(oc.hits);
        reg.counter(dd + "cache." + oc.op + ".misses").store(oc.misses);
      }
      reg.gauge("mem." + dd + "bytes")
          .set(static_cast<double>(fs.families_bytes));
    }
  }
}

void fill_dd_family_stats(const dd::Stats& s, const char* backend,
                          GpoFamilyStats& out) {
  out.available = true;
  out.backend = backend;
  out.op_cache_hits = s.cache_hits;
  out.op_cache_misses = s.cache_misses;
  const std::size_t total = s.cache_hits + s.cache_misses;
  out.op_cache_hit_rate = total == 0 ? 0.0
                                     : static_cast<double>(s.cache_hits) /
                                           static_cast<double>(total);
  out.op_cache_evictions = s.cache_evictions;
  out.op_cache_occupied = s.cache_occupied;
  out.op_cache_capacity = s.cache_entries;
  out.families_bytes = s.memory_bytes;
  if (out.backend == "zdd")
    out.zdd_nodes = s.nodes;
  else
    out.distinct_families = s.nodes;
  out.op_counts.clear();
  for (const dd::Stats::OpCount& oc : s.ops)
    out.op_counts.push_back({oc.op, oc.hits, oc.misses});
}

GpoResult run_gpo(const petri::PetriNet& net, FamilyKind kind,
                  const GpoOptions& options) {
  // The ZDD store replaces the family storage of the explicit/interned
  // kinds (kBdd is its own representation and keeps it).
  if (options.family_store == FamilyStore::kZdd && kind != FamilyKind::kBdd) {
    ZddFamily::Context ctx(net.transition_count());
    return GpnAnalyzer<ZddFamily>(net, ctx, options).explore();
  }
  if (kind == FamilyKind::kExplicit) {
    ExplicitFamily::Context ctx(net.transition_count());
    return GpnAnalyzer<ExplicitFamily>(net, ctx, options).explore();
  }
  if (kind == FamilyKind::kInterned) {
    InternedFamily::Context ctx(net.transition_count());
    return GpnAnalyzer<InternedFamily>(net, ctx, options).explore();
  }
  BddFamily::Context ctx(net.transition_count());
  return GpnAnalyzer<BddFamily>(net, ctx, options).explore();
}

}  // namespace gpo::core
