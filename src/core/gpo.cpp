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
    reg.counter(p + "family_distinct").store(fs.distinct_families);
    reg.counter(p + "family_intern_calls").store(fs.intern_calls);
    reg.gauge(p + "family_dedup_ratio").set(fs.dedup_ratio);
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
    if (fs.backend == "zdd") {
      reg.counter(p + "zdd.nodes").store(fs.zdd_nodes);
      reg.counter(p + "zdd.cache_hits").store(fs.op_cache_hits);
      reg.counter(p + "zdd.cache_misses").store(fs.op_cache_misses);
      reg.counter(p + "zdd.cache_evictions").store(fs.op_cache_evictions);
      for (const GpoFamilyStats::OpCacheCount& oc : fs.zdd_op_counts) {
        reg.counter(p + "zdd.cache." + oc.op + ".hits").store(oc.hits);
        reg.counter(p + "zdd.cache." + oc.op + ".misses").store(oc.misses);
      }
      reg.gauge("mem." + p + "zdd.bytes")
          .set(static_cast<double>(fs.families_bytes));
    }
  }
}

GpoFamilyStats family_stats_from_registry(const obs::MetricsRegistry& reg,
                                          std::string_view prefix) {
  std::string p(prefix);
  GpoFamilyStats fs;
  auto distinct = reg.value(p + "family_distinct");
  if (!distinct) return fs;
  auto get = [&](const std::string& name) {
    return reg.value(p + name).value_or(0.0);
  };
  fs.available = true;
  fs.distinct_families = static_cast<std::size_t>(*distinct);
  fs.intern_calls = static_cast<std::size_t>(get("family_intern_calls"));
  fs.dedup_ratio = get("family_dedup_ratio");
  fs.op_cache_hits = static_cast<std::size_t>(get("family_op_cache_hits"));
  fs.op_cache_misses =
      static_cast<std::size_t>(get("family_op_cache_misses"));
  fs.op_cache_hit_rate = get("family_op_cache_hit_rate");
  fs.op_cache_evictions =
      static_cast<std::size_t>(get("family_op_cache_evictions"));
  fs.op_cache_occupied =
      static_cast<std::size_t>(get("family_op_cache_occupied"));
  fs.op_cache_capacity =
      static_cast<std::size_t>(get("family_op_cache_capacity"));
  fs.families_bytes = static_cast<std::size_t>(
      reg.value("mem." + p + "families_bytes").value_or(0.0));
  if (auto zdd_nodes = reg.value(p + "zdd.nodes")) {
    fs.backend = "zdd";
    fs.zdd_nodes = static_cast<std::size_t>(*zdd_nodes);
    for (const char* op : zdd::ZddStats::kOpNames) {
      GpoFamilyStats::OpCacheCount oc;
      oc.op = op;
      oc.hits = static_cast<std::size_t>(
          get(std::string("zdd.cache.") + op + ".hits"));
      oc.misses = static_cast<std::size_t>(
          get(std::string("zdd.cache.") + op + ".misses"));
      fs.zdd_op_counts.push_back(std::move(oc));
    }
  } else {
    fs.backend = "interned";
  }
  return fs;
}

namespace {

/// Rewrites an engine result produced on a reduced net back into terms of
/// the original: the counterexample is expanded through the certificate and
/// replayed on `original` (the acceptance oracle; the replayed end marking
/// becomes the witness). A witness marking without a counterexample (a
/// delegated classical search found the deadlock) cannot be expressed in
/// original-net places and is dropped — the verdict stands on the
/// certificate's verdict-preservation argument alone.
void map_reduced_result(const petri::PetriNet& original,
                        const reduce::ReductionCertificate& cert,
                        GpoResult& result) {
  util::Bitset fireable(original.transition_count());
  for (std::size_t t = result.fireable_transitions.find_first();
       t < result.fireable_transitions.size();
       t = result.fireable_transitions.find_next(t + 1))
    for (petri::TransitionId o :
         cert.map_to_original({static_cast<petri::TransitionId>(t)}))
      fireable.set(o);
  result.fireable_transitions = std::move(fireable);
  if (!result.deadlock_found) return;
  if (result.counterexample.empty()) {
    result.deadlock_witness.reset();
    return;
  }
  result.counterexample = cert.map_to_original(result.counterexample);
  std::optional<petri::Marking> end =
      reduce::replay_trace(original, result.counterexample);
  result.witness_is_dead = end.has_value() && original.is_deadlocked(*end);
  if (result.witness_is_dead)
    result.deadlock_witness = std::move(*end);
  else
    result.deadlock_witness.reset();
}

}  // namespace

GpoResult run_gpo(const petri::PetriNet& net, FamilyKind kind,
                  const GpoOptions& options) {
  if (options.reduce_level != reduce::ReduceLevel::kOff &&
      !options.required_witness_place.has_value()) {
    reduce::ReduceOptions ro;
    ro.level = options.reduce_level;
    ro.metrics = options.metrics;
    ro.metrics_prefix = options.metrics_prefix + "reduce.";
    ro.tracer = options.tracer;
    reduce::ReductionResult red = reduce::reduce_net(net, ro);
    GpoOptions inner = options;
    inner.reduce_level = reduce::ReduceLevel::kOff;
    GpoResult result = run_gpo(red.net, kind, inner);
    map_reduced_result(net, red.certificate, result);
    return result;
  }
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
