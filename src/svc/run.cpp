#include "svc/run.hpp"

#include <sstream>
#include <utility>

#include "core/cache_handle.hpp"
#include "core/fault_aware.hpp"
#include "core/strategy.hpp"
#include "graph/factory.hpp"
#include "graph/quotient.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "topo/components.hpp"

namespace topomap::svc {

namespace {

/// The request's strategy wired to the machine: a fresh CacheHandle,
/// pre-seeded with the pooled distance plane when the machine has one, so
/// every stage of the composition hits the shared fill instead of
/// rebuilding O(p^2) state.  Without a plane this is core::make_strategy.
core::StrategyPtr make_pooled_strategy(const std::string& spec,
                                       const MachineEntry& machine) {
  auto handle = std::make_shared<core::CacheHandle>();
  const topo::Topology& topo = machine.machine();
  if (machine.plane && machine.plane->size() == topo.size())
    handle->seed(topo, machine.plane);
  return core::make_strategy_with_handle(spec, handle);
}

/// On a healthy machine, square strategies need one task per processor;
/// the oversubscribing ones (hier) also take more tasks than processors.
/// (A faulted machine maps onto its alive subset, which checks its own.)
void require_square_or_oversub(const graph::TaskGraph& g,
                               const MachineEntry& machine,
                               const core::MappingStrategy& strategy) {
  if (machine.overlay) return;
  const topo::Topology& topo = *machine.base;
  if (g.num_vertices() != topo.size() &&
      !(strategy.supports_oversubscription() &&
        g.num_vertices() > topo.size()))
    throw usage_error(
        "workload has " + std::to_string(g.num_vertices()) +
        " tasks but the machine has " + std::to_string(topo.size()) +
        " processors; use `topomap pipeline` or strategy `hier` when tasks "
        "> procs");
}

/// `strategy` on the machine's alive processors — every processor of a
/// healthy machine.
core::Mapping map_on_machine(const core::MappingStrategy& strategy,
                             const graph::TaskGraph& g,
                             const MachineEntry& machine, Rng& rng) {
  return machine.overlay ? core::map_on_alive(strategy, g, *machine.overlay,
                                              rng)
                         : strategy.map(g, *machine.base, rng);
}

json::Value fault_summary(const topo::FaultOverlay& overlay) {
  json::Value v = json::Value::object();
  v.set("failed_nodes", overlay.num_failed_nodes());
  v.set("failed_links", overlay.num_failed_links());
  v.set("degraded_links", overlay.num_degraded_links());
  v.set("alive", overlay.num_alive());
  v.set("size", overlay.size());
  return v;
}

}  // namespace

std::string mapping_bytes(const core::Mapping& m) {
  std::ostringstream os;
  for (std::size_t t = 0; t < m.size(); ++t)
    if (m[t] != core::kUnassigned) os << t << ' ' << m[t] << '\n';
  return os.str();
}

MappingMetrics measure(const graph::TaskGraph& g, const topo::Topology& topo,
                       const core::Mapping& m) {
  MappingMetrics out;
  out.hop_bytes = core::hop_bytes(g, topo, m);
  out.hops_per_byte = core::hops_per_byte(g, topo, m);
  try {
    out.link_loads = core::link_loads(g, topo, m);
  } catch (const precondition_error&) {
    out.link_loads.reset();  // distance-model-only machine
  }
  return out;
}

MapResult run_map(const Request& req, const MachineSource& acquire) {
  MapResult r;
  Rng rng(req.seed);
  r.graph = graph::make_task_graph(req.tasks, rng);
  r.machine = acquire(req.topology, req.fault_spec());
  const MachineEntry& machine = *r.machine;
  const graph::TaskGraph& g = r.graph;
  const core::StrategyPtr strategy =
      make_pooled_strategy(req.strategy, machine);
  r.strategy = strategy->name();

  const topo::ComponentSplit split =
      machine.overlay ? topo::connected_components(*machine.overlay)
                      : topo::ComponentSplit{};
  if (machine.overlay && split.partitioned() &&
      g.num_vertices() > static_cast<int>(split.primary().size())) {
    // The faults split the machine and the primary component is too
    // small: map what fits there, quarantine the lightest communicators.
    core::PartitionedMapResult pr =
        core::map_on_largest_component(*strategy, g, *machine.overlay, rng);
    r.mapping = std::move(pr.mapping);
    r.quarantined = std::move(pr.quarantined);
    r.partition_note = topo::describe_partition(*machine.overlay, split);
  } else {
    require_square_or_oversub(g, machine, *strategy);
    r.mapping = map_on_machine(*strategy, g, machine, rng);
  }

  if (r.quarantined.empty()) {
    r.metrics = measure(g, machine.machine(), r.mapping);
  } else {
    std::vector<int> placed_ids;
    core::Mapping placed_m;
    for (int t = 0; t < g.num_vertices(); ++t) {
      const int p = r.mapping[static_cast<std::size_t>(t)];
      if (p == core::kUnassigned) continue;
      placed_ids.push_back(t);
      placed_m.push_back(p);
    }
    const graph::Subgraph placed = graph::induced_subgraph(g, placed_ids);
    r.metrics = measure(placed.graph, machine.machine(), placed_m);
  }
  return r;
}

ExplainResult run_explain(const Request& req, const MachineSource& acquire) {
  ExplainResult r;
  Rng rng(req.seed);
  r.graph = graph::make_task_graph(req.tasks, rng);
  r.machine = acquire(req.topology, req.fault_spec());
  const MachineEntry& machine = *r.machine;
  const graph::TaskGraph& g = r.graph;
  const core::StrategyPtr strategy =
      make_pooled_strategy(req.strategy, machine);
  r.strategy = strategy->name();

  const bool diffed = !req.baseline.empty();
  if (req.baseline_blind && !diffed)
    throw usage_error("baseline_blind needs a baseline strategy");
  if (req.baseline_blind && machine.overlay &&
      (machine.overlay->num_failed_nodes() > 0 ||
       machine.overlay->num_failed_links() > 0))
    throw usage_error(
        "baseline_blind supports soft faults only (a blind mapping may land "
        "on failed processors)");

  require_square_or_oversub(g, machine, *strategy);
  r.mapping = map_on_machine(*strategy, g, machine, rng);
  core::Mapping baseline_m;
  if (diffed) {
    const core::StrategyPtr baseline_strategy =
        make_pooled_strategy(req.baseline, machine);
    Rng baseline_rng(req.seed);
    // Blind (or no faults): mapped on the pristine machine, evaluated on
    // the actual one.
    const topo::FaultOverlay healthy(machine.base);
    const bool on_faults = machine.overlay && !req.baseline_blind;
    baseline_m = core::map_on_alive(
        *baseline_strategy, g, on_faults ? *machine.overlay : healthy,
        baseline_rng);
  }

  const topo::Topology& topo = machine.machine();
  try {
    r.attribution = core::attribute_link_loads(g, topo, r.mapping);
  } catch (const precondition_error& e) {
    throw usage_error(
        std::string(
            "this machine has no processor-level routes to attribute (") +
        e.what() + ")");
  }
  r.hop_bytes = core::hop_bytes(g, topo, r.mapping);
  if (diffed) {
    r.baseline = core::attribute_link_loads(g, topo, baseline_m);
    r.diff = core::diff_contention(*r.baseline, r.attribution);
  }
  return r;
}

EvacuateResult run_evacuate(const Request& req,
                            const MachineSource& acquire) {
  const topo::FaultSpec faults = req.fault_spec();
  if (faults.empty())
    throw usage_error(
        "evacuate needs at least one fault (fail_link/fail_node/"
        "degrade_link/random_*)");
  EvacuateResult r;
  Rng rng(req.seed);
  r.graph = graph::make_task_graph(req.tasks, rng);
  r.machine = acquire(req.topology, faults);
  const MachineEntry& machine = *r.machine;
  const graph::TaskGraph& g = r.graph;
  const core::StrategyPtr strategy =
      make_pooled_strategy(req.strategy, machine);
  r.strategy = strategy->name();

  // Map on the healthy machine first: the faults strike a running job.
  topo::FaultOverlay healthy(machine.base);
  rts::EvacuateOptions options;
  options.refine_passes = req.refine_passes;
  options.load_weight = req.load_weight;
  const core::Mapping before = core::map_on_alive(*strategy, g, healthy, rng);
  r.hop_bytes_before = core::hop_bytes(g, *machine.base, before);
  r.comparison = rts::compare_evacuate_vs_remap(g, *machine.overlay, before,
                                                *strategy, rng, options);
  const rts::EvacuateComparison& cmp = r.comparison;
  r.hop_bytes_ratio = cmp.full_hop_bytes > 0.0
                          ? cmp.evac.hop_bytes / cmp.full_hop_bytes
                          : 1.0;
  return r;
}

OptimalResult run_optimal(const Request& req, const MachineSource& acquire) {
  OptimalResult r;
  Rng rng(req.seed);
  r.graph = graph::make_task_graph(req.tasks, rng);
  r.machine = acquire(req.topology, req.fault_spec());
  const MachineEntry& machine = *r.machine;
  const graph::TaskGraph& g = r.graph;
  const topo::Topology& topo = machine.machine();

  core::OptimalOptions options;
  options.node_budget = req.budget;
  options.symmetry = !req.no_symmetry;
  r.optimal = core::find_optimal_mapping(g, topo, options);
  if (!req.compare.empty()) {
    const core::StrategyPtr strategy =
        make_pooled_strategy(req.compare, machine);
    Rng compare_rng(req.seed);
    const core::Mapping cm = map_on_machine(*strategy, g, machine, compare_rng);
    OptimalResult::Compare c;
    c.strategy = strategy->name();
    c.hop_bytes = core::hop_bytes(g, topo, cm);
    c.optimality_gap =
        r.optimal.hop_bytes > 0.0 ? c.hop_bytes / r.optimal.hop_bytes : 1.0;
    r.compare = std::move(c);
  }
  return r;
}

json::Value to_json(MapResult r, const Request&) {
  const graph::TaskGraph& g = r.graph;
  json::Value result = json::Value::object();
  result.set("workload", g.label());
  result.set("edges", g.num_edges());
  result.set("comm_bytes", g.total_comm_bytes());
  result.set("machine", r.machine->base->name());
  result.set("strategy", r.strategy);
  if (r.machine->overlay)
    result.set("faults", fault_summary(*r.machine->overlay));
  if (!r.partition_note.empty()) {
    result.set("partition", r.partition_note);
    json::Value q = json::Value::array();
    for (int t : r.quarantined) q.push_back(t);
    result.set("quarantined", std::move(q));
  }
  result.set("hop_bytes", r.metrics.hop_bytes);
  result.set("hops_per_byte", r.metrics.hops_per_byte);
  json::Value ll;  // null: no processor-level routes
  if (const auto& links = r.metrics.link_loads) {
    ll = json::Value::object();
    ll.set("max_bytes", links->max_bytes);
    ll.set("mean_bytes", links->mean_bytes);
    ll.set("links_used", links->links_used);
    ll.set("links_total", links->links_total);
  }
  result.set("link_loads", std::move(ll));
  result.set("mapping", mapping_bytes(r.mapping));
  return result;
}

json::Value to_json(ExplainResult r, const Request& req) {
  json::Value result = json::Value::object();
  result.set("workload", r.graph.label());
  result.set("machine", r.machine->base->name());
  result.set("strategy", r.strategy);
  if (r.machine->overlay)
    result.set("faults", fault_summary(*r.machine->overlay));
  result.set("hop_bytes", r.hop_bytes);
  result.set("stats", core::contention_stats_to_json(r.attribution.stats));
  result.set("links",
             core::contention_links_to_json(r.attribution, req.top_k));
  if (r.baseline) {
    json::Value b = json::Value::object();
    b.set("strategy", req.baseline);
    b.set("blind", req.baseline_blind);
    b.set("stats", core::contention_stats_to_json(r.baseline->stats));
    result.set("baseline", std::move(b));
    result.set("diff", core::contention_diff_to_json(r.diff, req.top_k));
  }
  result.set("mapping", mapping_bytes(r.mapping));
  return result;
}

json::Value to_json(EvacuateResult r, const Request&) {
  const rts::EvacuateComparison& cmp = r.comparison;
  json::Value result = json::Value::object();
  result.set("workload", r.graph.label());
  result.set("machine", r.machine->base->name());
  result.set("strategy", r.strategy);
  result.set("faults", fault_summary(*r.machine->overlay));
  result.set("hop_bytes_before", r.hop_bytes_before);
  json::Value evac = json::Value::object();
  evac.set("stranded", cmp.evac.stranded);
  evac.set("migrations", cmp.evac.migrations);
  evac.set("refine_swaps", cmp.evac.refine_swaps);
  evac.set("hop_bytes", cmp.evac.hop_bytes);
  evac.set("load_imbalance", cmp.evac.load_imbalance);
  result.set("evacuate", std::move(evac));
  json::Value full = json::Value::object();
  full.set("migrations", cmp.full_migrations);
  full.set("hop_bytes", cmp.full_hop_bytes);
  result.set("full_remap", std::move(full));
  result.set("hop_bytes_ratio", r.hop_bytes_ratio);
  result.set("mapping", mapping_bytes(cmp.evac.mapping));
  return result;
}

json::Value to_json(OptimalResult r, const Request&) {
  json::Value result = json::Value::object();
  result.set("workload", r.graph.label());
  result.set("machine", r.machine->machine().name());
  if (r.machine->overlay)
    result.set("faults", fault_summary(*r.machine->overlay));
  result.set("hop_bytes", r.optimal.hop_bytes);
  result.set("nodes", static_cast<std::int64_t>(r.optimal.nodes));
  result.set("pruned", static_cast<std::int64_t>(r.optimal.pruned));
  result.set("root_candidates", r.optimal.root_candidates);
  if (r.compare) {
    json::Value cmp = json::Value::object();
    cmp.set("strategy", r.compare->strategy);
    cmp.set("hop_bytes", r.compare->hop_bytes);
    cmp.set("optimality_gap", r.compare->optimality_gap);
    result.set("compare", std::move(cmp));
  }
  result.set("mapping", mapping_bytes(r.optimal.mapping));
  return result;
}

}  // namespace topomap::svc
