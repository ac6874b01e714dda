// svc::run_* — the one execution path per mapping request kind.
//
// Each kind's policy — which machine view a strategy maps onto (the alive
// processors; the largest component, quarantining the lightest
// communicators, when faults split the machine; the pristine machine for
// a blind baseline or for the job the faults strike), which requests are
// usage mistakes, what gets measured — lives here only.  svc::Service runs
// these functions on the pool's machines, whose shared plane seeds every
// strategy, and serializes the result with to_json; the one-shot `topomap`
// commands run them on plane-less make_machine() entries (each strategy
// then builds its own cache, as core::make_strategy does) and print it.
//
// Determinism: each run draws from Rng(req.seed), task-graph generation
// first, then mapping; explain's baseline and optimal's compare draw from
// their own fresh Rng(req.seed).  The plane changes no byte.  The machine
// is fetched after the graph is built: fetched first, the topology shifts
// the heap layout of a 20^3 `hier` map enough to raise its peak RSS by
// ~1.6 MiB.
//
// Usage mistakes (a non-square request for a square strategy, a blind
// baseline on hard faults or without a baseline, evacuate without faults,
// explain on a machine without routes) throw usage_error: exit 1 on both
// front ends.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/contention.hpp"
#include "core/mapping.hpp"
#include "core/metrics.hpp"
#include "core/optimal_lb.hpp"
#include "graph/task_graph.hpp"
#include "runtime/evacuate.hpp"
#include "svc/cache_pool.hpp"
#include "svc/protocol.hpp"

namespace topomap::svc {

/// Where a run gets the machine a request names: CachePool::acquire in
/// topomapd, make_machine in the one-shot CLI.
using MachineSource = std::function<MachineEntryPtr(
    const std::string& topology_spec, const topo::FaultSpec& faults)>;

/// Hop-byte metrics of a mapping on a machine.
struct MappingMetrics {
  double hop_bytes = 0.0;
  double hops_per_byte = 0.0;
  /// nullopt when the machine has no processor-level routes (FatTree).
  std::optional<core::LinkLoadStats> link_loads;
};

MappingMetrics measure(const graph::TaskGraph& g, const topo::Topology& topo,
                       const core::Mapping& m);

/// What `--output` writes and a response's "mapping" carries: 'task
/// processor' lines, skipping unassigned (quarantined) tasks.
std::string mapping_bytes(const core::Mapping& m);

struct MapResult {
  graph::TaskGraph graph;
  MachineEntryPtr machine;  ///< the machine it ran on
  std::string strategy;  ///< the strategy's display name
  core::Mapping mapping;  ///< core::kUnassigned for quarantined tasks
  /// Tasks left unplaced on a split machine, and the split's description.
  std::vector<int> quarantined;
  std::string partition_note;
  MappingMetrics metrics;  ///< over the placed tasks
};

struct ExplainResult {
  graph::TaskGraph graph;
  MachineEntryPtr machine;  ///< the machine it ran on
  std::string strategy;
  core::Mapping mapping;
  double hop_bytes = 0.0;  ///< health-weighted on a soft-faulted machine
  core::ContentionReport attribution;
  /// When the request names a baseline: its attribution on the actual
  /// machine, and the diff with the baseline as side A.
  std::optional<core::ContentionReport> baseline;
  core::ContentionDiff diff;
};

struct EvacuateResult {
  graph::TaskGraph graph;
  MachineEntryPtr machine;  ///< the machine it ran on
  std::string strategy;
  double hop_bytes_before = 0.0;  ///< the job mapped before the faults
  rts::EvacuateComparison comparison;
  double hop_bytes_ratio = 1.0;  ///< evacuated / fully remapped hop-bytes
};

struct OptimalResult {
  graph::TaskGraph graph;
  MachineEntryPtr machine;  ///< the machine it ran on
  core::OptimalResult optimal;
  struct Compare {
    std::string strategy;
    double hop_bytes = 0.0;
    double optimality_gap = 1.0;  ///< strategy / optimum hop-bytes
  };
  std::optional<Compare> compare;  ///< when the request names one
};

/// One request of each kind.
MapResult run_map(const Request& req, const MachineSource& acquire);
ExplainResult run_explain(const Request& req, const MachineSource& acquire);
EvacuateResult run_evacuate(const Request& req, const MachineSource& acquire);
OptimalResult run_optimal(const Request& req, const MachineSource& acquire);

/// A run's result as the response's "result" object.
json::Value to_json(MapResult r, const Request& req);
json::Value to_json(ExplainResult r, const Request& req);
json::Value to_json(EvacuateResult r, const Request& req);
json::Value to_json(OptimalResult r, const Request& req);

}  // namespace topomap::svc
