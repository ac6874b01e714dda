// Failure-driven remap: evacuate stranded tasks off dead processors.
//
// When processors fail mid-run, a full remap gets the best placement but
// migrates almost everything — and in Charm++ terms every migration is
// PUP-serialised object state on the wire.  evacuate() instead keeps every
// surviving placement and moves *only* the stranded tasks (those whose
// processor died), placing each on the free alive processor that minimizes
// its first-order hop-bytes against its already-placed neighbours, plus an
// optional bounded refine pass that may swap an evacuated task with one
// survivor when that strictly improves hop-bytes.  Migration count is
// therefore stranded + (at most one extra per accepted refine swap), versus
// O(n) for the full remap; bench/ablation_fault_tolerance quantifies the
// quality gap, which stays within a few percent of the full remap.
//
// Everything is deterministic: stranded tasks are placed heaviest-
// communicator-first (ties by lower task id), candidate processors tie to
// the lower id, and refine sweeps visit tasks in ascending id order.
//
// Load-aware destinations: with EvacuateOptions::load_weight > 0 the
// destination score adds a contention term
//     load_weight * vertex_weight(t) * neighborhood_load(p)
// where neighborhood_load(p) sums the vertex weights resident on p's alive
// topology neighbours — heavy stranded tasks then steer away from already
// hot regions instead of packing into them.  The term needs processor-level
// links, so on distance-model topologies (has_adjacency() == false) it is
// inert.  load_weight = 0 (the default) skips the bookkeeping entirely and
// reproduces the pure hop-bytes placement bit for bit.
#pragma once

#include <vector>

#include "core/mapping.hpp"
#include "core/strategy.hpp"
#include "graph/task_graph.hpp"
#include "support/rng.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap::rts {

struct EvacuateOptions {
  /// Bounded refine sweeps over the evacuated tasks (0 = placement only).
  int refine_passes = 1;
  /// Weight of the neighbourhood-load contention term in the destination
  /// score.  0 keeps the historical pure hop-bytes behaviour.
  double load_weight = 0.0;
};

struct EvacuationResult {
  /// Repaired placement: task -> alive processor, original overlay ids.
  core::Mapping mapping;
  /// Tasks whose previous processor is dead.
  int stranded = 0;
  /// Tasks whose processor changed (stranded + refine-swap partners).
  int migrations = 0;
  /// Refine swaps accepted (each adds at most one extra migration).
  int refine_swaps = 0;
  /// Hop-bytes of `mapping` on the faulted overlay.
  double hop_bytes = 0.0;
  /// Neighbourhood resident-load imbalance of `mapping` (max / mean over
  /// alive processors); 1.0 on distance models or weightless graphs.
  double load_imbalance = 1.0;
};

/// Repair `previous` (a valid one-to-one placement taken before the
/// failures) against the current fault set of `overlay`.  Requires
/// previous to be injective with every processor in range; throws
/// precondition_error when the stranded tasks cannot fit on the free alive
/// processors or a needed distance is disconnected.  refine_passes = 0
/// migrates exactly the stranded tasks.
EvacuationResult evacuate(const graph::TaskGraph& g,
                          const topo::FaultOverlay& overlay,
                          const core::Mapping& previous,
                          const EvacuateOptions& options = {});

struct EvacuateComparison {
  EvacuationResult evac;
  /// Full remap of g onto the alive subset (core::map_on_alive).
  core::Mapping full_mapping;
  int full_migrations = 0;
  double full_hop_bytes = 0.0;
};

/// Run evacuate() and a from-scratch alive-subset remap with `strategy`
/// against the same previous placement, for cost/quality comparison.
EvacuateComparison compare_evacuate_vs_remap(const graph::TaskGraph& g,
                                             const topo::FaultOverlay& overlay,
                                             const core::Mapping& previous,
                                             const core::MappingStrategy& strategy,
                                             Rng& rng,
                                             const EvacuateOptions& options = {});

}  // namespace topomap::rts
