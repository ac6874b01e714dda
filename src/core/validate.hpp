// Self-validation of a running mapping system: are the invariants that the
// incremental machinery is supposed to preserve actually holding?
//
// The dynamic runtime repairs its distance plane event by event, quarantines
// tasks across partitions, and reuses groupings across epochs.  Each of
// those shortcuts has an exactness argument — and a bug in any of them used
// to mean silently degraded mappings or a crash several epochs later.
// validate_state() re-derives the ground truth the slow way and compares:
//
//  * every placed task sits on an alive processor, active (non-quarantined)
//    tasks all inside one connected component;
//  * the group structure respects capacity: the group -> processor mapping
//    is injective (one group per processor) and every active task's
//    placement equals its group's processor;
//  * the incrementally-repaired distance plane matches rows recomputed
//    fresh from the overlay (byte compare), same scale, same means;
//  * route-based link attribution sums back to hop-bytes (on routed,
//    soft-fault-free machines with every task placed).
//
// The report lists violations as human-readable strings; callers decide the
// response.  rts::run_dynamic_lb_detailed treats any violation as "repair
// lied": it falls back from incremental repair to a full rebuild (obs-counted)
// instead of crashing — the repair-or-rebuild loop.
#pragma once

#include <string>
#include <vector>

#include "core/mapping.hpp"
#include "graph/task_graph.hpp"
#include "topo/distance_cache.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap::core {

/// A view of the pieces to cross-check.  graph/overlay are required;
/// everything else is optional and only validated when present.
/// `groups`/`active_tasks`/`group_mapping` come as a triple: active_tasks[i]
/// is the original id of the task whose group is groups[i].  When
/// active_tasks is null but groups is set, groups[i] belongs to task i.
struct SystemState {
  const graph::TaskGraph* graph = nullptr;
  const topo::FaultOverlay* overlay = nullptr;
  const Mapping* placement = nullptr;
  const std::vector<char>* quarantined = nullptr;  // per-task, 1 = frozen
  const std::vector<int>* groups = nullptr;
  const std::vector<int>* active_tasks = nullptr;
  const Mapping* group_mapping = nullptr;  // group -> original processor id
  const topo::DistanceCache* plane = nullptr;
};

struct ValidateOptions {
  /// Plane rows to verify: 0 checks every alive row (exhaustive — the
  /// default, affordable at dynamic-runtime machine sizes), k > 0 checks k
  /// evenly-spaced alive rows (spot check for big planes).
  int plane_rows = 0;
  /// Cross-check attribution totals against hop-bytes where the machine
  /// supports routing and every task is placed.
  bool check_attribution = true;
};

struct ValidationReport {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
  /// Violations joined with "; " ("ok" when none).
  std::string summary() const;
};

ValidationReport validate_state(const SystemState& state,
                                const ValidateOptions& opts = {});

}  // namespace topomap::core
