// Distance-plane engine: a dense, non-virtual view of a topology's metric.
//
// Every mapping hot loop in src/core — TopoLB's row rescans, TopoCentLB's
// free-processor scan, RefineTopoLB's swap-delta sweep, AnnealingLB's
// Metropolis chain — funnels through Topology::distance(a, b).  Through the
// vtable that is a call + (for grids) a div/mod chain per lookup, repeated
// billions of times per mapping run.  DistanceCache materializes the whole
// p x p matrix once (row-major uint16_t, built via the batch
// Topology::write_distance_row hook, rows filled in parallel) plus the
// per-source mean distances, and hands the kernels raw row pointers.
//
// Memory: 2 bytes per pair — 800 MB at the 20000-node cap shared with
// GraphTopology, 2 MB for a 1024-node BlueGene partition.  Construction is
// O(p^2) with a small constant (closed-form batch fills for grids and
// hypercubes, memcpy for GraphTopology).
//
// Determinism contract: distance(a, b) returns exactly the virtual
// Topology::distance(a, b), and mean_distance_from(p) stores *the virtual
// method's value* (not a matrix-derived re-computation), so a kernel reads
// the same numbers from the cache as from the topology itself.
// tests/test_triangle_inequality.cpp checks both, pair by pair and bit for
// bit, for every topology factory kind, every fault kind and hier's node
// plane; tests/test_distance_cache.cpp pins each strategy's mappings with
// golden digests.
//
// Weighted plane: the cache is metric-agnostic — it stores whatever
// write_distance_row produces, in the topology's distance_scale() units.
// For a soft-faulted topo::FaultOverlay that is the fixed-point
// health-weighted plane (healthy hop = kHealthCostOne units); with every
// link healthy the scale is 1 and the plane is byte-identical to the plain
// hop plane.  The scale captured at build time is how repairs detect a
// *unit change* (first degrade, or last degraded link disappearing): the
// whole plane then re-expresses in the new units, so the repair falls back
// to an all-rows rebuild exactly once per transition.
//
// Fault repair: when the topology is wrapped in a topo::FaultOverlay, the
// cache can follow fault injections *incrementally* instead of the O(p^2)
// all-rows rebuild the ROADMAP flagged.  repair_link_failure(a, b) re-runs
// BFS/Dijkstra only for source rows whose shortest-path DAG used link a-b —
// detected in O(1) per row from the cached values themselves: a link of
// cost c lies on some shortest path from s iff |d(s,a) - d(s,b)| == c (the
// BFS level property generalized to weighted planes), so no per-row
// touched-link bitset needs to be maintained.  repair_link_degrade(a, b)
// uses the same oracle in both directions: a cost increase can only affect
// rows that had the link tight (|d(s,a) - d(s,b)| == old cost); a decrease
// only rows where the cheaper link now undercuts the stored distances
// (|d(s,a) - d(s,b)| > new cost).  Similarly repair_node_failure(p) fully
// recomputes a row only when p was *interior* to its DAG (p has an alive
// DAG successor q with d(s,q) == d(s,p) + cost(p,q)); rows where p was a
// leaf are patched in place (entry -> unreachable, integer row sum/count
// adjusted).  Unreachable and dead entries hold FaultOverlay::kUnreachable
// (0xFFFF, distances are capped far below by the 20000-node limit and the
// overlay's weighted-overflow check).  The repaired cache is byte-identical
// to a from-scratch rebuild on the faulted overlay — matrix, means, and
// diameter — which the property tests assert for random interleaved
// degrade/fail sequences under 1 and 4 threads.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.hpp"

namespace topomap::topo {

class FaultOverlay;

class DistanceCache {
 public:
  /// Build the dense matrix for `topo`.  Requires size() <= 20000 (the
  /// dense-matrix cap); throws precondition_error beyond it.
  explicit DistanceCache(const Topology& topo);

  int size() const { return n_; }

  /// distance_scale() of the topology at build/last-repair time: the units
  /// of every matrix entry (1 = plain hops).
  int scale() const { return scale_; }

  /// Row pointer: row(a)[b] == distance(a, b).  The fastest access path —
  /// hoist it out of inner loops over b.  Rows are contiguous: row(0) is
  /// the whole n x n matrix.
  const std::uint16_t* row(int a) const {
    return dist_.data() + static_cast<std::size_t>(a) * static_cast<std::size_t>(n_);
  }

  /// Bounds-unchecked scalar lookup.
  int distance(int a, int b) const { return row(a)[b]; }

  /// The topology's mean_distance_from(p), captured at build time and kept
  /// exact across repairs.
  double mean_distance_from(int p) const {
    return mean_dist_[static_cast<std::size_t>(p)];
  }

  int diameter() const { return diameter_; }

  /// Incorporate overlay.fail_link(a, b) — call once, immediately after the
  /// overlay mutation.  Recomputes only the source rows whose shortest-path
  /// DAG crossed the failed link; refreshes means and diameter.
  /// `prev_cost` is the cost the link carried while alive in the
  /// pre-mutation plane units (fail_link's return value); 0 means "it was
  /// healthy" (one hop — the only possibility before soft faults existed).
  /// The overlay's base must be the topology this cache was built on (or
  /// the overlay itself).  Returns the number of rows recomputed.
  int repair_link_failure(const FaultOverlay& overlay, int a, int b,
                          int prev_cost = 0);

  /// Incorporate overlay.fail_node(p) — call once, immediately after the
  /// overlay mutation.  Blanks p's row, patches rows where p was a DAG
  /// leaf, recomputes rows where p was interior.  Returns the number of
  /// rows recomputed (excluding p's own blanked row).
  int repair_node_failure(const FaultOverlay& overlay, int p);

  /// Incorporate overlay.degrade_link(a, b, health) — call once,
  /// immediately after the overlay mutation, passing degrade_link's return
  /// value as `prev_cost`.  When the mutation changed the plane's units
  /// (first soft fault, or the last one restored) every row rebuilds;
  /// otherwise only rows whose shortest paths the cost change can touch
  /// are recomputed.  Returns the number of rows recomputed.
  /// restore_link_health is degrade_link(a, b, 1.0), so this repair also
  /// covers health recoveries.
  int repair_link_degrade(const FaultOverlay& overlay, int a, int b,
                          int prev_cost);

  /// Incorporate overlay.restore_node(p) — call once, immediately after
  /// the overlay mutation.  Computes p's fresh row once, then patches every
  /// survivor row in place: a revived processor can only *shorten* paths,
  /// and a shortest path crosses p at most once, so
  /// new_d(s, q) = min(old_d(s, q), d(p, s) + d(p, q)) is exact.  Returns
  /// the number of survivor rows whose entries changed.
  int repair_node_restore(const FaultOverlay& overlay, int p);

  /// Incorporate overlay.restore_link(a, b) — call once, immediately after
  /// the overlay mutation, passing restore_link's return value as `cost`.
  /// A returning link of cost c can only shorten paths, and a shortest path
  /// crosses it at most once, so rows are patched in place with
  /// new_d(s, q) = min(old, d(s,a) + c + d(b,q), d(s,b) + c + d(a,q)),
  /// touching only rows the oracle |d(s,a) - d(s,b)| > c (or exactly one
  /// endpoint reachable) flags.  A dead endpoint makes the restore inert:
  /// no distances change.  Returns the number of rows patched.
  int repair_link_restore(const FaultOverlay& overlay, int a, int b,
                          int cost);

  /// Full from-scratch rebuild on `topo` — the graceful-fallback path when
  /// core::validate_state finds the incrementally-repaired plane out of
  /// step with the overlay.  Also the exactness anchor the repairs fall
  /// back to when a restore returns the overlay to a pristine state (a
  /// fresh build on a fault-free overlay stores the base topology's
  /// closed-form means, which the integer aggregates cannot reproduce
  /// bit-for-bit).
  void rebuild(const Topology& topo);

 private:
  void rebuild_all(const Topology& topo);
  /// All-rows rebuild when the overlay's distance_scale() no longer matches
  /// the plane's units.  Returns true when it rebuilt (repair is done).
  bool rescale_if_needed(const FaultOverlay& overlay);
  /// Recompute the given source rows from the overlay, in parallel.
  void recompute_rows(const FaultOverlay& overlay,
                      const std::vector<int>& rows);
  void recompute_row_stats(int p);
  void refresh_means_and_diameter();

  int n_ = 0;
  int scale_ = 1;
  int diameter_ = 0;
  std::vector<std::uint16_t> dist_;  // row-major n x n
  std::vector<double> mean_dist_;    // virtual mean_distance_from values
  // Exact per-row aggregates (finite entries only, self included) letting
  // repairs reproduce the overlay's integer mean arithmetic bit-for-bit.
  std::vector<long long> row_sum_;
  std::vector<int> row_reach_;
  std::vector<int> row_max_;
};

}  // namespace topomap::topo
