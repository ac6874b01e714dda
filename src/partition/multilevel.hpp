// Multilevel graph partitioner — the METIS substitute (DESIGN.md S3).
//
// k-way partitioning by recursive bisection.  Each bisection is multilevel:
//
//   1. COARSEN   — heavy-edge matching: visit vertices in random order and
//                  match each with the unmatched neighbour sharing the
//                  heaviest edge (subject to a weight cap that keeps
//                  balance achievable); contract matched pairs.  Repeat
//                  until the graph is small or stops shrinking.
//   2. INITIAL   — greedy graph growing on the coarsest graph: grow a
//                  region from a random seed, always absorbing the frontier
//                  vertex with the best cut gain, until the target side
//                  weight is reached.  Several trials, best cut wins.
//   3. UNCOARSEN — project the bisection one level up and improve it with
//                  Fiduccia–Mattheyses-style passes.  A pass moves every
//                  vertex once, interior ones included: each step takes the
//                  highest-gain unlocked vertex whose move keeps the
//                  receiving side within its cap (lowest id on ties), then
//                  the pass rolls back to the best prefix seen.  Candidates
//                  sit in one gain-ordered queue per side, so a step costs
//                  O(log n) plus the heavy vertices it walks past.
//
// The same family of techniques as METIS (Karypis & Kumar), which is what
// the paper uses for phase 1.
#pragma once

#include "partition/partition.hpp"

namespace topomap::part {

/// One level of a coarsening hierarchy: the contracted graph plus the
/// fine-vertex -> coarse-vertex map that produced it.
struct CoarseLevel {
  graph::TaskGraph coarse;
  std::vector<int> fine_to_coarse;
};

/// One round of heavy-edge-matching contraction (the partitioner's COARSEN
/// step, also the task-side coarsener of core::HierTopoLB).  Vertices are
/// visited in rng-permutation order and matched with the unmatched
/// neighbour sharing the heaviest edge, subject to `weight_cap` on the
/// combined vertex weight.  Returns false (and leaves `out` untouched)
/// when matching stalls (< 5% shrinkage).  Fully sequential and therefore
/// byte-identical for any TOPOMAP_THREADS given a fixed rng state.
bool coarsen_once(const graph::TaskGraph& g, double weight_cap, Rng& rng,
                  CoarseLevel* out);

/// FM refinement of the 2-way split `side` (0/1 per vertex) in place: up to
/// `passes` passes (see UNCOARSEN above), stopping after the first pass
/// that does not strictly lower the cut.  Side 0 may weigh at most
/// target_left * W * (1 + eps) and side 1 (1 - target_left) * W * (1 + eps),
/// where W is the sum of the balancing weights `w`.  The partitioner's
/// refinement step, exposed for tests.
void fm_refine(const graph::TaskGraph& g, const std::vector<double>& w,
               std::vector<int>& side, double target_left, double eps,
               int passes);

struct MultilevelOptions {
  /// Stop coarsening once a bisection's working graph has at most this
  /// many vertices.
  int coarsen_target = 64;
  /// Independent greedy-growing trials for the initial bisection.
  int initial_trials = 6;
  /// Maximum FM passes per uncoarsening level.
  int fm_passes = 4;
  /// Per-side balance tolerance: a side may exceed its target weight by
  /// this fraction.
  double epsilon = 0.08;
};

class MultilevelPartitioner final : public Partitioner {
 public:
  explicit MultilevelPartitioner(MultilevelOptions options = {});

  PartitionResult partition(const graph::TaskGraph& g, int k,
                            Rng& rng) const override;
  std::string name() const override { return "MultilevelPartition"; }

  /// One balanced 2-way split: returns 0/1 sides with side 0 targeting
  /// `left_fraction` of the total vertex weight.  Exposed for tests.
  std::vector<int> bisect(const graph::TaskGraph& g, double left_fraction,
                          Rng& rng) const;

 private:
  MultilevelOptions options_;
};

}  // namespace topomap::part
