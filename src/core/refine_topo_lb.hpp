// RefineTopoLB (paper §5.2.3) — pairwise-swap refinement.
//
// Given an existing one-to-one mapping, repeatedly sweep over task pairs
// and swap their processors whenever that strictly reduces hop-bytes; stop
// when a full sweep finds no improving swap or after max_passes sweeps.
// The paper applies it after TopoLB for a further ~12% reduction on the
// LeanMD workloads.
#pragma once

#include "core/strategy.hpp"

namespace topomap::topo {
class DistanceCache;
}

namespace topomap::core {

struct RefineResult {
  Mapping mapping;
  int swaps = 0;          ///< accepted swaps across all sweeps
  int passes = 0;         ///< sweeps performed (including the final clean one)
  double hop_bytes_before = 0.0;
  double hop_bytes_after = 0.0;
};

/// Refine `m` in place-semantics (returns the improved copy).  The result's
/// hop-bytes are monotonically non-increasing in the number of sweeps.
///
/// Each sweep visits all pairs (a, b), a < b, in order and swaps when the
/// hop-bytes delta is below -1e-12.  Most pairs are decided without
/// computing that delta: with W_t a task's byte total and C_t its current
/// cost (sum of bytes * d(m[t], m[nbr])), every swap has
///
///   delta(a, b) >= d(pa, pb) * (W_a + W_b) - 2 * (C_a + C_b),
///
/// and a pair whose bound exceeds 0 by a relative floating-point margin
/// ((deg_a + deg_b + 8) machine epsilons of the bound's magnitude, enough
/// to cover the rounding of both the bound and the delta) is skipped.  The
/// bound needs the topology's distances to form a metric: zero diagonal,
/// symmetric, and d(x, z) <= d(x, y) + d(y, z).  Every topology, fault
/// overlay and sub-topology in topo:: does.
///
/// The remaining deltas are evaluated speculatively in parallel (see the
/// implementation note in refine_topo_lb.cpp); results are byte-identical
/// to the plain sequential first-improvement sweep for any thread count.
/// `cache` (optional) is a prebuilt distance matrix for `topo`; when given
/// the sweep reuses it instead of building its own.
RefineResult refine_mapping(const graph::TaskGraph& g,
                            const topo::Topology& topo, const Mapping& m,
                            int max_passes = 8,
                            const topo::DistanceCache* cache = nullptr);

/// The spelling perfbench/ calls; the DistanceMode is only kCached.
RefineResult refine_mapping(const graph::TaskGraph& g,
                            const topo::Topology& topo, const Mapping& m,
                            int max_passes, DistanceMode,
                            const topo::DistanceCache* cache);

/// Change in hop-bytes if tasks a and b exchanged processors under m
/// (negative = improvement).  Exposed for tests.
double swap_delta(const graph::TaskGraph& g, const topo::Topology& topo,
                  const Mapping& m, int a, int b);

/// Strategy adaptor: run `base`, then RefineTopoLB.
class RefinedStrategy final : public MappingStrategy {
 public:
  RefinedStrategy(StrategyPtr base, int max_passes = 8,
                  CacheHandlePtr cache = nullptr);

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override;

 private:
  StrategyPtr base_;
  int max_passes_;
  CacheHandlePtr cache_;  // shared across a composition; may be null
};

}  // namespace topomap::core
