// Simulated-annealing mapper — the "physical optimization" comparator
// class from the paper's related work (Bollinger & Midkiff's process
// annealing; Orduña et al.'s randomized search).
//
// The paper's position is that such methods "produce high-quality
// solutions (better than heuristic algorithms)" but "tend to be very
// slow"; AnnealingLB lets the repository reproduce that trade-off
// quantitatively (see bench/ablation_physical_opt).
//
// Standard Metropolis scheme over pair-swaps of the mapping:
//   energy  E(P)    = hop-bytes(P)
//   move            = swap the processors of two random tasks
//   accept          = delta < 0, or with probability exp(-delta / T)
//   schedule        = geometric cooling from T0 (set adaptively from the
//                     mean |delta| of random moves) by `cooling` per epoch
// Keeps the best mapping ever visited.
#pragma once

#include "core/strategy.hpp"

namespace topomap::core {

struct AnnealingOptions {
  /// Swap proposals per temperature epoch, as a multiple of n.
  double moves_per_task = 8.0;
  /// Geometric cooling factor per epoch, in (0, 1).
  double cooling = 0.9;
  /// Epoch count.
  int epochs = 60;
  /// Initial temperature = t0_factor * mean |delta| of random swaps.
  double t0_factor = 1.5;
  /// Start from this strategy's result instead of a random mapping
  /// (null = random start).
  StrategyPtr warm_start;
};

class AnnealingLB final : public MappingStrategy {
 public:
  explicit AnnealingLB(AnnealingOptions options = {},
                       CacheHandlePtr cache = nullptr);

  Mapping map(const graph::TaskGraph& g, const topo::Topology& topo,
              Rng& rng) const override;
  std::string name() const override;

 private:
  AnnealingOptions options_;
  CacheHandlePtr cache_;  // shared across a composition; may be null
};

}  // namespace topomap::core
