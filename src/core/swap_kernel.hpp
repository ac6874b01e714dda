// Internal: templated pair-swap hop-bytes delta, shared by RefineTopoLB's
// sweep, AnnealingLB's Metropolis chain, hier's level passes and the
// public swap_delta().  `Dist` is one of the core/distance_provider.hpp
// providers; the terms and their order (integer distance difference, then
// one multiply-accumulate per edge) do not depend on which.
#pragma once

#include "core/distance_provider.hpp"
#include "core/mapping.hpp"
#include "graph/task_graph.hpp"

namespace topomap::core::detail {

template <class Dist>
double swap_delta_dist(const graph::TaskGraph& g, const Dist& dist,
                       const Mapping& m, int a, int b) {
  const int pa = m[static_cast<std::size_t>(a)];
  const int pb = m[static_cast<std::size_t>(b)];
  if (pa == pb) return 0.0;
  const auto row_a = dist.row(pa);
  const auto row_b = dist.row(pb);
  double delta = 0.0;
  for (const graph::Edge& e : g.edges_of(a)) {
    if (e.neighbor == b) continue;  // the (a,b) edge length is unchanged
    const int pj = m[static_cast<std::size_t>(e.neighbor)];
    delta += e.bytes * static_cast<double>(row_b[pj] - row_a[pj]);
  }
  for (const graph::Edge& e : g.edges_of(b)) {
    if (e.neighbor == a) continue;
    const int pj = m[static_cast<std::size_t>(e.neighbor)];
    delta += e.bytes * static_cast<double>(row_a[pj] - row_b[pj]);
  }
  return delta;
}

}  // namespace topomap::core::detail
