// Internal: uniform, non-virtual distance access for the mapping kernels.
//
// Every mapping kernel (TopoLB, TopoCentLB, RefineTopoLB, AnnealingLB and
// hier's level passes) reads distances through CachedDistance: dense
// uint16 rows from a topo::DistanceCache.  VirtualDistance dispatches
// through Topology::distance instead and has exactly two callers: hier's
// final polish on a contracted machine, which can be larger than the
// DistanceCache's 20000-node cap, and the public swap_delta().  Both
// providers expose the same three operations and return the same values
// (the cache stores Topology::distance and copies mean_distance_from bit
// for bit), so a kernel gives the same result through either.  row(a)
// returns something indexable by processor id — a raw pointer for the
// cache, a thin adapter for the virtual path — and should be hoisted out
// of inner loops.
#pragma once

#include <cstdint>

#include "topo/distance_cache.hpp"
#include "topo/topology.hpp"

namespace topomap::core::detail {

struct VirtualDistance {
  const topo::Topology& topo;

  struct Row {
    const topo::Topology& topo;
    int a;
    int operator[](int b) const { return topo.distance(a, b); }
  };

  int operator()(int a, int b) const { return topo.distance(a, b); }
  Row row(int a) const { return Row{topo, a}; }
  double mean_distance_from(int p) const { return topo.mean_distance_from(p); }
};

struct CachedDistance {
  const topo::DistanceCache& cache;

  int operator()(int a, int b) const { return cache.distance(a, b); }
  const std::uint16_t* row(int a) const { return cache.row(a); }
  double mean_distance_from(int p) const { return cache.mean_distance_from(p); }
};

}  // namespace topomap::core::detail
