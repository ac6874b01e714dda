// §4.4 complexity claims, as google-benchmark microbenchmarks:
//   * TopoLB second order runs in ~O(p^2) on constant-degree task graphs;
//   * TopoLB third order costs O(p^3) — visibly steeper scaling;
//   * TopoCentLB runs in O(p * |E_t|), comparable to second-order TopoLB
//     but with a smaller constant;
//   * RefineTopoLB sweeps are O(p^2) per pass;
//   * the multilevel partitioner handles the MD-scale object graphs fast;
//   * the distance-plane engine: DistanceCache build cost, and thread
//     scaling of the parallel kernels (the /threads:N variants).
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/metrics.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/synthetic_md.hpp"
#include "partition/multilevel.hpp"
#include "partition/partition.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/torus_mesh.hpp"

namespace {

using namespace topomap;

void map_stencil(benchmark::State& state, const char* strategy_spec) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_2d(side, side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  const auto strategy = core::make_strategy(strategy_spec);
  Rng rng(1);
  for (auto _ : state) {
    auto m = strategy->map(g, torus, rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetComplexityN(side * side);
}

/// Same workload with an explicit worker-pool size; restores a single
/// worker afterwards so unrelated benchmarks stay sequential.
void map_stencil_threads(benchmark::State& state, const char* strategy_spec) {
  support::set_num_threads(static_cast<int>(state.range(1)));
  map_stencil(state, strategy_spec);
  support::set_num_threads(1);
}

void BM_TopoLB_SecondOrder(benchmark::State& state) {
  map_stencil(state, "topolb");
}
BENCHMARK(BM_TopoLB_SecondOrder)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Complexity(benchmark::oNSquared);

void BM_TopoLB_FirstOrder(benchmark::State& state) {
  map_stencil(state, "topolb1");
}
BENCHMARK(BM_TopoLB_FirstOrder)->Arg(16)->Arg(32);

void BM_TopoLB_ThirdOrder(benchmark::State& state) {
  map_stencil(state, "topolb3");
}
BENCHMARK(BM_TopoLB_ThirdOrder)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Arg(24)
    ->Complexity(benchmark::oNCubed);

void BM_TopoCentLB(benchmark::State& state) { map_stencil(state, "topocent"); }
BENCHMARK(BM_TopoCentLB)->Arg(8)->Arg(16)->Arg(32)->Complexity(
    benchmark::oNSquared);

void BM_RandomLB(benchmark::State& state) { map_stencil(state, "random"); }
BENCHMARK(BM_RandomLB)->Arg(32);

// --- distance-plane engine ------------------------------------------------

void BM_DistanceCacheBuild(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  for (auto _ : state) {
    topo::DistanceCache cache(torus);
    benchmark::DoNotOptimize(cache.row(0));
  }
  state.SetComplexityN(side * side);
}
BENCHMARK(BM_DistanceCacheBuild)->Arg(16)->Arg(32)->Arg(64)->Complexity(
    benchmark::oNSquared);

// --- thread scaling of the parallel kernels ---------------------------------
// Args are (side, workers).  Results are byte-identical across the series;
// only wall time may change.

void BM_TopoLB_ThirdOrder_Threads(benchmark::State& state) {
  map_stencil_threads(state, "topolb3");
}
BENCHMARK(BM_TopoLB_ThirdOrder_Threads)
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 4})
    ->Args({24, 8});

void BM_TopoLB_SecondOrder_Threads(benchmark::State& state) {
  map_stencil_threads(state, "topolb");
}
BENCHMARK(BM_TopoLB_SecondOrder_Threads)
    ->Args({32, 1})
    ->Args({32, 2})
    ->Args({32, 4});

void BM_Refine_Threads(benchmark::State& state) {
  support::set_num_threads(static_cast<int>(state.range(1)));
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_2d(side, side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  Rng rng(2);
  const core::Mapping random = rng.permutation(side * side);
  for (auto _ : state) {
    auto r = core::refine_mapping(g, torus, random, /*max_passes=*/1);
    benchmark::DoNotOptimize(r.swaps);
  }
  support::set_num_threads(1);
}
BENCHMARK(BM_Refine_Threads)
    ->Args({24, 1})
    ->Args({24, 2})
    ->Args({24, 4})
    ->Args({24, 8});

void BM_RefineTopoLB_OnePass(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_2d(side, side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  Rng rng(2);
  const core::Mapping random = rng.permutation(side * side);
  for (auto _ : state) {
    auto r = core::refine_mapping(g, torus, random, /*max_passes=*/1);
    benchmark::DoNotOptimize(r.swaps);
  }
  state.SetComplexityN(side * side);
}
BENCHMARK(BM_RefineTopoLB_OnePass)->Arg(8)->Arg(16)->Arg(24)->Complexity(
    benchmark::oNSquared);

void BM_MultilevelPartition_Md(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  graph::MdParams params;
  params.cells_x = 4;
  params.cells_y = 4;
  params.cells_z = 4;
  Rng rng(3);
  const auto md = graph::synthetic_md(params, rng);
  const auto partitioner = part::make_partitioner("multilevel");
  for (auto _ : state) {
    auto r = partitioner->partition(md, k, rng);
    benchmark::DoNotOptimize(r.assignment.data());
  }
}
BENCHMARK(BM_MultilevelPartition_Md)->Arg(8)->Arg(32)->Arg(128);

// --- hierarchical scale path (HierTopoLB) ---------------------------------
// Oversubscribed 3-D stencils, 8 tasks per processor: runtime should grow
// roughly linearly in tasks (the coarsen/uncoarsen stages dominate), far
// below flat TopoLB's O(n^2) curve at the same vertex counts.

void BM_HierTopoLB_Oversubscribed(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_3d(2 * side, 2 * side, 2 * side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side, side});
  const auto strategy = core::make_strategy("hier");
  Rng rng(1);
  for (auto _ : state) {
    auto m = strategy->map(g, torus, rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetComplexityN(8 * side * side * side);
}
BENCHMARK(BM_HierTopoLB_Oversubscribed)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Arg(16)
    ->Complexity(benchmark::oN);

void BM_HierTopoLB_Threads(benchmark::State& state) {
  support::set_num_threads(static_cast<int>(state.range(1)));
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_3d(2 * side, 2 * side, 2 * side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side, side});
  const auto strategy = core::make_strategy("hier");
  Rng rng(1);
  for (auto _ : state) {
    auto m = strategy->map(g, torus, rng);
    benchmark::DoNotOptimize(m.data());
  }
  support::set_num_threads(1);
}
BENCHMARK(BM_HierTopoLB_Threads)
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({12, 4});

void BM_TaskCoarsenOnce(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_3d(side, side, side, 1.0);
  for (auto _ : state) {
    Rng rng(2);
    part::CoarseLevel level;
    const bool ok = part::coarsen_once(g, 1e18, rng, &level);
    benchmark::DoNotOptimize(ok);
  }
  state.SetComplexityN(side * side * side);
}
BENCHMARK(BM_TaskCoarsenOnce)->Arg(16)->Arg(32)->Arg(48)->Complexity(
    benchmark::oN);

void BM_HopBytesEvaluation(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const auto g = graph::stencil_2d(side, side, 1.0);
  const topo::TorusMesh torus = topo::TorusMesh::torus({side, side});
  Rng rng(4);
  const core::Mapping m = rng.permutation(side * side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::hop_bytes(g, torus, m));
  }
}
BENCHMARK(BM_HopBytesEvaluation)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
