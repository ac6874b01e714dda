// Ablation: HierTopoLB scale-up — million-task graphs on tens of
// thousands of processors (DESIGN.md §12).
//
// Two questions:
//   1. How does the multilevel coarsen/map/uncoarsen pipeline scale?  The
//      sweep runs a 3-D stencil from 8k tasks / 512 procs up to 1M tasks
//      on a 64^3 torus (262,144 procs) — far past flat TopoLB's O(n^2)
//      comfort zone — and reports per-stage level counts, runtime, and
//      mapping quality against the random expectation.
//   2. What does the hierarchy cost in quality?  At sizes where flat
//      TopoLB still runs (n == p <= a few thousand), hier and flat map
//      the same workload and the table reports the hop-bytes ratio
//      (acceptance gate: within 5%).
#include "bench/common.hpp"
#include "core/hier_topo_lb.hpp"
#include "graph/builders.hpp"
#include "topo/factory.hpp"

using namespace topomap;

namespace {

graph::TaskGraph make_stencil3d(int x, int y, int z) {
  return graph::stencil_3d(x, y, z, 1.0);
}

}  // namespace

int run(int argc, char** argv) {
  CliParser cli("Ablation: HierTopoLB scale-up to million-task graphs");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("full", "include the 1M-task row (slowest)", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const bool full = cli.integer("full") != 0;
  bench::preamble("hier scale-up", seed);

  // --- 1. scale sweep: tasks and machine grow together ---
  {
    struct Case {
      const char* tasks;
      int x, y, z;
      const char* machine;
    };
    std::vector<Case> cases = {
        {"stencil3d:20x20x20", 20, 20, 20, "torus:8x8x8"},
        {"stencil3d:32x32x32", 32, 32, 32, "torus:16x16x16"},
        {"stencil3d:64x64x64", 64, 64, 64, "torus:32x32x32"},
    };
    if (full)
      cases.push_back({"stencil3d:100x100x100", 100, 100, 100,
                       "torus:64x64x64"});
    Table table("hier scale sweep: 3-D stencil, tasks = 16 x procs",
                {"workload", "tasks", "procs", "t_lvls", "m_lvls", "swaps",
                 "seconds", "hops/byte", "E[random]"},
                3);
    for (const Case& c : cases) {
      const auto g = make_stencil3d(c.x, c.y, c.z);
      const auto t = topo::make_topology(c.machine);
      Rng rng(seed);
      core::HierResult r;
      const double secs =
          bench::timed([&] { r = core::hier_map(g, *t, rng); });
      table.add_row({std::string(c.tasks),
                     static_cast<std::int64_t>(g.num_vertices()),
                     static_cast<std::int64_t>(t->size()),
                     static_cast<std::int64_t>(r.task_levels),
                     static_cast<std::int64_t>(r.topo_levels),
                     static_cast<std::int64_t>(r.swaps), secs,
                     core::hops_per_byte(g, *t, r.mapping),
                     core::expected_random_hops(*t)});
    }
    bench::emit(table, "ablation_hier_scale_sweep");
    std::cout << "\nExpected: runtime grows roughly linearly in tasks "
                 "(single-digit seconds at 1M tasks / 64^3 torus) while "
                 "hops/byte stays a small multiple of the torus link "
                 "distance, far under the random expectation.\n\n";
  }

  // --- 2. quality vs flat TopoLB where both run (n == p) ---
  {
    struct Case {
      const char* label;
      int x, y, z;
      const char* machine;
    };
    const Case cases[] = {
        {"8x8x8 / torus:8x8x8", 8, 8, 8, "torus:8x8x8"},
        {"16x16x8 / torus:16x16x8", 16, 16, 8, "torus:16x16x8"},
        {"16x16x16 / torus:16x16x16", 16, 16, 16, "torus:16x16x16"},
    };
    Table table("hier vs flat TopoLB at square sizes (ratio gate: <= 1.05)",
                {"case", "flat_hb", "hier_hb", "ratio", "flat_sec", "hier_sec"},
                4);
    for (const Case& c : cases) {
      const auto g = make_stencil3d(c.x, c.y, c.z);
      const auto t = topo::make_topology(c.machine);
      const auto flat = core::make_strategy("topolb");
      const auto hier = core::make_strategy("hier");
      double flat_hb = 0.0, hier_hb = 0.0;
      Rng rng_flat(seed), rng_hier(seed);
      const double flat_s = bench::timed(
          [&] { flat_hb = core::hop_bytes(g, *t, flat->map(g, *t, rng_flat)); });
      const double hier_s = bench::timed(
          [&] { hier_hb = core::hop_bytes(g, *t, hier->map(g, *t, rng_hier)); });
      table.add_row({std::string(c.label), flat_hb, hier_hb,
                     hier_hb / flat_hb, flat_s, hier_s});
    }
    bench::emit(table, "ablation_hier_vs_flat");
    std::cout << "\nExpected: ratio <= 1.05 everywhere — the coarse solve "
                 "plus bounded refinement recovers flat TopoLB's quality "
                 "(often beating it, ratio < 1, thanks to the built-in "
                 "refinement sweeps).\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return topomap::run_main(argc, argv, run);
}
