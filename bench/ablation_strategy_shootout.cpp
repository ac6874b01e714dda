// Ablation: full strategy shoot-out across network classes.
//
// Two questions from the paper's introduction, quantified:
//   1. How do all implemented strategies (paper's + extensions) rank on a
//      contention-prone torus?
//   2. On richly-wired networks (hypercube, fat-tree, dragonfly) — where
//      "with number of wires growing as P log P, even this is not a very
//      significant factor" — how much does mapping still matter?
// The second table reports random-vs-TopoLB hops-per-byte per topology:
// the improvement headroom shrinks from ~4x on the torus toward ~1.2x on
// the dragonfly, which is exactly the paper's motivation for targeting
// torus/mesh machines.
#include "bench/common.hpp"
#include "core/contention.hpp"
#include "graph/builders.hpp"
#include "topo/factory.hpp"

using namespace topomap;

int run(int argc, char** argv) {
  CliParser cli("Ablation: all strategies; torus vs rich networks");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble("strategy shoot-out", seed);

  // --- 1. all strategies on the contention-prone case ---
  {
    const auto g = graph::stencil_2d(12, 12, 1.0);
    const auto t = topo::make_topology("torus:12x12");
    Table table("all strategies: 12x12 stencil on 12x12 torus",
                {"strategy", "hops/byte", "max_link_B", "l2", "seconds"}, 3);
    for (const char* spec :
         {"random", "greedy", "topocent", "topolb1", "topolb", "topolb3",
          "recursive", "anneal", "topolb+refine", "topolb+linkrefine",
          "recursive+refine", "anneal-warm", "hier", "hier+refine"}) {
      Rng rng(seed);
      const auto strategy = core::make_strategy(spec);
      double hpb = 0.0;
      const double secs = bench::timed([&] {
        hpb = bench::mean_hops_per_byte(*strategy, g, *t, rng,
                                        std::string(spec) == "random" ? 5 : 1);
      });
      // Contention proxy of one representative mapping (fresh seed-`seed`
      // RNG, matching the first mean_hops_per_byte repetition).
      Rng map_rng(seed);
      const core::ContentionStats s =
          core::contention_stats(g, *t, strategy->map(g, *t, map_rng));
      table.add_row({std::string(spec), hpb, s.max_bytes, s.l2, secs});
    }
    bench::emit(table, "ablation_shootout_strategies");
  }

  // --- 2. topology classes: how much headroom does mapping have? ---
  {
    Table table("random vs TopoLB headroom by network class (64-72 nodes)",
                {"topology", "diameter", "E[random]", "Random", "TopoLB",
                 "headroom (rand/topolb)"},
                3);
    for (const char* spec : {"torus:8x8", "mesh:8x8", "torus:4x4x4",
                             "hypercube:6", "fattree:4x3", "dragonfly:8"}) {
      const auto t = topo::make_topology(spec);
      Rng graph_rng(seed);
      // Same workload class everywhere: a stencil of matching size.
      const auto dims = topo::balanced_dims(t->size(), 2);
      const auto g = graph::stencil_2d(dims[0], dims[1], 1.0);
      Rng rng(seed);
      const double rand_hpb = bench::mean_hops_per_byte(
          *core::make_strategy("random"), g, *t, rng, 5);
      const double lb_hpb = bench::mean_hops_per_byte(
          *core::make_strategy("topolb"), g, *t, rng, 1);
      table.add_row({std::string(spec),
                     static_cast<std::int64_t>(t->diameter()),
                     core::expected_random_hops(*t), rand_hpb, lb_hpb,
                     rand_hpb / lb_hpb});
    }
    bench::emit(table, "ablation_shootout_topologies");
    std::cout << "\nExpected: the torus/mesh rows show the largest headroom "
               "(the paper's target machines);\nhypercube/fat-tree/dragonfly "
               "compress it — mapping matters less when wiring is rich.\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return topomap::run_main(argc, argv, run);
}
