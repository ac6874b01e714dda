// Ablation (ours, motivated by paper §4.3-4.4): quality vs cost of the
// three TopoLB estimation orders.
//
// The paper argues second order is the sweet spot: first order ignores
// unplaced neighbours entirely; third order models the shrinking free-
// processor set exactly but costs O(p^3).  This harness quantifies both
// claims on stencil and irregular workloads.
#include "bench/common.hpp"
#include "graph/builders.hpp"
#include "topo/factory.hpp"

using namespace topomap;

int run(int argc, char** argv) {
  CliParser cli("Ablation: TopoLB estimation orders (quality and runtime)");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble("TopoLB estimation-order ablation", seed);

  struct Case {
    std::string name;
    graph::TaskGraph g;
    topo::TopologyPtr topo;
  };
  Rng graph_rng(seed);
  std::vector<Case> cases;
  cases.push_back({"stencil 16x16 / torus 16x16",
                   graph::stencil_2d(16, 16, 1.0),
                   topo::make_topology("torus:16x16")});
  cases.push_back({"stencil 24x24 / torus 24x24",
                   graph::stencil_2d(24, 24, 1.0),
                   topo::make_topology("torus:24x24")});
  cases.push_back({"stencil 16x8 / torus 8x4x4",
                   graph::stencil_2d(16, 8, 1.0),
                   topo::make_topology("torus:8x4x4")});
  cases.push_back({"random n=256 / mesh 16x16",
                   graph::random_graph(256, 0.03, 1.0, 64.0, graph_rng),
                   topo::make_topology("mesh:16x16")});
  cases.push_back({"geometric n=256 / torus 16x16",
                   graph::random_geometric(256, 0.12, 8.0, graph_rng),
                   topo::make_topology("torus:16x16")});

  Table table("TopoLB estimation orders: hops-per-byte (time in s)",
              {"workload", "E[random]", "first", "second", "third",
               "t_first", "t_second", "t_third"},
              3);
  for (const auto& c : cases) {
    Rng rng(seed);
    double hpb[3] = {0, 0, 0};
    double secs[3] = {0, 0, 0};
    const char* specs[3] = {"topolb1", "topolb", "topolb3"};
    for (int i = 0; i < 3; ++i) {
      const auto strategy = core::make_strategy(specs[i]);
      secs[i] = bench::timed([&] {
        hpb[i] = core::hops_per_byte(c.g, *c.topo,
                                     strategy->map(c.g, *c.topo, rng));
      });
    }
    table.add_row({c.name, core::expected_random_hops(*c.topo), hpb[0],
                   hpb[1], hpb[2], secs[0], secs[1], secs[2]});
  }
  bench::emit(table, "ablation_estimation_orders");
  std::cout << "\nExpected: second order matches or beats first order in "
               "quality at similar cost; third order\n"
               "is by far the slowest without consistent quality wins — the "
               "paper's reason to ship second order.\n";
  return 0;
}

int main(int argc, char** argv) {
  return topomap::run_main(argc, argv, run);
}
