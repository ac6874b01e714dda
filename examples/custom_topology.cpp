// Scenario: irregular machines and workloads from files.
//
// topomap's algorithms work on arbitrary topology graphs (paper §3: "our
// algorithms work for arbitrary network topologies").  This example loads
// a machine description and a task graph from simple edge-list files (or
// generates a demo pair), maps with every strategy, and prints a summary —
// the shape of a batch-system integration.
//
// File formats (lines starting with '#' are comments):
//   machine file:  first line "nodes N", then one "a b" link per line
//   taskgraph:     first line "tasks N", then "a b bytes" per line
//
// Build & run:  ./build/examples/custom_topology [--machine=f --tasks=g]
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "topo/graph_topology.hpp"

namespace {

using namespace topomap;

topo::GraphTopology load_machine(const std::string& path) {
  std::ifstream in(path);
  TOPOMAP_REQUIRE(static_cast<bool>(in), "cannot open machine file: " + path);
  std::string line, keyword;
  int nodes = -1;
  std::vector<std::pair<int, int>> links;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    if (nodes < 0) {
      ls >> keyword >> nodes;
      TOPOMAP_REQUIRE(keyword == "nodes" && nodes > 0,
                      "machine file must start with 'nodes N'");
      continue;
    }
    int a = 0, b = 0;
    ls >> a >> b;
    TOPOMAP_REQUIRE(static_cast<bool>(ls), "bad link line: " + line);
    links.emplace_back(a, b);
  }
  return topo::GraphTopology(nodes, links, "file[" + path + "]");
}

/// Demo machine: two 3x3 mesh "racks" bridged by two cables — the kind of
/// irregular shape no closed-form topology covers.
topo::GraphTopology demo_machine() {
  std::vector<std::pair<int, int>> links;
  auto id = [](int rack, int x, int y) { return rack * 9 + x + 3 * y; };
  for (int rack = 0; rack < 2; ++rack) {
    for (int y = 0; y < 3; ++y) {
      for (int x = 0; x < 3; ++x) {
        if (x + 1 < 3) links.emplace_back(id(rack, x, y), id(rack, x + 1, y));
        if (y + 1 < 3) links.emplace_back(id(rack, x, y), id(rack, x, y + 1));
      }
    }
  }
  links.emplace_back(id(0, 2, 0), id(1, 0, 0));  // bridge cables
  links.emplace_back(id(0, 2, 2), id(1, 0, 2));
  return topo::GraphTopology(18, links, "two-racks-demo");
}

}  // namespace

int run(int argc, char** argv) {
  CliParser cli("Map a file-described task graph onto a file-described machine");
  cli.add_option("machine", "machine edge-list file (empty = built-in demo)",
                 "");
  cli.add_option("tasks", "task-graph edge-list file (empty = demo ring)", "");
  cli.add_option("seed", "RNG seed", "5");
  if (!cli.parse(argc, argv)) return 0;

  const topo::GraphTopology machine = cli.str("machine").empty()
                                          ? demo_machine()
                                          : load_machine(cli.str("machine"));
  Rng demo_rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const graph::TaskGraph tasks =
      cli.str("tasks").empty()
          ? graph::random_geometric(machine.size(), 0.35, 4096.0, demo_rng)
          : graph::read_task_graph_file(cli.str("tasks"));

  TOPOMAP_REQUIRE(tasks.num_vertices() == machine.size(),
                  "task count must equal machine size for direct mapping "
                  "(use the two-phase pipeline otherwise)");

  std::cout << "machine: " << machine.name() << " (" << machine.size()
            << " nodes, diameter " << machine.diameter() << ")\n"
            << "tasks:   " << tasks.label() << " (" << tasks.num_edges()
            << " communicating pairs)\n";

  Table table("mapping strategies on the custom machine",
              {"strategy", "hops/byte", "hop_bytes_MB", "busiest_link_MB"},
              3);
  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  for (const char* spec :
       {"random", "topocent", "topolb", "topolb+refine"}) {
    const auto strategy = core::make_strategy(spec);
    const core::Mapping m = strategy->map(tasks, machine, rng);
    const auto links = core::link_loads(tasks, machine, m);
    table.add_row({std::string(spec), core::hops_per_byte(tasks, machine, m),
                   core::hop_bytes(tasks, machine, m) / (1024.0 * 1024.0),
                   links.max_bytes / (1024.0 * 1024.0)});
  }
  table.print(std::cout);
  std::cout << "\nTopoLB keeps heavy communicators inside racks and off the "
               "two bridge cables.\n";
  return 0;
}

int main(int argc, char** argv) {
  return topomap::run_main(argc, argv, run);
}
