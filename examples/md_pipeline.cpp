// Domain scenario: a molecular-dynamics workload (LeanMD-style cell/pair
// decomposition) with far more objects than processors — the full
// two-phase pipeline of the paper:
//
//   instrumented run -> LB database -> multilevel partition into p groups
//   -> coalesce -> topology-aware mapping -> per-object placement.
//
// Build & run:  ./build/examples/md_pipeline [--help]
#include <iostream>

#include "graph/quotient.hpp"
#include "graph/synthetic_md.hpp"
#include "partition/partition.hpp"
#include "runtime/apps.hpp"
#include "runtime/lb_manager.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "topo/factory.hpp"

int run(int argc, char** argv) {
  using namespace topomap;

  CliParser cli("MD cell/pair workload through the two-phase LB pipeline");
  cli.add_option("topology", "machine spec (see topo::make_topology)",
                 "torus:8x8");
  cli.add_option("cells", "cell grid, e.g. 6x6x5", "6x6x5");
  cli.add_option("atoms", "mean atoms per cell", "200");
  cli.add_option("seed", "RNG seed", "11");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));

  // --- build the MD object pattern and measure it on the runtime ---
  graph::MdParams params;
  {
    const auto spec = cli.str("cells");
    if (3 != std::sscanf(spec.c_str(), "%dx%dx%d", &params.cells_x,
                         &params.cells_y, &params.cells_z)) {
      std::cerr << "bad --cells spec: " << spec << "\n";
      return 1;
    }
  }
  params.atoms_per_cell = cli.real("atoms");
  const graph::TaskGraph pattern = graph::synthetic_md(params, rng);
  const rts::LBDatabase db = rts::run_graph_exchange(pattern, /*iterations=*/3);
  const graph::TaskGraph objects = db.to_task_graph("md-measured");

  const auto machine = topo::make_topology(cli.str("topology"));
  std::cout << "objects: " << objects.num_vertices() << " ("
            << graph::md_cell_count(params) << " cells + "
            << objects.num_vertices() - graph::md_cell_count(params)
            << " pair computes)\n"
            << "machine: " << machine->name() << " (" << machine->size()
            << " processors, virtualization ratio "
            << static_cast<double>(objects.num_vertices()) / machine->size()
            << ")\n\n";

  // --- run the pipeline with each phase-2 strategy ---
  Table table("two-phase pipeline results",
              {"mapper", "edge_cut_MB", "imbalance", "quotient_deg",
               "hops/byte"},
              3);
  for (const char* spec : {"random", "topocent", "topolb", "topolb+refine"}) {
    rts::PipelineConfig pipeline;
    pipeline.partitioner = part::make_partitioner("multilevel");
    pipeline.mapper = core::make_strategy(spec);
    Rng run_rng(rng.seed());  // same partition seed for a fair comparison
    const auto out = rts::run_two_phase(objects, *machine, pipeline, run_rng);
    table.add_row({std::string(spec), out.edge_cut_bytes / (1024.0 * 1024.0),
                   out.load_imbalance, out.quotient_avg_degree,
                   out.hops_per_byte});
  }
  table.print(std::cout);

  // --- show a concrete object placement ---
  rts::PipelineConfig pipeline;
  pipeline.partitioner = part::make_partitioner("multilevel");
  pipeline.mapper = core::make_strategy("topolb+refine");
  Rng run_rng(rng.seed());
  const auto out = rts::run_two_phase(objects, *machine, pipeline, run_rng);
  std::cout << "\nfirst 10 object placements (object -> group -> processor):\n";
  for (int obj = 0; obj < std::min(10, objects.num_vertices()); ++obj)
    std::cout << "  object " << obj << " -> group "
              << out.group_of_object[obj] << " -> processor "
              << out.object_to_proc[obj] << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return topomap::run_main(argc, argv, run);
}
