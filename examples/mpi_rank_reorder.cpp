// Scenario: topology-aware rank reordering for a plain MPI application.
//
// Feed a measured rank-to-rank communication matrix (e.g. from mpiP or a
// PMPI byte counter) and a machine spec; get back the rank -> processor
// permutation to pass to the launcher (rankfile / MPICH_RANK_REORDER).
// Without --matrix it demonstrates on a synthetic 3D-halo communication
// matrix.
//
// Build & run:  ./build/examples/mpi_rank_reorder [--help]
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/metrics.hpp"
#include "graph/builders.hpp"
#include "runtime/rank_reorder.hpp"
#include "support/cli.hpp"
#include "topo/factory.hpp"

int run(int argc, char** argv) {
  using namespace topomap;

  CliParser cli("Produce a topology-aware MPI rank ordering");
  cli.add_option("matrix", "comm-matrix file ('ranks N' + NxN bytes; "
                 "empty = synthetic 3D halo demo)", "");
  cli.add_option("topology", "machine spec", "torus:4x4x4");
  cli.add_option("strategy", "mapping strategy", "topolb+refine");
  cli.add_option("output", "rank-mapping output file (empty = stdout)", "");
  cli.add_option("seed", "RNG seed", "1");
  if (!cli.parse(argc, argv)) return 0;

  const auto machine = topo::make_topology(cli.str("topology"));

  graph::TaskGraph ranks = [&] {
    if (const std::string path = cli.str("matrix"); !path.empty())
      return rts::read_comm_matrix_file(path);
    const auto dims = topo::balanced_dims(machine->size(), 3);
    std::cout << "# no --matrix given; using a synthetic " << dims[0] << "x"
              << dims[1] << "x" << dims[2] << " halo-exchange pattern\n";
    return graph::stencil_3d(dims[0], dims[1], dims[2], 64 * 1024.0);
  }();

  if (ranks.num_vertices() != machine->size()) {
    std::cerr << "error: " << ranks.num_vertices() << " ranks but "
              << machine->size() << " processors in " << machine->name()
              << "\n";
    return 1;
  }

  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const auto strategy = core::make_strategy(cli.str("strategy"));
  const core::Mapping m =
      rts::reorder_ranks(ranks, *machine, *strategy, rng);

  Rng rng2(rng.seed());
  const core::Mapping trivial = core::identity_mapping(machine->size());
  std::cout << "# machine:   " << machine->name() << "\n"
            << "# strategy:  " << strategy->name() << "\n"
            << "# hops/byte: " << core::hops_per_byte(ranks, *machine, m)
            << " (in-order binding: "
            << core::hops_per_byte(ranks, *machine, trivial)
            << ", random expectation: "
            << core::expected_random_hops(*machine) << ")\n";

  if (const std::string out = cli.str("output"); !out.empty()) {
    std::ofstream os(out);
    rts::write_rank_mapping(os, m);
    std::cout << "# mapping written to " << out << "\n";
  } else {
    rts::write_rank_mapping(std::cout, m);
  }
  return 0;
}

int main(int argc, char** argv) {
  return topomap::run_main(argc, argv, run);
}
