// Ablation: per-strategy optimality gaps against the exact oracle.
//
// Every other experiment ranks strategies *relative to each other*; this
// one anchors them to ground truth.  core::find_optimal_mapping solves a
// slice of the shared oracle corpus (tests/oracle_corpus.hpp) exactly, and
// each gated strategy spec reports
//
//   gap = strategy hop-bytes / optimal hop-bytes   (1.0 == provably optimal)
//
// All corpus weights and distances are integers, so the gap columns are
// exact and deterministic for any thread count — scripts/bench_gate.sh
// compares them against the committed BENCH_mapping.json on every CI run,
// turning "TopoLB is within X% of optimal on small instances" into a gated
// regression bound instead of a paper claim.
#include "bench/common.hpp"
#include "core/optimal_lb.hpp"
#include "tests/oracle_corpus.hpp"
#include "topo/distance_cache.hpp"

using namespace topomap;

int run(int argc, char** argv) {
  CliParser cli("Ablation: strategy optimality gaps vs the exact oracle");
  cli.add_option("seed", "RNG seed for the randomized strategies", "1");
  if (!cli.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  bench::preamble("optimality gap vs exact oracle", seed);

  // The square slice of the corpus: every bijective strategy can run, and
  // one degraded machine keeps the fault path honest.
  const std::vector<std::string> picks = {
      "stencil4x2/mesh4x2", "er8/torus4x2", "stencil3x3/torus3x3",
      "stencil4x2/mesh4x2+degrade01"};

  Table table("optimality gap by strategy (oracle corpus, exact arithmetic)",
              {"instance", "strategy", "opt_hpB", "strat_hpB", "gap",
               "seconds"},
              4);
  for (const oracle::OracleInstance& inst : oracle::oracle_corpus()) {
    if (std::find(picks.begin(), picks.end(), inst.name) == picks.end())
      continue;
    const core::OptimalResult opt =
        core::find_optimal_mapping(inst.g, *inst.machine);
    const topo::DistanceCache plane(*inst.machine);
    const double total = inst.g.total_comm_bytes();
    for (const std::string& spec : oracle::gated_strategy_specs()) {
      Rng rng(seed);
      const auto strategy = core::make_strategy(spec);
      double hb = 0.0;
      const double secs = bench::timed([&] {
        hb = core::hop_bytes(inst.g, plane,
                             strategy->map(inst.g, *inst.machine, rng));
      });
      table.add_row({inst.name, spec, opt.hop_bytes / total, hb / total,
                     hb / opt.hop_bytes, secs});
    }
  }
  bench::emit(table, "ablation_optimality_gap");
  std::cout << "\ngap == 1.0 is provably optimal; the committed "
               "BENCH_mapping.json pins every cell,\nso any strategy "
               "regression against ground truth fails scripts/bench_gate.sh."
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return topomap::run_main(argc, argv, run);
}
