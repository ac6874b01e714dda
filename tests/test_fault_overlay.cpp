// Fault-tolerance layer: FaultOverlay semantics, SubTopology re-indexing,
// incremental DistanceCache repair (property-tested against from-scratch
// rebuilds), alive-subset mapping, and evacuation determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/fault_aware.hpp"
#include "core/mapping.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "runtime/evacuate.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/sub_topology.hpp"
#include "topo/torus_mesh.hpp"

namespace topomap::topo {
namespace {

TopologyPtr ring8() { return make_topology("torus:8"); }

TEST(FaultOverlay, PristineOverlayDelegatesToBase) {
  const auto base = make_topology("torus:4x4");
  FaultOverlay overlay(base);
  EXPECT_EQ(overlay.size(), base->size());
  EXPECT_FALSE(overlay.has_faults());
  EXPECT_EQ(overlay.num_alive(), 16);
  EXPECT_EQ(overlay.version(), 0);
  for (int a = 0; a < 16; ++a) {
    EXPECT_EQ(overlay.neighbors(a), base->neighbors(a));
    EXPECT_DOUBLE_EQ(overlay.mean_distance_from(a),
                     base->mean_distance_from(a));
    for (int b = 0; b < 16; ++b)
      EXPECT_EQ(overlay.distance(a, b), base->distance(a, b));
  }
  EXPECT_EQ(overlay.diameter(), base->diameter());
}

TEST(FaultOverlay, FailedLinkDisappearsAndTrafficReroutes) {
  FaultOverlay overlay(ring8());
  EXPECT_EQ(overlay.distance(0, 1), 1);
  overlay.fail_link(0, 1);
  EXPECT_TRUE(overlay.link_failed(0, 1));
  EXPECT_TRUE(overlay.link_failed(1, 0));  // undirected
  EXPECT_EQ(overlay.version(), 1);
  // The ring's only alternative runs all the way around.
  EXPECT_EQ(overlay.distance(0, 1), 7);
  const auto nb0 = overlay.neighbors(0);
  EXPECT_EQ(nb0, (std::vector<int>{7}));
  const auto path = overlay.route(0, 1);
  ASSERT_EQ(path.size(), 8u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 1);
  // Unaffected pairs keep the base's route.
  EXPECT_EQ(overlay.route(2, 4), ring8()->route(2, 4));
}

TEST(FaultOverlay, FailedNodeIsIsolatedAndRejected) {
  FaultOverlay overlay(make_topology("torus:4x4"));
  overlay.fail_node(5);
  EXPECT_FALSE(overlay.is_alive(5));
  EXPECT_EQ(overlay.num_alive(), 15);
  EXPECT_TRUE(overlay.neighbors(5).empty());
  for (int q : overlay.neighbors(4))
    EXPECT_NE(q, 5);  // dead processors vanish from neighbor lists
  EXPECT_THROW(overlay.distance(5, 0), precondition_error);
  EXPECT_THROW(overlay.distance(0, 5), precondition_error);
  EXPECT_THROW(overlay.route(5, 0), precondition_error);
  EXPECT_DOUBLE_EQ(overlay.mean_distance_from(5), 0.0);
  const auto alive = overlay.alive_procs();
  EXPECT_EQ(alive.size(), 15u);
  for (int p : alive) EXPECT_NE(p, 5);
}

TEST(FaultOverlay, DisconnectionFailsFastNotUndefined) {
  // 1D mesh 0-1-2: killing the middle node splits the machine.
  const auto base = std::make_shared<TorusMesh>(TorusMesh::mesh({3}));
  FaultOverlay overlay(base);
  overlay.fail_node(1);
  EXPECT_THROW(overlay.distance(0, 2), precondition_error);
  EXPECT_THROW(overlay.route(0, 2), precondition_error);
  // write_distance_row reports the disconnect as kUnreachable instead.
  std::vector<std::uint16_t> row(3);
  overlay.write_distance_row(0, row.data());
  EXPECT_EQ(row[0], 0);
  EXPECT_EQ(row[1], FaultOverlay::kUnreachable);
  EXPECT_EQ(row[2], FaultOverlay::kUnreachable);
}

TEST(FaultOverlay, ValidatesFaultRequests) {
  FaultOverlay overlay(make_topology("torus:4x4"));
  EXPECT_THROW(overlay.fail_link(0, 5), precondition_error);   // not a link
  EXPECT_THROW(overlay.fail_link(0, 0), precondition_error);   // self
  EXPECT_THROW(overlay.fail_link(0, 99), precondition_error);  // range
  EXPECT_THROW(overlay.fail_node(-1), precondition_error);
  // Idempotent faults do not bump the version.
  overlay.fail_node(3);
  const int v = overlay.version();
  overlay.fail_node(3);
  EXPECT_EQ(overlay.version(), v);
}

TEST(FaultOverlay, FatTreeSupportsNodeFaultsOnly) {
  const auto base = make_topology("fattree:3x2");  // 9 leaves
  FaultOverlay overlay(base);
  EXPECT_FALSE(overlay.has_adjacency());
  EXPECT_THROW(overlay.fail_link(0, 1), precondition_error);
  overlay.fail_node(4);
  EXPECT_EQ(overlay.num_alive(), 8);
  // Survivor distances are untouched: fat-tree links attach leaves to
  // switches, so removing a leaf removes no inter-leaf capacity.
  for (int a = 0; a < 9; ++a) {
    if (!overlay.is_alive(a)) continue;
    for (int b = 0; b < 9; ++b) {
      if (!overlay.is_alive(b)) continue;
      EXPECT_EQ(overlay.distance(a, b), base->distance(a, b));
    }
  }
  EXPECT_THROW(overlay.distance(4, 0), precondition_error);
}

TEST(FaultOverlay, NameEncodesVersionForCacheKeys) {
  FaultOverlay overlay(ring8());
  const std::string before = overlay.name();
  overlay.fail_link(2, 3);
  EXPECT_NE(overlay.name(), before);
}

TEST(SubTopology, ReindexesAndPreservesMetric) {
  const auto base = make_topology("torus:4x4");
  SubTopology sub(base, {0, 1, 2, 5, 9, 10});
  EXPECT_EQ(sub.size(), 6);
  EXPECT_EQ(sub.node_of(3), 5);
  EXPECT_EQ(sub.distance(0, 3), base->distance(0, 5));
  // Adjacent subset members route entirely inside the subset...
  EXPECT_EQ(sub.route(0, 1), (std::vector<int>{0, 1}));
  // ...but a route forced through an excluded hop (2 -> 6 -> 10, with base
  // node 6 excluded) cannot be expressed in compact ids.
  EXPECT_THROW(sub.route(2, 5), precondition_error);
  EXPECT_EQ(sub.route_in_base(0, 3), base->route(0, 5));
  std::vector<std::uint16_t> row(6);
  sub.write_distance_row(1, row.data());
  for (int j = 0; j < 6; ++j)
    EXPECT_EQ(row[static_cast<std::size_t>(j)],
              base->distance(1, sub.node_of(j)));
}

TEST(SubTopology, RejectsDisconnectedSubsets) {
  const auto base = std::make_shared<TorusMesh>(TorusMesh::mesh({5}));
  auto overlay = std::make_shared<FaultOverlay>(base);
  overlay->fail_node(2);  // splits {0,1} from {3,4}
  EXPECT_THROW(SubTopology(overlay, overlay->alive_procs()),
               precondition_error);
  EXPECT_THROW(SubTopology(base, {}), precondition_error);
  EXPECT_THROW(SubTopology(base, {1, 0}), precondition_error);  // unsorted
}

// ---------------------------------------------------------------------------
// Property: after every fault — hard link failures, node deaths, and soft
// degrades (including health-1.0 restores) interleaved at random — the
// incrementally repaired cache is byte-identical to a cache rebuilt from
// scratch on the faulted overlay — matrix bytes, stored means, and
// diameter — under 1 and 4 threads.
// ---------------------------------------------------------------------------

struct FaultStep {
  enum class Kind { kLinkFail, kNodeFail, kDegrade };
  Kind kind = Kind::kLinkFail;
  int a = 0;
  int b = 0;
  double health = 1.0;
};

/// Apply `steps` faults drawn from rng, repairing after each, and check the
/// repaired cache against a rebuild.  Writes the final matrix bytes into
/// `out_matrix` for cross-thread-count comparison.
void run_fault_sequence(const TopologyPtr& base, std::uint64_t seed, int steps,
                        std::vector<std::uint16_t>* out_matrix) {
  auto overlay = std::make_shared<FaultOverlay>(base);
  DistanceCache repaired(*overlay);
  Rng rng(seed);
  const int p = base->size();
  const bool links_ok = base->has_adjacency();
  // Degrade healths cycle through worsenings and a full restore, so the
  // sequence also crosses the weighted<->unweighted plane transitions.
  const double healths[] = {0.5, 0.25, 0.75, 1.0};
  for (int step = 0; step < steps; ++step) {
    // Draw a fault that is actually applicable (alive node / alive link).
    FaultStep f;
    bool found = false;
    for (int tries = 0; tries < 256 && !found; ++tries) {
      const int a =
          static_cast<int>(rng.uniform(static_cast<std::uint64_t>(p)));
      if (!overlay->is_alive(a)) continue;
      const std::uint64_t kind = links_ok ? rng.uniform(4) : 3;
      if (kind < 3) {  // link fail or degrade
        const auto nb = overlay->neighbors(a);
        if (nb.empty()) continue;
        f.a = a;
        f.b = nb[static_cast<std::size_t>(
            rng.uniform(static_cast<std::uint64_t>(nb.size())))];
        if (kind == 0) {
          f.kind = FaultStep::Kind::kLinkFail;
        } else {
          f.kind = FaultStep::Kind::kDegrade;
          f.health = healths[rng.uniform(4)];
        }
        found = true;
      } else {
        if (overlay->num_alive() <= 2) continue;  // keep survivors around
        f = {FaultStep::Kind::kNodeFail, a, 0, 1.0};
        found = true;
      }
    }
    if (!found) break;

    switch (f.kind) {
      case FaultStep::Kind::kLinkFail: {
        const int prev = overlay->fail_link(f.a, f.b);
        repaired.repair_link_failure(*overlay, f.a, f.b, prev);
        break;
      }
      case FaultStep::Kind::kNodeFail:
        overlay->fail_node(f.a);
        repaired.repair_node_failure(*overlay, f.a);
        break;
      case FaultStep::Kind::kDegrade: {
        const int prev = overlay->degrade_link(f.a, f.b, f.health);
        repaired.repair_link_degrade(*overlay, f.a, f.b, prev);
        break;
      }
    }

    const DistanceCache fresh(*overlay);
    ASSERT_EQ(repaired.size(), fresh.size());
    ASSERT_EQ(repaired.scale(), fresh.scale())
        << "plane units diverged after step " << step << " on "
        << overlay->name();
    const std::size_t bytes = static_cast<std::size_t>(p) *
                              static_cast<std::size_t>(p) *
                              sizeof(std::uint16_t);
    ASSERT_EQ(std::memcmp(repaired.row(0), fresh.row(0), bytes), 0)
        << "matrix diverged after step " << step << " on " << overlay->name();
    for (int q = 0; q < p; ++q)
      ASSERT_EQ(repaired.mean_distance_from(q), fresh.mean_distance_from(q))
          << "mean diverged for row " << q << " after step " << step << " on "
          << overlay->name();
    ASSERT_EQ(repaired.diameter(), fresh.diameter())
        << "diameter diverged after step " << step;
  }
  const auto n2 = static_cast<std::size_t>(p) * static_cast<std::size_t>(p);
  out_matrix->assign(repaired.row(0), repaired.row(0) + n2);
}

TEST(DistanceCacheRepair, RepairedEqualsRebuiltAcrossRandomFaultSequences) {
  const std::vector<std::string> specs = {"torus:6x6", "mesh:4x5",
                                          "hypercube:5", "fattree:3x2"};
  for (const std::string& spec : specs) {
    const auto base = make_topology(spec);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      std::vector<std::uint16_t> matrix_1thread;
      for (const int threads : {1, 4}) {
        support::set_num_threads(threads);
        std::vector<std::uint16_t> matrix;
        run_fault_sequence(base, seed, 6, &matrix);
        if (HasFatalFailure()) {
          support::set_num_threads(1);
          return;
        }
        if (threads == 1)
          matrix_1thread = matrix;
        else
          EXPECT_EQ(matrix, matrix_1thread)
              << spec << " seed " << seed
              << ": repaired matrix depends on thread count";
      }
      support::set_num_threads(1);
    }
  }
}

TEST(DistanceCacheRepair, LinkRepairTouchesOnlyAffectedRows) {
  // On an odd (non-bipartite) torus, sources equidistant from both link
  // endpoints cannot have the link on any shortest path: the repair must
  // BFS-recompute a strict subset of rows, not all of them.
  const auto base = make_topology("torus:9x9");
  auto overlay = std::make_shared<FaultOverlay>(base);
  DistanceCache cache(*overlay);
  overlay->fail_link(0, 1);
  const int recomputed = cache.repair_link_failure(*overlay, 0, 1);
  EXPECT_GT(recomputed, 0);
  EXPECT_LT(recomputed, base->size());
}

TEST(DistanceCacheRepair, FatTreeNodeRepairIsPatchOnly) {
  // Leaf removal never perturbs survivor distances on a distance model:
  // zero rows should be BFS-recomputed.
  const auto base = make_topology("fattree:3x2");
  auto overlay = std::make_shared<FaultOverlay>(base);
  DistanceCache cache(*overlay);
  overlay->fail_node(4);
  EXPECT_EQ(cache.repair_node_failure(*overlay, 4), 0);
}

TEST(DistanceCacheRepair, ValidatesRepairRequests) {
  const auto base = make_topology("torus:4x4");
  auto overlay = std::make_shared<FaultOverlay>(base);
  DistanceCache cache(*overlay);
  // Repair of a fault that was never injected is a contract violation.
  EXPECT_THROW(cache.repair_link_failure(*overlay, 0, 1), precondition_error);
  EXPECT_THROW(cache.repair_node_failure(*overlay, 3), precondition_error);
}

}  // namespace
}  // namespace topomap::topo

namespace topomap::core {
namespace {

using topo::FaultOverlay;
using topo::make_topology;

TEST(MapOnAlive, ProducesValidAliveOnlyInjectiveMapping) {
  const auto g = graph::stencil_2d(3, 4, 1.0);  // 12 tasks
  auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:4x4"));
  overlay->fail_node(0);
  overlay->fail_node(7);
  overlay->fail_node(10);  // 13 alive
  const auto strategy = make_strategy("topolb");
  Rng rng(1);
  const Mapping m = map_on_alive(*strategy, g, *overlay, rng);
  ASSERT_EQ(m.size(), 12u);
  std::vector<char> used(16, 0);
  for (int proc : m) {
    ASSERT_GE(proc, 0);
    ASSERT_LT(proc, 16);
    EXPECT_TRUE(overlay->is_alive(proc));
    EXPECT_FALSE(used[static_cast<std::size_t>(proc)]);
    used[static_cast<std::size_t>(proc)] = 1;
  }
  // Deterministic strategy => deterministic alive-subset mapping.
  Rng rng2(999);
  EXPECT_EQ(map_on_alive(*strategy, g, *overlay, rng2), m);
}

TEST(MapOnAlive, RejectsOverfullAndDisconnectedMachines) {
  const auto g = graph::stencil_2d(4, 4, 1.0);  // 16 tasks
  auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:4x4"));
  overlay->fail_node(2);
  const auto strategy = make_strategy("topolb");
  Rng rng(1);
  EXPECT_THROW(map_on_alive(*strategy, g, *overlay, rng), precondition_error);

  const auto small = graph::stencil_2d(1, 3, 1.0);  // 3 tasks
  auto split = std::make_shared<FaultOverlay>(make_topology("mesh:5"));
  split->fail_node(2);  // {0,1} | {3,4}
  EXPECT_THROW(map_on_alive(*strategy, small, *split, rng),
               precondition_error);
}

TEST(MapOnAlive, LinkFaultsSteerPlacementAwayFromTheCut) {
  // With heavy traffic and a severed ring link, mapping on the overlay must
  // still produce a valid bijection and respect rerouted distances.
  const auto g = graph::ring(8, 16.0);
  auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:8"));
  overlay->fail_link(3, 4);
  const auto strategy = make_strategy("topolb");
  Rng rng(1);
  const Mapping m = map_on_alive(*strategy, g, *overlay, rng);
  EXPECT_TRUE(is_one_to_one(m, *overlay));
}

}  // namespace
}  // namespace topomap::core

namespace topomap::rts {
namespace {

using topo::FaultOverlay;
using topo::make_topology;

TEST(Evacuate, TieBreaksToLowestProcessorId) {
  // Ring of 4 heavy tasks on alternate processors of an 8-ring; killing
  // proc 2 strands task 1, whose neighbours sit on procs 0 and 4.  The
  // death cuts the ring, so on the rerouted metric the free processors
  // cost 6 (procs 1, 3 — walled off from one neighbour) or 4 (procs 5, 7,
  // equidistant).  The documented tie-break — lowest processor id among
  // the tied best — must pick proc 5, every run, any thread count.
  const auto g = graph::ring(4, 8.0);
  auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:8"));
  const core::Mapping previous{0, 2, 4, 6};
  overlay->fail_node(2);
  const EvacuationResult r =
      evacuate(g, *overlay, previous, {.refine_passes = 0});
  EXPECT_EQ(r.stranded, 1);
  EXPECT_EQ(r.migrations, 1);
  ASSERT_EQ(r.mapping.size(), 4u);
  EXPECT_EQ(r.mapping[1], 5);
  // Survivors keep their seats.
  EXPECT_EQ(r.mapping[0], 0);
  EXPECT_EQ(r.mapping[2], 4);
  EXPECT_EQ(r.mapping[3], 6);
}

TEST(Evacuate, CompareEvacuateVsRemapIsThreadCountInvariant) {
  // Same faults (two deaths + one soft degrade, so the weighted plane is
  // active), same seed: the evacuation and the full remap must be
  // byte-identical under 1 and 4 mapping threads.
  const auto g = graph::stencil_2d(5, 6, 1000.0);  // 30 tasks
  const auto base = make_topology("torus:6x6");
  const auto strategy = core::make_strategy("topolb");
  FaultOverlay healthy(base);
  Rng seed_rng(7);
  const core::Mapping previous =
      core::map_on_alive(*strategy, g, healthy, seed_rng);

  auto overlay = std::make_shared<FaultOverlay>(base);
  overlay->fail_node(previous[4]);
  overlay->fail_node(previous[17]);
  overlay->degrade_link(0, 1, 0.5);

  support::set_num_threads(1);
  Rng rng1(3);
  const EvacuateComparison c1 =
      compare_evacuate_vs_remap(g, *overlay, previous, *strategy, rng1);
  support::set_num_threads(4);
  Rng rng4(3);
  const EvacuateComparison c4 =
      compare_evacuate_vs_remap(g, *overlay, previous, *strategy, rng4);
  support::set_num_threads(1);

  EXPECT_EQ(c1.evac.mapping, c4.evac.mapping);
  EXPECT_EQ(c1.evac.stranded, c4.evac.stranded);
  EXPECT_EQ(c1.evac.migrations, c4.evac.migrations);
  EXPECT_EQ(c1.evac.refine_swaps, c4.evac.refine_swaps);
  EXPECT_EQ(c1.evac.hop_bytes, c4.evac.hop_bytes);
  EXPECT_EQ(c1.full_mapping, c4.full_mapping);
  EXPECT_EQ(c1.full_migrations, c4.full_migrations);
  EXPECT_EQ(c1.full_hop_bytes, c4.full_hop_bytes);
}

}  // namespace
}  // namespace topomap::rts
