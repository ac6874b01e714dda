// HierTopoLB tests: projection exactness of the multilevel pipeline,
// thread-count invariance of the scale-up path, empty-group quotient
// vertices under every strategy spec, and the overflow regressions for
// byte totals crossing 2^31 (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "core/hier_topo_lb.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/quotient.hpp"
#include "partition/multilevel.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"

namespace topomap::core {
namespace {

using graph::TaskGraph;

HierOptions projection_only() {
  HierOptions o;
  o.refine_passes = 0;
  o.coarse_refine_passes = 0;
  return o;
}

/// With refinement disabled and no machine contraction, the fine mapping
/// is exactly the coarse mapping read through the composed assignment, and
/// the fine hop-bytes equal the quotient hop-bytes: bytes that vanish into
/// coarse vertices are precisely the intra-group bytes, which travel zero
/// hops.
TEST(HierProjection, ExactAcrossTopologies) {
  const TaskGraph g = graph::stencil_2d(32, 32, 1.0);
  for (const char* spec : {"torus:4x4x4", "mesh:8x8", "hypercube:6"}) {
    SCOPED_TRACE(spec);
    const auto t = topo::make_topology(spec);
    ASSERT_EQ(t->size(), 64);
    Rng rng(3);
    const HierResult r = hier_map(g, *t, rng, projection_only());

    ASSERT_EQ(static_cast<int>(r.mapping.size()), g.num_vertices());
    ASSERT_EQ(static_cast<int>(r.coarse_assignment.size()), g.num_vertices());
    ASSERT_EQ(static_cast<int>(r.coarse_mapping.size()), t->size());
    ASSERT_EQ(r.quotient.num_vertices(), t->size());
    EXPECT_GT(r.task_levels, 0);
    EXPECT_EQ(r.topo_levels, 0);

    // Pure projection: fine placement == coarse placement of the group.
    for (int v = 0; v < g.num_vertices(); ++v) {
      ASSERT_GE(r.coarse_assignment[v], 0);
      ASSERT_LT(r.coarse_assignment[v], t->size());
      ASSERT_EQ(r.mapping[v], r.coarse_mapping[r.coarse_assignment[v]]);
    }

    // Coarse hop-bytes == projected fine hop-bytes (exact: unit bytes).
    const double fine_hb = hop_bytes(g, *t, r.mapping);
    const double coarse_hb = hop_bytes(r.quotient, *t, r.coarse_mapping);
    EXPECT_DOUBLE_EQ(fine_hb, coarse_hb);
    EXPECT_DOUBLE_EQ(coarse_hb, r.coarse_hop_bytes);
    ASSERT_FALSE(r.trajectory.empty());
    EXPECT_DOUBLE_EQ(r.trajectory.back().hop_bytes, fine_hb);
    EXPECT_EQ(r.trajectory.back().vertices, g.num_vertices());

    // Vanished bytes == intra-group bytes.
    double intra = 0.0;
    for (const auto& e : g.edges())
      if (r.coarse_assignment[e.a] == r.coarse_assignment[e.b])
        intra += e.bytes;
    EXPECT_DOUBLE_EQ(g.total_comm_bytes() - r.quotient.total_comm_bytes(),
                     intra);
  }
}

TEST(HierProjection, BalancedManyToOne) {
  const TaskGraph g = graph::stencil_2d(32, 32, 1.0);
  const auto t = topo::make_topology("torus:4x4x4");
  Rng rng(3);
  const HierResult r = hier_map(g, *t, rng);
  std::vector<int> load(64, 0);
  for (int p : r.mapping) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 64);
    ++load[p];
  }
  const int ideal = g.num_vertices() / t->size();  // 16
  for (int p = 0; p < 64; ++p) {
    EXPECT_GT(load[p], 0) << "processor " << p << " left empty";
    EXPECT_LE(load[p], 2 * ideal) << "processor " << p << " overloaded";
  }
}

TEST(HierMapping, SquareBypassMatchesFlatQuality) {
  // n == p within flat_square_cap: the hierarchy must not engage, so the
  // result is a bijection whose hop-bytes never trail flat TopoLB's.
  const TaskGraph g = graph::stencil_3d(8, 8, 8, 1.0);
  const auto t = topo::make_topology("torus:8x8x8");
  Rng rng_h(3), rng_f(3);
  const HierResult r = hier_map(g, *t, rng_h);
  EXPECT_EQ(r.topo_levels, 0);
  EXPECT_EQ(r.task_levels, 0);
  std::vector<int> sorted = r.mapping;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < t->size(); ++i) ASSERT_EQ(sorted[i], i);
  const auto flat = make_strategy("topolb");
  const double flat_hb = hop_bytes(g, *t, flat->map(g, *t, rng_f));
  EXPECT_LE(hop_bytes(g, *t, r.mapping), flat_hb * 1.0 + 1e-9);
}

/// The full contracted pipeline (machine coarsening, quota splits, swap
/// passes) is byte-identical for any worker-pool width at a fixed seed.
TEST(HierMapping, ThreadInvarianceOnContractedPath) {
  const TaskGraph g = graph::stencil_3d(12, 12, 12, 1.0);
  const auto t = topo::make_topology("torus:8x8x8");
  HierOptions o;
  o.flat_proc_cap = 64;  // force machine contraction on a 512-proc torus
  o.flat_square_cap = 0;

  const auto run = [&](int threads) {
    support::set_num_threads(threads);
    Rng rng(11);
    return hier_map(g, *t, rng, o);
  };
  const HierResult one = run(1);
  const HierResult four = run(4);
  support::set_num_threads(1);

  EXPECT_GT(one.topo_levels, 0);
  EXPECT_EQ(one.mapping, four.mapping);
  EXPECT_EQ(one.coarse_assignment, four.coarse_assignment);
  EXPECT_EQ(one.coarse_mapping, four.coarse_mapping);
  EXPECT_EQ(one.swaps, four.swaps);
  ASSERT_EQ(one.trajectory.size(), four.trajectory.size());
  for (std::size_t i = 0; i < one.trajectory.size(); ++i)
    EXPECT_DOUBLE_EQ(one.trajectory[i].hop_bytes,
                     four.trajectory[i].hop_bytes);

  // And deterministic across repeated runs at the same width.
  const HierResult again = run(4);
  support::set_num_threads(1);
  EXPECT_EQ(four.mapping, again.mapping);
}

TEST(Coarsener, ThreadInvariantForFixedSeed) {
  const TaskGraph g = graph::stencil_2d(16, 16, 1.0);
  const auto run = [&](int threads) {
    support::set_num_threads(threads);
    Rng rng(7);
    part::CoarseLevel level;
    EXPECT_TRUE(part::coarsen_once(g, 1e9, rng, &level));
    return level;
  };
  const part::CoarseLevel one = run(1);
  const part::CoarseLevel four = run(4);
  support::set_num_threads(1);
  EXPECT_EQ(one.fine_to_coarse, four.fine_to_coarse);
  ASSERT_EQ(one.coarse.num_vertices(), four.coarse.num_vertices());
  ASSERT_EQ(one.coarse.num_edges(), four.coarse.num_edges());
  for (int i = 0; i < one.coarse.num_edges(); ++i) {
    EXPECT_EQ(one.coarse.edges()[i].a, four.coarse.edges()[i].a);
    EXPECT_EQ(one.coarse.edges()[i].b, four.coarse.edges()[i].b);
    EXPECT_DOUBLE_EQ(one.coarse.edges()[i].bytes, four.coarse.edges()[i].bytes);
  }
}

/// Empty quotient groups (isolated zero-weight vertices) must not skew or
/// crash any strategy: every spec still returns a bijection.
TEST(EmptyGroups, AllStrategySpecsMapThem) {
  const TaskGraph g = graph::stencil_2d(4, 4, 2.0);
  // 16 tasks into 8 groups, leaving groups 3 and 5 empty.
  std::vector<int> assignment(16);
  const int used[] = {0, 1, 2, 4, 6, 7};
  for (int v = 0; v < 16; ++v) assignment[v] = used[v % 6];
  const TaskGraph q = graph::quotient_graph(g, assignment, 8);
  ASSERT_EQ(q.num_vertices(), 8);
  EXPECT_DOUBLE_EQ(q.vertex_weight(3), 0.0);
  EXPECT_DOUBLE_EQ(q.vertex_weight(5), 0.0);
  EXPECT_DOUBLE_EQ(q.comm_bytes(3), 0.0);

  const auto t = topo::make_topology("mesh:2x4");
  for (const char* spec :
       {"random", "greedy", "topocent", "topolb", "topolb1", "topolb3",
        "recursive", "anneal", "anneal-warm", "hier", "hier+refine"}) {
    SCOPED_TRACE(spec);
    Rng rng(5);
    const Mapping m = make_strategy(spec)->map(q, *t, rng);
    std::vector<int> sorted = m;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 8; ++i) ASSERT_EQ(sorted[i], i);
  }
}

TEST(Overflow, BuilderProductsAreGuarded) {
  EXPECT_THROW(graph::stencil_2d(50000, 50000, 1.0), precondition_error);
  EXPECT_THROW(graph::stencil_3d(1300, 1300, 1300, 1.0), precondition_error);
  EXPECT_THROW(graph::transpose(46341, 1.0), precondition_error);
}

/// Byte totals past 2^31 stay exact end to end: graph totals, quotient
/// conservation, and crossing hop-bytes.  3e8 is integral, so double sums
/// of a few hundred terms are exact and the comparisons can be strict.
TEST(Overflow, ByteTotalsPastTwoPow31) {
  const double big = 3e8;
  const TaskGraph g = graph::stencil_2d(8, 8, big);
  const double expect_total = static_cast<double>(g.num_edges()) * big;
  EXPECT_GT(expect_total, 2147483648.0);
  EXPECT_DOUBLE_EQ(g.total_comm_bytes(), expect_total);

  std::vector<int> assignment(64);
  for (int v = 0; v < 64; ++v) assignment[v] = v % 4;
  const TaskGraph q = graph::quotient_graph(g, assignment, 4);
  double intra = 0.0;
  for (const auto& e : g.edges())
    if (assignment[e.a] == assignment[e.b]) intra += e.bytes;
  EXPECT_DOUBLE_EQ(q.total_comm_bytes() + intra, g.total_comm_bytes());

  // Hier end-to-end: crossing hop-bytes > 2^31, and the trajectory's
  // final entry agrees with the independent metrics sum.
  const auto t = topo::make_topology("mesh:2x2");
  Rng rng(3);
  const HierResult r = hier_map(g, *t, rng);
  const double hb = hop_bytes(g, *t, r.mapping);
  EXPECT_GT(hb, 2147483648.0);
  ASSERT_FALSE(r.trajectory.empty());
  EXPECT_NEAR(r.trajectory.back().hop_bytes, hb, hb * 1e-12);
}

TEST(HierStrategy, FactoryWiring) {
  const auto hier = make_strategy("hier");
  EXPECT_EQ(hier->name(), "HierTopoLB");
  EXPECT_TRUE(hier->supports_oversubscription());
  const auto refined = make_strategy("hier+refine");
  EXPECT_EQ(refined->name(), "HierTopoLB+refine");
  EXPECT_TRUE(refined->supports_oversubscription());
  // Flat strategies still refuse oversubscription.
  EXPECT_FALSE(make_strategy("topolb")->supports_oversubscription());

  const TaskGraph g = graph::stencil_2d(8, 8, 1.0);
  const auto t = topo::make_topology("torus:4x4");
  Rng rng(1);
  const Mapping m = refined->map(g, *t, rng);
  ASSERT_EQ(static_cast<int>(m.size()), 64);
  for (int p : m) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 16);
  }
}

TEST(HierMapping, RejectsFewerTasksThanProcs) {
  const TaskGraph g = graph::stencil_2d(2, 2, 1.0);
  const auto t = topo::make_topology("torus:4x4");
  Rng rng(1);
  EXPECT_THROW(hier_map(g, *t, rng), precondition_error);
}

/// The node plane's batch rows and row means (gathered from the base's
/// own rows) equal what per-pair distance() calls give.
TEST(HierNodePlane, RowsAndMeansMatchPerPairDistances) {
  auto overlay =
      std::make_shared<topo::FaultOverlay>(topo::make_topology("torus:8x8x6"));
  overlay->degrade_link(0, 1, 0.25);
  overlay->degrade_link(20, 28, 0.5);
  for (const topo::TopologyPtr& base :
       {topo::make_topology("torus:16x16x8"), topo::make_topology("mesh:40x30"),
        topo::TopologyPtr(overlay)}) {
    SCOPED_TRACE(base->name());
    const auto plane = hier_node_plane(*base, 120);
    const int k = plane->size();
    std::vector<std::uint16_t> row(static_cast<std::size_t>(k));
    for (int p = 0; p < k; p += 29) {
      plane->write_distance_row(p, row.data());
      long long total = 0;
      for (int q = 0; q < k; ++q) {
        const int d = plane->distance(p, q);
        ASSERT_EQ(row[static_cast<std::size_t>(q)], d);
        total += d;
      }
      EXPECT_EQ(plane->mean_distance_from(p),
                static_cast<double>(total) / static_cast<double>(k));
    }
  }
}

}  // namespace
}  // namespace topomap::core
