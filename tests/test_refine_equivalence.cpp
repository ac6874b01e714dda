// Exactness of the pruned kernels: RefineTopoLB's bounded sweep against the
// plain all-pairs first-improvement sweep, and the queued FM pass against
// the linear-scan FM pass.  Both references live only here; the library
// keeps one code path each, and these tests hold it byte-identical to the
// algorithm it replaces — mapping, swap count, pass count, partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_provider.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/swap_kernel.hpp"
#include "core/topo_lb.hpp"
#include "graph/builders.hpp"
#include "graph/synthetic_md.hpp"
#include "obs/obs.hpp"
#include "partition/multilevel.hpp"
#include "support/parallel.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/sub_topology.hpp"

namespace topomap {
namespace {

using core::Mapping;
using core::RefineResult;
using graph::Edge;
using graph::TaskGraph;

// ---------------------------------------------------------------------------
// RefineTopoLB
// ---------------------------------------------------------------------------

/// RefineTopoLB as specified: visit every pair (a, b), a < b, in order,
/// evaluate its delta and swap when it is below -1e-12; repeat until a
/// sweep swaps nothing or max_passes sweeps ran.  No bound, no blocks.
RefineResult all_pairs_refine(const TaskGraph& g, const topo::DistanceCache& c,
                              Mapping m, int max_passes) {
  const core::detail::CachedDistance dist{c};
  const int n = static_cast<int>(m.size());
  RefineResult r;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++r.passes;
    bool improved = false;
    for (int a = 0; a < n; ++a)
      for (int b = a + 1; b < n; ++b)
        if (core::detail::swap_delta_dist(g, dist, m, a, b) < -1e-12) {
          std::swap(m[static_cast<std::size_t>(a)],
                    m[static_cast<std::size_t>(b)]);
          ++r.swaps;
          improved = true;
        }
    if (!improved) break;
  }
  r.mapping = std::move(m);
  return r;
}

/// n tasks on distinct processors drawn uniformly from topo.
Mapping random_mapping(int n, const topo::Topology& topo, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> procs = rng.permutation(topo.size());
  procs.resize(static_cast<std::size_t>(n));
  return procs;
}

/// Graph with non-integer bytes spread over `scale` .. 7.3 * scale.
TaskGraph scaled_random_graph(int n, double p_edge, double scale,
                              std::uint64_t seed) {
  Rng rng(seed);
  return graph::random_graph(n, p_edge, 0.37 * scale, 7.3 * scale, rng);
}

struct RefineCase {
  std::string name;
  TaskGraph g;
  topo::TopologyPtr topo;
  Mapping start;
  bool virtual_too;  ///< also check DistanceMode::kVirtual (cheap distance())
};

std::vector<RefineCase> refine_cases() {
  std::vector<RefineCase> cases;
  const auto add = [&](std::string name, TaskGraph g, topo::TopologyPtr t,
                       std::uint64_t seed, bool virtual_too) {
    Mapping start = random_mapping(g.num_vertices(), *t, seed);
    cases.push_back(
        {std::move(name), std::move(g), std::move(t), std::move(start),
         virtual_too});
  };

  add("non-integer bytes, mesh, n < p",
      scaled_random_graph(130, 0.05, 1.0, 11), topo::make_topology("mesh:12x12"),
      1, true);
  {
    Rng rng(12);
    add("rgg on 3-d torus", graph::random_geometric(125, 0.16, 2.5, rng),
        topo::make_topology("torus:5x5x5"), 2, true);
  }
  {
    auto overlay = std::make_shared<topo::FaultOverlay>(
        topo::make_topology("torus:12x12"));
    overlay->degrade_link(0, 1, 0.5);
    overlay->degrade_link(13, 14, 0.25);
    overlay->degrade_link(40, 52, 0.1);
    overlay->degrade_link(100, 101, 0.7);
    add("degraded-link plane", graph::stencil_2d(12, 12, 3.25), overlay, 3,
        false);
  }
  add("fat-tree", scaled_random_graph(64, 0.1, 10.0, 14),
      topo::make_topology("fattree:4x3"), 4, true);
  add("hypercube", graph::stencil_2d(8, 16, 1.5),
      topo::make_topology("hypercube:7"), 5, true);
  add("dragonfly", scaled_random_graph(72, 0.08, 1.0, 15),
      topo::make_topology("dragonfly:8"), 6, true);
  {
    auto overlay = std::make_shared<topo::FaultOverlay>(
        topo::make_topology("torus:10x10"));
    for (int p : {3, 44, 45, 90}) overlay->fail_node(p);
    overlay->degrade_link(10, 11, 0.5);
    auto sub =
        std::make_shared<topo::SubTopology>(overlay, overlay->alive_procs());
    add("failed-node SubTopology", scaled_random_graph(96, 0.06, 2.0, 16), sub,
        7, false);
  }
  // Bytes near 1e15: many swaps of the uniform stencil have an exactly-zero
  // delta, and with mixed bytes every rounding error is far above the
  // 1e-12 accept threshold.
  add("large magnitude, exact-zero deltas", graph::stencil_2d(12, 12, 1e15),
      topo::make_topology("torus:12x12"), 8, true);
  add("large magnitude, mixed bytes", scaled_random_graph(100, 0.06, 3e14, 17),
      topo::make_topology("torus:10x10"), 9, true);
  {
    // Tasks 0 and 1 sit at the ends of a 5-processor line with their
    // neighbours between them, so every triangle in the bound is tight:
    // the exact bound and the exact delta of swapping them are both 0.
    // In floating point the delta comes out at -2 (accepted) while the
    // bound comes out at +16 — inside the margin, so the pair must still
    // be evaluated.
    TaskGraph::Builder b("fp-margin");
    b.add_vertices(5, 1.0);
    b.add_edge(0, 2, 1e16 + 34.0);
    b.add_edge(0, 3, 1.0);
    b.add_edge(0, 4, 7e15);
    b.add_edge(1, 2, 1e16 + 44.0);
    b.add_edge(1, 3, 11.0);
    b.add_edge(1, 4, 1e15);
    cases.push_back({"FP margin", std::move(b).build(),
                     topo::make_topology("mesh:5"), Mapping{0, 4, 1, 3, 2},
                     true});
  }
  {
    // A TopoLB start: the regime the bound is built for (most pairs far
    // apart, few improving swaps).
    auto t = topo::make_topology("torus:12x12");
    TaskGraph g = graph::stencil_2d(12, 12, 1.0);
    Rng rng(10);
    Mapping start = core::TopoLB().map(g, *t, rng);
    cases.push_back({"stencil from TopoLB", std::move(g), std::move(t),
                     std::move(start), true});
  }
  return cases;
}

class RefineEquivalence : public ::testing::Test {
 protected:
  void TearDown() override { support::set_num_threads(1); }
};

TEST_F(RefineEquivalence, PrunedSweepMatchesAllPairsSweep) {
  for (const RefineCase& c : refine_cases()) {
    SCOPED_TRACE(c.name);
    const topo::DistanceCache cache(*c.topo);
    const RefineResult want = all_pairs_refine(c.g, cache, c.start, 8);
    if (c.name != "stencil from TopoLB") {
      ASSERT_GT(want.swaps, 0);
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      support::set_num_threads(threads);
      const RefineResult got = core::refine_mapping(
          c.g, *c.topo, c.start, 8, core::DistanceMode::kCached, &cache);
      EXPECT_EQ(got.mapping, want.mapping);
      EXPECT_EQ(got.swaps, want.swaps);
      EXPECT_EQ(got.passes, want.passes);
      if (c.virtual_too) {
        const RefineResult virt = core::refine_mapping(
            c.g, *c.topo, c.start, 8, core::DistanceMode::kVirtual);
        EXPECT_EQ(virt.mapping, want.mapping);
        EXPECT_EQ(virt.swaps, want.swaps);
      }
    }
  }
}

TEST_F(RefineEquivalence, SinglePassStopsWhereTheSweepDoes) {
  // max_passes cuts the sweep mid-convergence: the first pass alone must
  // already agree, not just the fixed point.
  for (const RefineCase& c : refine_cases()) {
    SCOPED_TRACE(c.name);
    const topo::DistanceCache cache(*c.topo);
    const RefineResult want = all_pairs_refine(c.g, cache, c.start, 1);
    const RefineResult got = core::refine_mapping(
        c.g, *c.topo, c.start, 1, core::DistanceMode::kCached, &cache);
    EXPECT_EQ(got.mapping, want.mapping);
    EXPECT_EQ(got.swaps, want.swaps);
  }
}

#if defined(TOPOMAP_OBS_ENABLED)

TEST_F(RefineEquivalence, PrunedPairCounterIsThreadCountInvariant) {
  const auto t = topo::make_topology("torus:12x12");
  const TaskGraph g = graph::stencil_2d(12, 12, 1.0);
  Rng rng(10);
  const Mapping start = core::TopoLB().map(g, *t, rng);
  obs::set_enabled(true);
  const auto run = [&](int threads) {
    support::set_num_threads(threads);
    obs::Registry::instance().reset();
    core::refine_mapping(g, *t, start);
    return obs::Registry::instance().counters();
  };
  const auto one = run(1);
  const auto four = run(4);
  obs::set_enabled(false);
  obs::Registry::instance().reset();

  ASSERT_EQ(one.count("refine/pairs_pruned"), 1u);
  EXPECT_EQ(one.at("refine/pairs_pruned"), four.at("refine/pairs_pruned"));
  EXPECT_EQ(one.at("refine/swap_attempts"), four.at("refine/swap_attempts"));
  EXPECT_GT(one.at("refine/pairs_pruned"), 0u);
  EXPECT_LE(one.at("refine/pairs_pruned"), one.at("refine/swap_attempts"));
}

#else

TEST_F(RefineEquivalence, ObsOffBuildRecordsNoPrunedPairs) {
  const auto t = topo::make_topology("torus:8x8");
  const TaskGraph g = graph::stencil_2d(8, 8, 1.0);
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  core::refine_mapping(g, *t, random_mapping(64, *t, 3));
  const auto counters = obs::Registry::instance().counters();
  obs::set_enabled(false);
  EXPECT_EQ(counters.count("refine/pairs_pruned"), 0u);
}

#endif  // TOPOMAP_OBS_ENABLED

// ---------------------------------------------------------------------------
// FM
// ---------------------------------------------------------------------------

/// How often the linear scan met the situations the queued pass has
/// dedicated paths for.
struct ScanEvents {
  int side_blocked = 0;  ///< a side had unlocked vertices but none fit
  int heavy_front = 0;   ///< a side's best-gain vertex did not fit, another did
};

/// The FM pass as a linear scan: every step looks at all n vertices and
/// moves the first one with the strictly highest gain whose move keeps the
/// receiving side within max_side.
bool linear_fm_pass(const TaskGraph& g, const std::vector<double>& w,
                    const double max_side[2], std::vector<int>& side,
                    ScanEvents* events) {
  const int n = g.num_vertices();
  std::vector<double> gain(static_cast<std::size_t>(n), 0.0);
  double side_weight[2] = {0.0, 0.0};
  for (int v = 0; v < n; ++v)
    side_weight[side[static_cast<std::size_t>(v)]] +=
        w[static_cast<std::size_t>(v)];
  for (int v = 0; v < n; ++v)
    for (const Edge& e : g.edges_of(v))
      gain[static_cast<std::size_t>(v)] +=
          side[static_cast<std::size_t>(e.neighbor)] !=
                  side[static_cast<std::size_t>(v)]
              ? e.bytes
              : -e.bytes;

  std::vector<char> locked(static_cast<std::size_t>(n), 0);
  std::vector<int> moved;
  double cum = 0.0, best_cum = 0.0;
  int best_prefix = 0;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (int v = 0; v < n; ++v) {
      if (locked[static_cast<std::size_t>(v)]) continue;
      const int to = 1 - side[static_cast<std::size_t>(v)];
      if (side_weight[to] + w[static_cast<std::size_t>(v)] > max_side[to])
        continue;
      if (gain[static_cast<std::size_t>(v)] > best_gain) {
        best_gain = gain[static_cast<std::size_t>(v)];
        best = v;
      }
    }
    for (int s : {0, 1}) {  // event bookkeeping only
      int top = -1, top_fit = -1;
      for (int v = 0; v < n; ++v) {
        if (locked[static_cast<std::size_t>(v)] ||
            side[static_cast<std::size_t>(v)] != s)
          continue;
        const bool fits = !(side_weight[1 - s] +
                                w[static_cast<std::size_t>(v)] >
                            max_side[1 - s]);
        if (top < 0 || gain[static_cast<std::size_t>(v)] >
                           gain[static_cast<std::size_t>(top)])
          top = v;
        if (fits && (top_fit < 0 || gain[static_cast<std::size_t>(v)] >
                                        gain[static_cast<std::size_t>(top_fit)]))
          top_fit = v;
      }
      if (top >= 0 && top_fit < 0) ++events->side_blocked;
      if (top_fit >= 0 && top_fit != top) ++events->heavy_front;
    }
    if (best < 0) break;

    const int from = side[static_cast<std::size_t>(best)];
    side[static_cast<std::size_t>(best)] = 1 - from;
    side_weight[from] -= w[static_cast<std::size_t>(best)];
    side_weight[1 - from] += w[static_cast<std::size_t>(best)];
    locked[static_cast<std::size_t>(best)] = 1;
    moved.push_back(best);
    cum += best_gain;
    for (const Edge& e : g.edges_of(best)) {
      if (locked[static_cast<std::size_t>(e.neighbor)]) continue;
      gain[static_cast<std::size_t>(e.neighbor)] +=
          side[static_cast<std::size_t>(e.neighbor)] == from ? 2.0 * e.bytes
                                                             : -2.0 * e.bytes;
    }
    if (cum > best_cum + 1e-12) {
      best_cum = cum;
      best_prefix = static_cast<int>(moved.size());
    }
  }
  for (int i = static_cast<int>(moved.size()) - 1; i >= best_prefix; --i) {
    const int v = moved[static_cast<std::size_t>(i)];
    side[static_cast<std::size_t>(v)] = 1 - side[static_cast<std::size_t>(v)];
  }
  return best_cum > 1e-12;
}

void linear_fm_refine(const TaskGraph& g, const std::vector<double>& w,
                      std::vector<int>& side, double target_left, double eps,
                      int passes, ScanEvents* events) {
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  const double max_side[2] = {target_left * total * (1.0 + eps),
                              (1.0 - target_left) * total * (1.0 + eps)};
  for (int pass = 0; pass < passes; ++pass)
    if (!linear_fm_pass(g, w, max_side, side, events)) break;
}

/// Balancing weights as the partitioner uses them.
std::vector<double> weights_of(const TaskGraph& g) {
  std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  if (g.total_vertex_weight() > 0.0)
    for (int v = 0; v < g.num_vertices(); ++v)
      w[static_cast<std::size_t>(v)] = g.vertex_weight(v);
  return w;
}

/// Graphs with non-uniform vertex weights: an MD workload, the levels
/// coarsen_once builds from it, and a stencil with a few very heavy
/// vertices (a best-gain vertex that does not fit must be walked past).
std::vector<std::pair<std::string, TaskGraph>> fm_graphs() {
  std::vector<std::pair<std::string, TaskGraph>> out;
  Rng rng(21);
  graph::MdParams md;
  md.cells_x = 3;
  md.cells_y = 3;
  md.cells_z = 2;
  TaskGraph g = graph::synthetic_md(md, rng);
  out.emplace_back("md", g);
  for (int level = 1; level <= 3; ++level) {
    part::CoarseLevel next;
    if (!part::coarsen_once(g, std::numeric_limits<double>::infinity(), rng,
                            &next))
      break;
    g = std::move(next.coarse);
    out.emplace_back("md coarsen level " + std::to_string(level), g);
  }
  {
    const TaskGraph s = graph::stencil_2d(14, 14, 1.0);
    TaskGraph::Builder b("heavy-stencil");
    for (int v = 0; v < s.num_vertices(); ++v)
      b.add_vertex(v % 17 == 0 ? 9.0 : 1.0 + 0.25 * (v % 3));
    for (const graph::UndirectedEdge& e : s.edges())
      b.add_edge(e.a, e.b, 1.0 + 0.5 * ((e.a + e.b) % 5));
    out.emplace_back("heavy stencil", std::move(b).build());
  }
  return out;
}

TEST(FmEquivalence, QueuedPassMatchesLinearScan) {
  ScanEvents events;
  const auto graphs = fm_graphs();
  ASSERT_GE(graphs.size(), 4u);  // md, >= 2 coarsened levels, heavy stencil
  for (const auto& [name, g] : graphs) {
    const std::vector<double> w = weights_of(g);
    const int n = g.num_vertices();
    for (double target_left : {0.5, 0.3}) {
      for (double eps : {0.0, 0.005, 0.08}) {
        for (std::uint64_t seed : {1u, 2u}) {
          SCOPED_TRACE(name + " target " + std::to_string(target_left) +
                       " eps " + std::to_string(eps) + " seed " +
                       std::to_string(seed));
          // Start from a random split skewed towards side 1, so the
          // balance caps bind from the first step.
          Rng rng(seed);
          std::vector<int> start(static_cast<std::size_t>(n));
          for (int& s : start) s = rng.bernoulli(0.35) ? 0 : 1;
          std::vector<int> want = start;
          linear_fm_refine(g, w, want, target_left, eps, 4, &events);
          std::vector<int> got = start;
          part::fm_refine(g, w, got, target_left, eps, 4);
          EXPECT_EQ(got, want);
        }
      }
    }
  }
  // The instances exercise both shortcuts of the queued pass.
  EXPECT_GT(events.side_blocked, 0);
  EXPECT_GT(events.heavy_front, 0);
}

}  // namespace
}  // namespace topomap
