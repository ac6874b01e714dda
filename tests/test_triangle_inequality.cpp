// Property: every distance plane the mapping kernels read is a metric —
// zero diagonal, symmetric, and d(a,c) <= d(a,b) + d(b,c) — and is exactly
// the topology's own metric.  RefineTopoLB's swap lower bound
// (core/refine_topo_lb.hpp) holds only on a metric plane, and the kernels
// read DistanceCache rows where the paper's algorithms read
// Topology::distance, so both are checked here for every topology factory
// kind, every fault kind (hard link failure, soft link degradation, node
// death, and the alive-subset view), and hier's contracted node plane.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hier_topo_lb.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"
#include "topo/sub_topology.hpp"

namespace topomap::topo {
namespace {

/// Check that the DistanceCache of t equals t on the processors `procs` —
/// every row entry is t.distance() and every mean is t.mean_distance_from(),
/// bit for bit — then the metric axioms: exhaustively for small sets, on
/// random triples otherwise — many through the cached plane, fewer through
/// distance(), which may run a search per call on a faulted machine.
void expect_metric(const Topology& t, const std::vector<int>& procs,
                   std::uint64_t seed) {
  const DistanceCache cache(t);
  int mismatches = 0;
  for (int a : procs) {
    const std::uint16_t* row = cache.row(a);
    for (int b : procs)
      if (row[b] != t.distance(a, b) && ++mismatches <= 5)
        ADD_FAILURE() << t.name() << ": row(" << a << ")[" << b
                      << "]=" << row[b] << " distance=" << t.distance(a, b);
    if (cache.mean_distance_from(a) != t.mean_distance_from(a) &&
        ++mismatches <= 5)
      ADD_FAILURE() << t.name() << ": mean_distance_from(" << a << ") "
                    << cache.mean_distance_from(a)
                    << " != " << t.mean_distance_from(a);
  }
  EXPECT_EQ(mismatches, 0) << t.name();

  const auto k = static_cast<std::uint64_t>(procs.size());
  int violations = 0;
  const auto check = [&](const auto& d, int a, int b, int c) {
    const int ab = d(a, b), bc = d(b, c), ac = d(a, c);
    if (d(a, a) == 0 && ab == d(b, a) && ac <= ab + bc) return;
    if (++violations <= 5)
      ADD_FAILURE() << t.name() << ": (" << a << ", " << b << ", " << c
                    << ") d(a,b)=" << ab << " d(b,c)=" << bc
                    << " d(a,c)=" << ac;
  };
  const auto cached = [&](int a, int b) { return cache.distance(a, b); };
  const auto direct = [&](int a, int b) { return t.distance(a, b); };
  if (k <= 24) {
    for (int a : procs)
      for (int b : procs)
        for (int c : procs) {
          check(cached, a, b, c);
          check(direct, a, b, c);
        }
  } else {
    Rng rng(seed);
    const auto pick = [&] { return procs[rng.uniform(k)]; };
    for (int i = 0; i < 20000; ++i) check(cached, pick(), pick(), pick());
    for (int i = 0; i < 100; ++i) check(direct, pick(), pick(), pick());
  }
  EXPECT_EQ(violations, 0) << t.name();
}

std::vector<int> all_procs(const Topology& t) {
  std::vector<int> procs(static_cast<std::size_t>(t.size()));
  for (int p = 0; p < t.size(); ++p) procs[static_cast<std::size_t>(p)] = p;
  return procs;
}

/// A random existing link (a, b) of o's base.
std::pair<int, int> random_link(const FaultOverlay& o, Rng& rng) {
  for (;;) {
    const int a = static_cast<int>(
        rng.uniform(static_cast<std::uint64_t>(o.size())));
    const std::vector<int> nbrs = o.neighbors(a);
    if (nbrs.empty()) continue;
    return {a, nbrs[rng.uniform(nbrs.size())]};
  }
}

/// True when every alive processor of o reaches every other one.
bool connected(const FaultOverlay& o) {
  const std::vector<int> alive = o.alive_procs();
  std::vector<std::uint16_t> row(static_cast<std::size_t>(o.size()));
  o.write_distance_row(alive.front(), row.data());
  for (int p : alive)
    if (row[static_cast<std::size_t>(p)] == FaultOverlay::kUnreachable)
      return false;
  return true;
}

/// Fail up to `count` random links, undoing any failure that would
/// disconnect an alive processor (an unreachable pair has no finite
/// distance to test).
void fail_links(FaultOverlay& o, int count, Rng& rng) {
  for (int attempt = 0, done = 0; done < count && attempt < 50; ++attempt) {
    const auto [a, b] = random_link(o, rng);
    o.fail_link(a, b);
    if (connected(o))
      ++done;
    else
      o.restore_link(a, b);
  }
}

void degrade_links(FaultOverlay& o, Rng& rng) {
  for (double health : {0.5, 0.25, 0.1, 0.9, 0.6}) {
    const auto [a, b] = random_link(o, rng);
    o.degrade_link(a, b, health);
  }
}

/// Kill up to three random processors, keeping the alive set connected.
void kill_nodes(FaultOverlay& o, Rng& rng) {
  for (int attempt = 0, done = 0; done < 3 && attempt < 50; ++attempt) {
    const int p = static_cast<int>(
        rng.uniform(static_cast<std::uint64_t>(o.size())));
    if (o.node_failed(p)) continue;
    o.fail_node(p);
    if (connected(o))
      ++done;
    else
      o.restore_node(p);
  }
}

const char* const kSpecs[] = {"torus:5x4x3",  "mesh:6x7",     "hybrid:5wx4ox3w",
                              "hypercube:6",  "dragonfly:6",  "fattree:4x3",
                              "torus:3x3",    "mesh:40"};

TEST(TriangleInequality, EveryFactoryKind) {
  std::uint64_t seed = 1;
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    const TopologyPtr t = make_topology(spec);
    expect_metric(*t, all_procs(*t), seed++);
  }
}

TEST(TriangleInequality, EveryFaultKind) {
  std::uint64_t seed = 100;
  for (const char* spec : kSpecs) {
    const TopologyPtr base = make_topology(spec);
    // Hard and soft link faults need links; node death works on every
    // topology, distance models included.
    const bool links = base->has_adjacency();
    for (const std::string kind : {"hard", "soft", "node", "all"}) {
      if (!links && kind != "node") continue;
      SCOPED_TRACE(std::string(spec) + " " + kind);
      Rng rng(seed++);
      auto overlay = std::make_shared<FaultOverlay>(base);
      if (kind == "hard" || kind == "all") fail_links(*overlay, 3, rng);
      if (kind == "soft" || kind == "all") degrade_links(*overlay, rng);
      if (kind == "node" || kind == "all") kill_nodes(*overlay, rng);
      const std::vector<int> alive = overlay->alive_procs();
      expect_metric(*overlay, alive, seed++);
      // The alive-subset view fault-aware mapping runs on.
      const SubTopology sub(overlay, alive);
      expect_metric(sub, all_procs(sub), seed++);
    }
  }
}

TEST(TriangleInequality, HierNodePlane) {
  struct Case {
    TopologyPtr base;
    int cap;
  };
  std::vector<Case> cases;
  cases.push_back({make_topology("torus:16x16x8"), 256});
  cases.push_back({make_topology("mesh:40x30"), 150});
  cases.push_back({make_topology("hypercube:10"), 64});
  cases.push_back({make_topology("dragonfly:8"), 20});
  {
    auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:10x10x6"));
    Rng rng(7);
    degrade_links(*overlay, rng);
    fail_links(*overlay, 2, rng);
    cases.push_back({overlay, 150});
  }
  {
    auto overlay = std::make_shared<FaultOverlay>(make_topology("torus:16x16"));
    Rng rng(8);
    kill_nodes(*overlay, rng);
    cases.push_back(
        {std::make_shared<SubTopology>(overlay, overlay->alive_procs()), 50});
  }
  std::uint64_t seed = 300;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.base->name());
    const auto plane = core::hier_node_plane(*c.base, c.cap);
    ASSERT_LE(plane->size(), c.cap);
    ASSERT_LT(plane->size(), c.base->size());
    expect_metric(*plane, all_procs(*plane), seed++);
  }
}

}  // namespace
}  // namespace topomap::topo
