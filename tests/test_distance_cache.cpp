// Distance-plane engine tests: the dense cache must agree exactly with
// virtual Topology dispatch, golden digests pin every strategy's mappings,
// results must not depend on the worker-pool size, and known-good
// hop-bytes goldens pin the TopoLB / TopoCentLB outputs against silent
// drift.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fat_tree.hpp"

namespace topomap {
namespace {

using core::Mapping;
using graph::TaskGraph;
using topo::DistanceCache;
using topo::make_topology;

const char* const kTopoSpecs[] = {
    "torus:6x6",   "mesh:5x5",  "torus:3x3x3", "mesh:4x3x2",
    "hypercube:5", "fattree:3x3", "dragonfly:5",
};

TEST(DistanceCache, MatchesVirtualDistanceExactly) {
  for (const char* spec : kTopoSpecs) {
    const auto t = make_topology(spec);
    const DistanceCache cache(*t);
    ASSERT_EQ(cache.size(), t->size());
    int max_seen = 0;
    for (int a = 0; a < t->size(); ++a) {
      const std::uint16_t* row = cache.row(a);
      for (int b = 0; b < t->size(); ++b) {
        ASSERT_EQ(static_cast<int>(row[b]), t->distance(a, b))
            << spec << " (" << a << "," << b << ")";
        max_seen = std::max(max_seen, static_cast<int>(row[b]));
      }
      // The determinism contract: the *virtual* mean, bit for bit.
      ASSERT_EQ(cache.mean_distance_from(a), t->mean_distance_from(a)) << spec;
    }
    EXPECT_EQ(cache.diameter(), max_seen) << spec;
  }
}

TEST(DistanceCache, RejectsOversizedTopology) {
  // Beyond the 20000-node dense-matrix cap the cache must refuse instead of
  // silently allocating ~GBs.  The topology itself stays cheap to build.
  EXPECT_NO_THROW(DistanceCache(*make_topology("mesh:16x16")));
  EXPECT_THROW(DistanceCache(*make_topology("fattree:2x15")),  // 32768 leaves
               precondition_error);
}

// Every strategy that reads the distance plane, pinned by a 64-bit FNV-1a
// digest of its mapping at pool widths 1, 2 and 4.  The "random" rows map a
// mixed random workload sized to the machine; their digests were recorded
// while the strategies still had a second distance path that called
// Topology::distance on every lookup, and each one was that path's digest
// too; with DistanceCache rows checked against Topology::distance pair by
// pair (test_triangle_inequality.cpp), they keep the two paths' agreement
// without the second path.  The stencil rows run on machines of more than
// 2048 processors, where TopoLB's per-placement updates once ran as pooled
// regions and TopoCentLB's processor scan, which merges one minimum per
// static chunk of 2048 processors, has two chunks that 2 and 4 workers run
// concurrently; their digests were recorded from the pooled code at 1 and
// 4 workers.
struct DigestCase {
  const char* strategy;
  const char* workload;  // graph::make_task_graph spec, or "random"
  const char* topo;
  std::uint64_t digest;
};

const DigestCase kDigestCases[] = {
    {"topolb", "random", "torus:5x5", 0x278d73d3434f485bull},
    {"topolb", "random", "mesh:4x4", 0x9997f7c182a0dc63ull},
    {"topolb", "random", "torus:3x3x3", 0x73b6cb7560128058ull},
    {"topolb", "random", "hypercube:4", 0x684db5ae6574d583ull},
    {"topolb", "random", "fattree:2x4", 0xc7157533c9f2c2e3ull},
    {"topolb", "random", "dragonfly:4", 0x388e5b64734a8a03ull},
    {"topolb1", "random", "torus:5x5", 0x278d73d3434f485bull},
    {"topolb1", "random", "mesh:4x4", 0xcf9057cf690999e3ull},
    {"topolb1", "random", "torus:3x3x3", 0x73b6cb7560128058ull},
    {"topolb1", "random", "hypercube:4", 0x684db5ae6574d583ull},
    {"topolb1", "random", "fattree:2x4", 0xc7157533c9f2c2e3ull},
    {"topolb1", "random", "dragonfly:4", 0x388e5b64734a8a03ull},
    {"topolb3", "random", "torus:5x5", 0xfc7512594380c1bbull},
    {"topolb3", "random", "mesh:4x4", 0x37debd67ebf36483ull},
    {"topolb3", "random", "torus:3x3x3", 0xfc702ae7ee6e1ac8ull},
    {"topolb3", "random", "hypercube:4", 0xcafda204e9585043ull},
    {"topolb3", "random", "fattree:2x4", 0xb73c06b1cb4fa2d3ull},
    {"topolb3", "random", "dragonfly:4", 0x258a680528fc7c43ull},
    {"topocent", "random", "torus:5x5", 0x48b01c0ef9135b0bull},
    {"topocent", "random", "mesh:4x4", 0x1911156d4e232843ull},
    {"topocent", "random", "torus:3x3x3", 0x33c9424445ce3198ull},
    {"topocent", "random", "hypercube:4", 0x70843004d8ba6fa3ull},
    {"topocent", "random", "fattree:2x4", 0x3a7a01c169116a33ull},
    {"topocent", "random", "dragonfly:4", 0xc8fdd4cdf2311ff3ull},
    {"topolb+refine", "random", "torus:5x5", 0x311469e01d4fc03bull},
    {"topolb+refine", "random", "mesh:4x4", 0x133fd67ffc025c93ull},
    {"topolb+refine", "random", "torus:3x3x3", 0x6a41ba6caa6d1338ull},
    {"topolb+refine", "random", "hypercube:4", 0x34574c09dff34303ull},
    {"topolb+refine", "random", "fattree:2x4", 0x4be0068406dae583ull},
    {"topolb+refine", "random", "dragonfly:4", 0x056cb81299ae4e13ull},
    {"topocent+refine", "random", "torus:5x5", 0xbfd85221d3b0d82bull},
    {"topocent+refine", "random", "mesh:4x4", 0x7be2c9a593bdead3ull},
    {"topocent+refine", "random", "torus:3x3x3", 0x33c9424445ce3198ull},
    {"topocent+refine", "random", "hypercube:4", 0x6b6bec96711526a3ull},
    {"topocent+refine", "random", "fattree:2x4", 0x76d61a6de1cc2943ull},
    {"topocent+refine", "random", "dragonfly:4", 0xa2d9a2e276624653ull},
    {"anneal", "random", "torus:5x5", 0x4fcd8ebc8275b91bull},
    {"anneal", "random", "mesh:4x4", 0x5222a0e3eebd0aa3ull},
    {"anneal", "random", "torus:3x3x3", 0x4c5137b5861675f8ull},
    {"anneal", "random", "hypercube:4", 0xac14d46edcfce5f3ull},
    {"anneal", "random", "fattree:2x4", 0x892acbf46b437283ull},
    {"anneal", "random", "dragonfly:4", 0x461fec519ec351a3ull},
    {"anneal-warm", "random", "torus:5x5", 0x5c26e100b693a8bbull},
    {"anneal-warm", "random", "mesh:4x4", 0x26421757fa784203ull},
    {"anneal-warm", "random", "torus:3x3x3", 0xed89a98eb2ccc9a8ull},
    {"anneal-warm", "random", "hypercube:4", 0x45d2e2bebdc66813ull},
    {"anneal-warm", "random", "fattree:2x4", 0xdf755b4646056123ull},
    {"anneal-warm", "random", "dragonfly:4", 0x467820209fcdd723ull},
    {"topolb", "stencil2d:48x48", "torus:48x48", 0x51751a16e06f6783ull},
    {"topolb", "stencil3d:14x14x14", "torus:14x14x14", 0xcdf9e282bed60bc7ull},
    {"topolb+refine", "stencil2d:48x48", "torus:48x48",
     0x51751a16e06f6783ull},
    {"topolb+refine", "stencil3d:14x14x14", "torus:14x14x14",
     0xcdf9e282bed60bc7ull},
    {"topocent", "stencil2d:48x48", "torus:48x48", 0x11ef0845932e4d53ull},
};

std::uint64_t mapping_digest(const Mapping& m) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const int p : m)
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (static_cast<std::uint32_t>(p) >> shift) & 0xffu;
      h *= 1099511628211ull;  // FNV-1a 64 prime
    }
  return h;
}

// Names each case by its row, so test names do not carry the addresses of
// the row's strings (which move with every build and run).
void PrintTo(const DigestCase& c, std::ostream* os) {
  *os << c.strategy << ' ' << c.workload << ' ' << c.topo;
}

class MappingDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(MappingDigestTest, MatchesGolden) {
  const DigestCase& c = GetParam();
  const auto t = make_topology(c.topo);
  Rng graph_rng(7);
  const TaskGraph g =
      std::string(c.workload) == "random"
          ? graph::random_graph(t->size(), 3.0 / t->size() + 0.08, 1.0, 64.0,
                                graph_rng, /*require_connected=*/false)
          : graph::make_task_graph(c.workload, graph_rng);
  for (const int threads : {1, 2, 4}) {
    support::set_num_threads(threads);
    Rng rng(1234);
    const Mapping m = core::make_strategy(c.strategy)->map(g, *t, rng);
    EXPECT_EQ(mapping_digest(m), c.digest)
        << c.strategy << " on " << c.workload << " -> " << c.topo << " at "
        << threads << " workers";
  }
  support::set_num_threads(1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MappingDigestTest,
                         ::testing::ValuesIn(kDigestCases));

// The parallel kernels must give the same answer for any pool size — the
// chunk layout depends only on (n, grain), and reductions combine in fixed
// chunk order.
TEST(DistanceCache, MappingsInvariantUnderThreadCount) {
  const auto t = make_topology("torus:6x6");
  const TaskGraph g = graph::stencil_2d(6, 6, 3.0);
  std::vector<Mapping> results;
  for (const int threads : {1, 2, 4}) {
    support::set_num_threads(threads);
    for (const char* spec : {"topolb", "topolb3", "topocent",
                             "topolb+refine"}) {
      Rng rng(42);
      results.push_back(core::make_strategy(spec)->map(g, *t, rng));
    }
  }
  support::set_num_threads(1);
  const std::size_t per_round = 4;
  for (std::size_t r = 1; r < 3; ++r)
    for (std::size_t i = 0; i < per_round; ++i)
      EXPECT_EQ(results[i], results[r * per_round + i]) << "strategy " << i;
}

// Golden hop-bytes for the deterministic strategies on stencil workloads.
// These pin the exact tie-break behaviour (including the relative-epsilon
// gain comparison in TopoLB::select_task); an unintended change to any
// kernel shows up here as a hop-bytes shift.
struct Golden {
  const char* strategy;
  const char* topo;
  int side;
  double hop_bytes;
};

TEST(DistanceCache, GoldenHopBytesOnStencils) {
  const Golden goldens[] = {
      {"topolb", "torus:6x6", 6, 180.0},   {"topolb", "mesh:5x5", 5, 144.0},
      {"topolb", "torus:4x4", 4, 72.0},    {"topolb1", "torus:6x6", 6, 180.0},
      {"topolb1", "mesh:5x5", 5, 216.0},   {"topolb1", "torus:4x4", 4, 72.0},
      {"topolb3", "torus:6x6", 6, 273.0},  {"topolb3", "mesh:5x5", 5, 144.0},
      {"topolb3", "torus:4x4", 4, 84.0},   {"topocent", "torus:6x6", 6, 294.0},
      {"topocent", "mesh:5x5", 5, 219.0},  {"topocent", "torus:4x4", 4, 72.0},
      {"topolb+refine", "torus:6x6", 6, 180.0},
      {"topolb+refine", "mesh:5x5", 5, 120.0},
      {"topolb+refine", "torus:4x4", 4, 72.0},
  };
  for (const Golden& gold : goldens) {
    const auto t = make_topology(gold.topo);
    const TaskGraph g = graph::stencil_2d(gold.side, gold.side, 3.0);
    Rng rng(42);
    const Mapping m = core::make_strategy(gold.strategy)->map(g, *t, rng);
    EXPECT_EQ(core::hop_bytes(g, *t, m), gold.hop_bytes)
        << gold.strategy << " on " << gold.topo;
  }
}

// hop_bytes read through a cache is bit-identical to the virtual overload.
TEST(DistanceCache, HopBytesOverloadsAgree) {
  for (const char* spec : kTopoSpecs) {
    const auto t = make_topology(spec);
    const DistanceCache cache(*t);
    Rng rng(3);
    const TaskGraph g =
        graph::random_graph(t->size(), 0.2, 1.0, 32.0, rng,
                            /*require_connected=*/false);
    Mapping m = core::identity_mapping(t->size());
    EXPECT_EQ(core::hop_bytes(g, *t, m), core::hop_bytes(g, cache, m)) << spec;
  }
}

// FatTree is a distance model with no processor-level adjacency; the
// regression here is that it used to *return* a disconnected sibling
// adjacency, which made GraphTopology::from_topology fail with a misleading
// "disconnected" diagnosis and undercounted directed_link_count.
TEST(FatTreeAdjacency, NeighborsRejectsUpFront) {
  const topo::FatTree f(2, 3);
  EXPECT_THROW(f.neighbors(0), precondition_error);
  EXPECT_THROW(f.route(0, 5), precondition_error);
  // Distances stay fully supported (that is the model's whole job).
  EXPECT_EQ(f.distance(0, 1), 2);
  EXPECT_EQ(f.distance(0, 7), 6);
  EXPECT_NO_THROW(DistanceCache{f});
}

}  // namespace
}  // namespace topomap
