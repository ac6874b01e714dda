#include "core/hier_topo_lb.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/distance_provider.hpp"
#include "core/metrics.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/swap_kernel.hpp"
#include "graph/quotient.hpp"
#include "obs/obs.hpp"
#include "partition/multilevel.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/distance_cache.hpp"

namespace topomap::core {

namespace {

using graph::TaskGraph;
using graph::UndirectedEdge;

constexpr int kEdgeGrain = 2048;  // swap-delta / hop-bytes edge chunks
constexpr int kNodeGrain = 16;    // machine-node split chunks

/// Balancing weights: vertex weights, or all-ones when the graph carries no
/// compute load (same convention as the multilevel partitioner).
std::vector<double> balance_weights(const TaskGraph& g) {
  std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  if (g.total_vertex_weight() > 0.0)
    for (int v = 0; v < g.num_vertices(); ++v)
      w[static_cast<std::size_t>(v)] = g.vertex_weight(v);
  return w;
}

// ---------------------------------------------------------------------------
// Machine-side hierarchy: contract the processor graph by heaviest-link
// matching until it fits the flat solve cap.  Distances between nodes are
// the base topology's distances between *representative* processors, so the
// coarse plane keeps the real metric at node granularity.
// ---------------------------------------------------------------------------

struct MachineLevel {
  std::vector<int> parent;  ///< level-k node -> level-(k+1) node
};

struct MachineHierarchy {
  /// levels[k].parent maps level-k nodes up to level-k+1; level 0 is the
  /// real processor set (reps[0] is the identity).
  std::vector<MachineLevel> levels;
  /// Per level: node -> representative base processor (ascending levels,
  /// index 0 = processors, index levels.size() = coarsest).
  std::vector<std::vector<int>> reps;
  /// Per level: node -> number of base processors covered.
  std::vector<std::vector<double>> caps;
  /// Coarsest contracted adjacency (neighbor ids, ascending).
  std::vector<std::vector<int>> coarsest_adj;

  int coarsest_size() const {
    return static_cast<int>(reps.back().size());
  }
};

/// Greedy heaviest-link matching of the current node graph, ascending node
/// order, ties to the lowest neighbor id.  Deterministic by construction.
MachineHierarchy coarsen_machine(const topo::Topology& topo, int target) {
  TOPOMAP_REQUIRE(topo.has_adjacency(),
                  "hier: machines larger than flat_proc_cap need "
                  "processor-level adjacency to coarsen (" +
                      topo.name() + " has none)");
  const int p0 = topo.size();
  MachineHierarchy mh;
  mh.reps.emplace_back(static_cast<std::size_t>(p0));
  std::iota(mh.reps.back().begin(), mh.reps.back().end(), 0);
  mh.caps.emplace_back(static_cast<std::size_t>(p0), 1.0);

  // Current level's weighted adjacency (link multiplicity after
  // contraction), neighbor ids ascending.
  std::vector<std::vector<std::pair<int, double>>> adj(
      static_cast<std::size_t>(p0));
  for (int q = 0; q < p0; ++q)
    for (int nb : topo.neighbors(q))
      adj[static_cast<std::size_t>(q)].emplace_back(nb, 1.0);

  while (static_cast<int>(adj.size()) > target) {
    const int pk = static_cast<int>(adj.size());
    std::vector<int> match(static_cast<std::size_t>(pk), -1);
    int coarse_count = 0;
    for (int v = 0; v < pk; ++v) {
      if (match[static_cast<std::size_t>(v)] != -1) continue;
      int best = -1;
      double best_w = -1.0;
      for (const auto& [nb, w] : adj[static_cast<std::size_t>(v)]) {
        if (match[static_cast<std::size_t>(nb)] != -1) continue;
        if (w > best_w) {  // ascending nb: ties keep the lowest id
          best_w = w;
          best = nb;
        }
      }
      match[static_cast<std::size_t>(v)] = best >= 0 ? best : v;
      if (best >= 0) match[static_cast<std::size_t>(best)] = v;
    }
    std::vector<int> parent(static_cast<std::size_t>(pk), -1);
    for (int v = 0; v < pk; ++v) {
      if (parent[static_cast<std::size_t>(v)] != -1) continue;
      const int u = match[static_cast<std::size_t>(v)];
      parent[static_cast<std::size_t>(v)] = coarse_count;
      parent[static_cast<std::size_t>(u)] = coarse_count;
      ++coarse_count;
    }
    if (coarse_count > static_cast<int>(0.95 * pk)) break;  // stalled

    const auto& rep_k = mh.reps.back();
    const auto& cap_k = mh.caps.back();
    std::vector<int> rep_c(static_cast<std::size_t>(coarse_count), -1);
    std::vector<double> cap_c(static_cast<std::size_t>(coarse_count), 0.0);
    for (int v = 0; v < pk; ++v) {
      const int c = parent[static_cast<std::size_t>(v)];
      cap_c[static_cast<std::size_t>(c)] += cap_k[static_cast<std::size_t>(v)];
      // Representative: the heavier member's rep; first visitor on ties
      // (lower level-k id), so the choice is order-stable.
      const int u = match[static_cast<std::size_t>(v)];
      if (rep_c[static_cast<std::size_t>(c)] < 0)
        rep_c[static_cast<std::size_t>(c)] =
            (u != v && cap_k[static_cast<std::size_t>(u)] >
                           cap_k[static_cast<std::size_t>(v)])
                ? rep_k[static_cast<std::size_t>(u)]
                : rep_k[static_cast<std::size_t>(v)];
    }

    std::vector<std::vector<std::pair<int, double>>> coarse_adj(
        static_cast<std::size_t>(coarse_count));
    for (int v = 0; v < pk; ++v) {
      const int cv = parent[static_cast<std::size_t>(v)];
      for (const auto& [nb, w] : adj[static_cast<std::size_t>(v)]) {
        const int cn = parent[static_cast<std::size_t>(nb)];
        if (cv != cn) coarse_adj[static_cast<std::size_t>(cv)].emplace_back(cn, w);
      }
    }
    for (auto& row : coarse_adj) {  // merge duplicate coarse links
      std::sort(row.begin(), row.end());
      std::size_t out = 0;
      for (std::size_t i = 0; i < row.size();) {
        std::size_t j = i;
        double w = 0.0;
        while (j < row.size() && row[j].first == row[i].first) w += row[j++].second;
        row[out++] = {row[i].first, w};
        i = j;
      }
      row.resize(out);
    }

    mh.levels.push_back(MachineLevel{std::move(parent)});
    mh.reps.push_back(std::move(rep_c));
    mh.caps.push_back(std::move(cap_c));
    adj = std::move(coarse_adj);
  }

  mh.coarsest_adj.resize(adj.size());
  for (std::size_t v = 0; v < adj.size(); ++v)
    for (const auto& [nb, w] : adj[v]) mh.coarsest_adj[v].push_back(nb);
  return mh;
}

/// Coarse machine plane: node distances are base distances between
/// representative processors, adjacency is the contracted link graph.
class NodeTopology final : public topo::Topology {
 public:
  NodeTopology(const topo::Topology& base, std::vector<int> reps,
               std::vector<std::vector<int>> adj)
      : base_(base), reps_(std::move(reps)), adj_(std::move(adj)) {}

  int size() const override { return static_cast<int>(reps_.size()); }
  int distance(int a, int b) const override {
    return base_.distance(reps_[static_cast<std::size_t>(a)],
                          reps_[static_cast<std::size_t>(b)]);
  }
  std::vector<int> neighbors(int p) const override {
    return adj_[static_cast<std::size_t>(p)];
  }
  std::string name() const override {
    return "hier-nodes(" + base_.name() + ",k=" +
           std::to_string(reps_.size()) + ')';
  }
  int distance_scale() const override { return base_.distance_scale(); }
  void write_distance_row(int p, std::uint16_t* out) const override {
    const std::uint16_t* row = base_row(p);
    for (std::size_t b = 0; b < reps_.size(); ++b) out[b] = row[reps_[b]];
  }
  double mean_distance_from(int p) const override {
    const std::uint16_t* row = base_row(p);
    long long total = 0;
    for (const int r : reps_) total += row[r];
    return static_cast<double>(total) / static_cast<double>(reps_.size());
  }

 private:
  /// The base topology's distance row of p's representative, filled by
  /// its (non-virtual per entry) write_distance_row into a per-thread
  /// buffer: the DistanceCache fills plane rows in parallel.
  const std::uint16_t* base_row(int p) const {
    check_node(p);
    thread_local std::vector<std::uint16_t> row;
    row.resize(static_cast<std::size_t>(base_.size()));
    base_.write_distance_row(reps_[static_cast<std::size_t>(p)], row.data());
    return row.data();
  }

  const topo::Topology& base_;
  std::vector<int> reps_;
  std::vector<std::vector<int>> adj_;
};

/// Distance provider over machine-level-k node ids: base distances between
/// the nodes' representative processors (the same metric NodeTopology
/// exposes at the coarsest level, usable at any width without a cache).
struct RepDistance {
  const topo::Topology& base;
  const std::vector<int>& rep;

  struct Row {
    const topo::Topology& base;
    const std::vector<int>& rep;
    int rep_a;
    int operator[](int b) const {
      return base.distance(rep_a, rep[static_cast<std::size_t>(b)]);
    }
  };

  int operator()(int a, int b) const {
    return base.distance(rep[static_cast<std::size_t>(a)],
                         rep[static_cast<std::size_t>(b)]);
  }
  Row row(int a) const {
    return Row{base, rep, rep[static_cast<std::size_t>(a)]};
  }
};

// ---------------------------------------------------------------------------
// Deterministic bounded refinement: one pass over the crossing edges.
// Deltas are first evaluated in parallel against the pass-start mapping —
// a pure filter, every slot independent — then the surviving candidates
// are walked in edge order, each delta recomputed sequentially against the
// *current* mapping before the swap commits.  Accept decisions therefore
// never depend on thread count, and every accepted swap strictly lowers
// hop-bytes (no oscillation).
// ---------------------------------------------------------------------------

template <class Dist>
int edge_swap_pass(const TaskGraph& g, const Dist& dist, Mapping& m) {
  const auto& edges = g.edges();
  const int ne = g.num_edges();
  std::vector<double> delta(static_cast<std::size_t>(ne), 0.0);
  support::parallel_for(ne, kEdgeGrain, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const UndirectedEdge& e = edges[static_cast<std::size_t>(i)];
      delta[static_cast<std::size_t>(i)] =
          detail::swap_delta_dist(g, dist, m, e.a, e.b);
    }
  });
  int swaps = 0;
  for (int i = 0; i < ne; ++i) {
    if (delta[static_cast<std::size_t>(i)] >= 0.0) continue;
    const UndirectedEdge& e = edges[static_cast<std::size_t>(i)];
    const double d = detail::swap_delta_dist(g, dist, m, e.a, e.b);
    if (d < 0.0) {
      std::swap(m[static_cast<std::size_t>(e.a)],
                m[static_cast<std::size_t>(e.b)]);
      ++swaps;
    }
  }
  return swaps;
}

/// Hop-bytes of `m` under an arbitrary distance provider (node planes have
/// no Topology object at interior machine levels).  Per-chunk partial sums
/// are reduced in ascending chunk order — deterministic for any thread
/// count.
template <class Dist>
double hop_bytes_dist(const TaskGraph& g, const Dist& dist, const Mapping& m) {
  const auto& edges = g.edges();
  const int ne = g.num_edges();
  const int chunks = support::parallel_chunk_count(ne, kEdgeGrain);
  std::vector<double> partial(static_cast<std::size_t>(chunks), 0.0);
  support::parallel_for_chunks(ne, kEdgeGrain, [&](int c, int begin, int end) {
    double sum = 0.0;
    for (int i = begin; i < end; ++i) {
      const UndirectedEdge& e = edges[static_cast<std::size_t>(i)];
      sum += e.bytes *
             static_cast<double>(dist(m[static_cast<std::size_t>(e.a)],
                                      m[static_cast<std::size_t>(e.b)]));
    }
    partial[static_cast<std::size_t>(c)] = sum;
  });
  double total = 0.0;
  for (double s : partial) total += s;
  return total;
}

template <class Dist>
int run_level_passes(const TaskGraph& g, const Dist& dist, Mapping& m,
                     int passes) {
  int swaps = 0;
  for (int pass = 0; pass < passes; ++pass) {
    const int s = edge_swap_pass(g, dist, m);
    swaps += s;
    if (s == 0) break;
  }
  return swaps;
}

/// Split every level-(k+1) node's task set between its level-k children
/// under capacity-proportional weight quotas.  Tasks preferring child c1
/// (positive score: total bytes-weighted distance saved by sitting on c1
/// rather than c2, neighbors pinned at their pass-start nodes) fill c1
/// first.  Nodes are processed in parallel — each writes only its own
/// tasks' slots in `next` — and every per-node decision reads the
/// immutable snapshot `m`, so the split is thread-count independent.
void split_machine_level(const TaskGraph& g, const topo::Topology& base,
                         const MachineHierarchy& mh, int k,
                         const std::vector<double>& task_w, const Mapping& m,
                         Mapping& next) {
  const auto& parent = mh.levels[static_cast<std::size_t>(k)].parent;
  const auto& rep_k = mh.reps[static_cast<std::size_t>(k)];
  const auto& rep_k1 = mh.reps[static_cast<std::size_t>(k) + 1];
  const auto& cap_k = mh.caps[static_cast<std::size_t>(k)];
  const int pk = static_cast<int>(parent.size());
  const int pk1 = static_cast<int>(rep_k1.size());
  const int n = g.num_vertices();

  // Children of each coarse node, in ascending level-k id (1 or 2 each).
  std::vector<std::array<int, 2>> kids(static_cast<std::size_t>(pk1),
                                       {-1, -1});
  for (int v = 0; v < pk; ++v) {
    auto& kc = kids[static_cast<std::size_t>(parent[static_cast<std::size_t>(v)])];
    (kc[0] < 0 ? kc[0] : kc[1]) = v;
  }

  // Bucket tasks by their current node: counting sort, ascending task id.
  std::vector<int> count(static_cast<std::size_t>(pk1) + 1, 0);
  for (int t = 0; t < n; ++t)
    ++count[static_cast<std::size_t>(m[static_cast<std::size_t>(t)]) + 1];
  for (int c = 0; c < pk1; ++c)
    count[static_cast<std::size_t>(c) + 1] += count[static_cast<std::size_t>(c)];
  std::vector<int> bucket(static_cast<std::size_t>(n));
  {
    std::vector<int> cursor(count.begin(), count.end() - 1);
    for (int t = 0; t < n; ++t)
      bucket[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(m[static_cast<std::size_t>(t)])]++)] = t;
  }

  support::parallel_for(pk1, kNodeGrain, [&](int begin, int end) {
    std::vector<std::pair<double, int>> order;  // (-score, task id)
    for (int c = begin; c < end; ++c) {
      const int first = count[static_cast<std::size_t>(c)];
      const int last = count[static_cast<std::size_t>(c) + 1];
      const int c1 = kids[static_cast<std::size_t>(c)][0];
      const int c2 = kids[static_cast<std::size_t>(c)][1];
      if (c2 < 0) {
        for (int i = first; i < last; ++i)
          next[static_cast<std::size_t>(
              bucket[static_cast<std::size_t>(i)])] = c1;
        continue;
      }
      const int r1 = rep_k[static_cast<std::size_t>(c1)];
      const int r2 = rep_k[static_cast<std::size_t>(c2)];
      // Edges staying inside this node contribute a per-node constant per
      // byte (the parent's rep is one of r1/r2) — precomputing it avoids
      // two distance lookups on the vast majority of edges at coarse
      // levels, where nodes are large and boundaries thin.
      const int rc = rep_k1[static_cast<std::size_t>(c)];
      const double dd_int =
          static_cast<double>(base.distance(r2, rc) - base.distance(r1, rc));
      double total_w = 0.0;
      order.clear();
      for (int i = first; i < last; ++i) {
        const int t = bucket[static_cast<std::size_t>(i)];
        total_w += task_w[static_cast<std::size_t>(t)];
        double score = 0.0;
        for (const graph::Edge& e : g.edges_of(t)) {
          const int cn = m[static_cast<std::size_t>(e.neighbor)];
          if (cn == c) {
            score += e.bytes * dd_int;
            continue;
          }
          const int rn = rep_k1[static_cast<std::size_t>(cn)];
          score += e.bytes * static_cast<double>(base.distance(r2, rn) -
                                                 base.distance(r1, rn));
        }
        order.emplace_back(-score, t);
      }
      std::sort(order.begin(), order.end());  // best-for-c1 first; id ties
      const double w1_target =
          total_w * cap_k[static_cast<std::size_t>(c1)] /
          (cap_k[static_cast<std::size_t>(c1)] +
           cap_k[static_cast<std::size_t>(c2)]);
      double w1 = 0.0;
      for (const auto& [neg_score, t] : order) {
        if (w1 < w1_target) {
          next[static_cast<std::size_t>(t)] = c1;
          w1 += task_w[static_cast<std::size_t>(t)];
        } else {
          next[static_cast<std::size_t>(t)] = c2;
        }
      }
    }
  });
}

}  // namespace

std::unique_ptr<topo::Topology> hier_node_plane(const topo::Topology& topo,
                                                int flat_proc_cap) {
  MachineHierarchy mh = coarsen_machine(topo, flat_proc_cap);
  return std::make_unique<NodeTopology>(topo, mh.reps.back(),
                                        std::move(mh.coarsest_adj));
}

HierResult hier_map(const graph::TaskGraph& g, const topo::Topology& topo,
                    Rng& rng, const HierOptions& opt, DistanceMode mode,
                    const CacheHandlePtr& cache) {
  const int n = g.num_vertices();
  const int p = topo.size();
  TOPOMAP_REQUIRE(opt.flat_proc_cap >= 1 && opt.flat_proc_cap <= 20000,
                  "flat_proc_cap must be in [1, 20000] (DistanceCache cap)");
  TOPOMAP_REQUIRE(opt.flat_square_cap >= 0 && opt.flat_square_cap <= 20000,
                  "flat_square_cap must be in [0, 20000] (DistanceCache cap)");
  TOPOMAP_REQUIRE(opt.coarsen_factor >= 2, "coarsen_factor must be >= 2");
  TOPOMAP_REQUIRE(opt.refine_passes >= 0 && opt.coarse_refine_passes >= 0,
                  "refine pass counts must be non-negative");
  TOPOMAP_REQUIRE(n >= p,
                  "hier needs at least as many tasks as processors");

  OBS_SPAN("hier/map");
  HierResult out;
  if (n == 0) return out;

  // --- machine side: contract the processor graph when it is too wide ---
  // Square bypass: at n == p within the flat solver's reach, contraction
  // can only lose quality (the coarse plane's rep distances are lumpier
  // than the real metric) and saves nothing — solve flat instead.
  MachineHierarchy mh;
  const bool flat_square = n == p && p <= opt.flat_square_cap;
  const bool contracted = !flat_square && p > opt.flat_proc_cap;
  std::unique_ptr<NodeTopology> node_topo;
  if (contracted) {
    OBS_SPAN("hier/coarsen_machine");
    mh = coarsen_machine(topo, opt.flat_proc_cap);
    TOPOMAP_REQUIRE(
        mh.coarsest_size() <= 20000,
        "hier: machine contraction stalled above the DistanceCache cap on " +
            topo.name());
    node_topo = std::make_unique<NodeTopology>(topo, mh.reps.back(),
                                               std::move(mh.coarsest_adj));
    OBS_VALUE("hier/machine_nodes", node_topo->size());
  }
  const topo::Topology& plane = contracted ? *node_topo : topo;
  const int p_eff = plane.size();
  out.topo_levels = static_cast<int>(mh.levels.size());

  // --- task side: heavy-edge matching down to the comfort zone ---
  std::vector<part::CoarseLevel> tlevels;
  {
    OBS_SPAN("hier/coarsen_tasks");
    const TaskGraph* cur = &g;
    const long long stop_n =
        static_cast<long long>(opt.coarsen_factor) * p_eff;
    // Cap coarse vertices at ~0.65 of a target part so the coarsest
    // partition can still balance; matching naturally stalls right around
    // stop_n (average coarse weight = total / stop_n = cap/2.6).
    const double total_w = g.total_vertex_weight();
    const double weight_cap =
        total_w > 0.0 ? 0.65 * total_w / static_cast<double>(p_eff)
                      : std::numeric_limits<double>::infinity();
    while (cur->num_vertices() > stop_n) {
      part::CoarseLevel level;
      if (!part::coarsen_once(*cur, weight_cap, rng, &level)) break;
      tlevels.push_back(std::move(level));
      cur = &tlevels.back().coarse;
      OBS_VALUE("hier/level_vertices", cur->num_vertices());
    }
  }
  const TaskGraph& gm = tlevels.empty() ? g : tlevels.back().coarse;
  out.task_levels = static_cast<int>(tlevels.size());
  OBS_COUNTER_ADD("hier/task_levels", out.task_levels);
  OBS_COUNTER_ADD("hier/topo_levels", out.topo_levels);

  // --- coarsest solve: partition, quotient, TopoLB, RefineTopoLB ---
  std::vector<int> assign;
  Mapping mc;
  std::shared_ptr<const topo::DistanceCache> plane_cache;
  {
    OBS_SPAN("hier/coarse_solve");
    if (gm.num_vertices() == p_eff) {
      assign.resize(static_cast<std::size_t>(p_eff));
      std::iota(assign.begin(), assign.end(), 0);
    } else {
      assign = part::MultilevelPartitioner()
                   .partition(gm, p_eff, rng)
                   .assignment;
    }
    out.quotient = graph::quotient_graph(gm, assign, p_eff);

    // The plane cache is shared with the caller's handle only when the
    // plane *is* the caller's topology; a contracted plane lives and dies
    // with this call.
    const CacheHandlePtr solve_handle =
        contracted || !cache ? std::make_shared<CacheHandle>() : cache;
    if (mode == DistanceMode::kCached) plane_cache = solve_handle->get(plane);
    mc = TopoLB(opt.order, mode, solve_handle).map(out.quotient, plane, rng);
    if (opt.coarse_refine_passes > 0) {
      RefineResult rr =
          refine_mapping(out.quotient, plane, mc, opt.coarse_refine_passes,
                         mode, plane_cache.get());
      mc = std::move(rr.mapping);
      out.swaps += rr.swaps;
      out.coarse_hop_bytes = rr.hop_bytes_after;
    } else {
      out.coarse_hop_bytes = hop_bytes(out.quotient, plane, mc);
    }
    OBS_SERIES_APPEND("hier/hop_bytes_trajectory", out.coarse_hop_bytes);
  }
  out.coarse_mapping = mc;

  // --- task-side uncoarsening with bounded per-level refinement ---
  Mapping m(static_cast<std::size_t>(gm.num_vertices()));
  for (int v = 0; v < gm.num_vertices(); ++v)
    m[static_cast<std::size_t>(v)] =
        mc[static_cast<std::size_t>(assign[static_cast<std::size_t>(v)])];
  {
    OBS_SPAN("hier/uncoarsen_tasks");
    const auto level_stats = [&](const TaskGraph& lg,
                                 const Mapping& lm) -> HierLevelStats {
      const double hb =
          mode == DistanceMode::kCached
              ? hop_bytes_dist(lg, detail::CachedDistance{*plane_cache}, lm)
              : hop_bytes_dist(lg, detail::VirtualDistance{plane}, lm);
      return HierLevelStats{lg.num_vertices(), hb};
    };
    out.trajectory.push_back(level_stats(gm, m));
    for (int li = static_cast<int>(tlevels.size()) - 1; li >= 0; --li) {
      const TaskGraph& finer =
          (li == 0) ? g : tlevels[static_cast<std::size_t>(li - 1)].coarse;
      const auto& f2c = tlevels[static_cast<std::size_t>(li)].fine_to_coarse;
      Mapping mf(static_cast<std::size_t>(finer.num_vertices()));
      for (int v = 0; v < finer.num_vertices(); ++v)
        mf[static_cast<std::size_t>(v)] =
            m[static_cast<std::size_t>(f2c[static_cast<std::size_t>(v)])];
      if (opt.refine_passes > 0) {
        out.swaps +=
            mode == DistanceMode::kCached
                ? run_level_passes(finer, detail::CachedDistance{*plane_cache},
                                   mf, opt.refine_passes)
                : run_level_passes(finer, detail::VirtualDistance{plane}, mf,
                                   opt.refine_passes);
      }
      m = std::move(mf);
      out.trajectory.push_back(level_stats(finer, m));
      OBS_SERIES_APPEND("hier/hop_bytes_trajectory",
                        out.trajectory.back().hop_bytes);
    }
  }

  // Compose the coarsest group id of every original task (for the
  // projection-exactness tests and callers that want the partition).
  out.coarse_assignment.resize(static_cast<std::size_t>(n));
  std::iota(out.coarse_assignment.begin(), out.coarse_assignment.end(), 0);
  for (const auto& level : tlevels)
    for (int v = 0; v < n; ++v) {
      auto& c = out.coarse_assignment[static_cast<std::size_t>(v)];
      c = level.fine_to_coarse[static_cast<std::size_t>(c)];
    }
  for (int v = 0; v < n; ++v)
    out.coarse_assignment[static_cast<std::size_t>(v)] =
        assign[static_cast<std::size_t>(
            out.coarse_assignment[static_cast<std::size_t>(v)])];

  // --- machine-side splitting back to real processors ---
  if (contracted) {
    OBS_SPAN("hier/split_machine");
    const std::vector<double> task_w = balance_weights(g);
    for (int k = static_cast<int>(mh.levels.size()) - 1; k >= 0; --k) {
      Mapping next(static_cast<std::size_t>(n));
      {
        OBS_SPAN("hier/split_level");
        split_machine_level(g, topo, mh, k, task_w, m, next);
      }
      m = std::move(next);
      const int pk =
          static_cast<int>(mh.levels[static_cast<std::size_t>(k)].parent.size());
      if (pk <= opt.refine_node_cap && opt.refine_passes > 0) {
        OBS_SPAN("hier/split_refine");
        const RepDistance dist{topo, mh.reps[static_cast<std::size_t>(k)]};
        out.swaps += run_level_passes(g, dist, m, opt.refine_passes);
      }
      if (pk <= opt.refine_node_cap || k == 0) {
        const RepDistance dist{topo, mh.reps[static_cast<std::size_t>(k)]};
        out.trajectory.push_back(
            HierLevelStats{n, hop_bytes_dist(g, dist, m)});
        OBS_SERIES_APPEND("hier/hop_bytes_trajectory",
                          out.trajectory.back().hop_bytes);
      }
    }
  }

  // --- optional final polish ("hier+refine") ---
  if (opt.final_refine) {
    OBS_SPAN("hier/final_refine");
    if (n == p && !contracted) {
      RefineResult rr =
          refine_mapping(g, topo, m, 8, mode, plane_cache.get());
      m = std::move(rr.mapping);
      out.swaps += rr.swaps;
    } else if (contracted) {
      out.swaps +=
          run_level_passes(g, detail::VirtualDistance{topo}, m, 3);
    } else if (mode == DistanceMode::kCached) {
      out.swaps += run_level_passes(
          g, detail::CachedDistance{*plane_cache}, m, 3);
    } else {
      out.swaps +=
          run_level_passes(g, detail::VirtualDistance{topo}, m, 3);
    }
    if (!out.trajectory.empty()) {
      const double hb = hop_bytes(g, topo, m);
      out.trajectory.push_back(HierLevelStats{n, hb});
      OBS_SERIES_APPEND("hier/hop_bytes_trajectory", hb);
    }
  }

  OBS_COUNTER_ADD("hier/swaps", out.swaps);
  OBS_COUNTER_ADD("hier/placements", n);
  out.mapping = std::move(m);
  return out;
}

HierTopoLB::HierTopoLB(HierOptions options, DistanceMode mode,
                       CacheHandlePtr cache)
    : options_(options), mode_(mode), cache_(std::move(cache)) {
  TOPOMAP_REQUIRE(options_.flat_proc_cap >= 1 &&
                      options_.flat_proc_cap <= 20000,
                  "flat_proc_cap must be in [1, 20000]");
  TOPOMAP_REQUIRE(options_.flat_square_cap >= 0 &&
                      options_.flat_square_cap <= 20000,
                  "flat_square_cap must be in [0, 20000]");
  TOPOMAP_REQUIRE(options_.coarsen_factor >= 2,
                  "coarsen_factor must be >= 2");
}

Mapping HierTopoLB::map(const graph::TaskGraph& g, const topo::Topology& topo,
                        Rng& rng) const {
  return hier_map(g, topo, rng, options_, mode_, cache_).mapping;
}

std::string HierTopoLB::name() const {
  return options_.final_refine ? "HierTopoLB+refine" : "HierTopoLB";
}

}  // namespace topomap::core
