#include "partition/multilevel.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/obs.hpp"
#include "support/error.hpp"

namespace topomap::part {

namespace {

using graph::Edge;
using graph::TaskGraph;
using graph::UndirectedEdge;

/// Balancing weights: vertex weights, or all-ones when the graph carries no
/// compute load (balance on counts instead of dividing by zero).
std::vector<double> balance_weights(const TaskGraph& g) {
  std::vector<double> w(static_cast<std::size_t>(g.num_vertices()));
  if (g.total_vertex_weight() <= 0.0) {
    std::fill(w.begin(), w.end(), 1.0);
  } else {
    for (int v = 0; v < g.num_vertices(); ++v)
      w[static_cast<std::size_t>(v)] = g.vertex_weight(v);
  }
  return w;
}

double cut_of(const TaskGraph& g, const std::vector<int>& side) {
  double cut = 0.0;
  for (const UndirectedEdge& e : g.edges())
    if (side[static_cast<std::size_t>(e.a)] !=
        side[static_cast<std::size_t>(e.b)])
      cut += e.bytes;
  return cut;
}

}  // namespace

// ---------------------------------------------------------------------------
// Coarsening: heavy-edge matching (public — shared with core::HierTopoLB).
// ---------------------------------------------------------------------------

bool coarsen_once(const TaskGraph& g, double weight_cap, Rng& rng,
                  CoarseLevel* out) {
  const int n = g.num_vertices();
  std::vector<int> match(static_cast<std::size_t>(n), -1);
  const std::vector<int> order = rng.permutation(n);
  int coarse_count = 0;
  for (int v : order) {
    if (match[static_cast<std::size_t>(v)] != -1) continue;
    int best = -1;
    double best_bytes = -1.0;
    for (const Edge& e : g.edges_of(v)) {
      if (match[static_cast<std::size_t>(e.neighbor)] != -1) continue;
      if (g.vertex_weight(v) + g.vertex_weight(e.neighbor) > weight_cap)
        continue;
      if (e.bytes > best_bytes) {
        best_bytes = e.bytes;
        best = e.neighbor;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;  // matched with itself
    }
  }

  std::vector<int> fine_to_coarse(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    if (fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    const int partner = match[static_cast<std::size_t>(v)];
    fine_to_coarse[static_cast<std::size_t>(v)] = coarse_count;
    fine_to_coarse[static_cast<std::size_t>(partner)] = coarse_count;
    ++coarse_count;
  }
  if (coarse_count > static_cast<int>(0.95 * n)) return false;

  TaskGraph::Builder b("coarse");
  b.add_vertices(coarse_count, 0.0);
  std::vector<double> cw(static_cast<std::size_t>(coarse_count), 0.0);
  for (int v = 0; v < n; ++v)
    cw[static_cast<std::size_t>(fine_to_coarse[static_cast<std::size_t>(v)])] +=
        g.vertex_weight(v);
  for (int c = 0; c < coarse_count; ++c)
    b.set_vertex_weight(c, cw[static_cast<std::size_t>(c)]);
  for (const UndirectedEdge& e : g.edges()) {
    const int ca = fine_to_coarse[static_cast<std::size_t>(e.a)];
    const int cb = fine_to_coarse[static_cast<std::size_t>(e.b)];
    if (ca != cb) b.add_edge(ca, cb, e.bytes);
  }
  out->coarse = std::move(b).build();
  out->fine_to_coarse = std::move(fine_to_coarse);
  return true;
}

namespace {

// ---------------------------------------------------------------------------
// FM-style bisection refinement with rollback.
// ---------------------------------------------------------------------------

struct FmContext {
  const TaskGraph& g;
  const std::vector<double>& w;
  double max_side[2];  // allowed weight per side
};

/// A candidate move: vertex v with the gain it had when queued.
struct Move {
  double gain;
  int v;
};

/// Heap order: the top is the best move — gain descending, then id
/// ascending, the order in which a linear scan for "the first vertex with
/// the strictly highest gain" would find it.
struct WorseMove {
  bool operator()(const Move& x, const Move& y) const {
    return x.gain < y.gain || (x.gain == y.gain && x.v > y.v);
  }
};

/// Unlocked vertices of one source side as a binary max-heap with lazy
/// deletion: a gain change pushes a fresh entry, and entries whose vertex
/// is locked or whose gain is out of date are dropped when they surface.
class MoveQueue {
 public:
  void push(double gain, int v) {
    heap_.push_back({gain, v});
    std::push_heap(heap_.begin(), heap_.end(), WorseMove{});
  }

  /// The best current move whose vertex passes `fits`, or v == -1.  The
  /// current entries popped on the way, the returned one included, are
  /// set aside and pushed back by restore() once the step's move is done
  /// (the moved vertex's entry then goes stale).
  template <class Fits>
  Move best(const std::vector<double>& gain, const std::vector<char>& locked,
            Fits&& fits) {
    while (!heap_.empty()) {
      const Move top = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), WorseMove{});
      heap_.pop_back();
      const auto uv = static_cast<std::size_t>(top.v);
      if (locked[uv] || gain[uv] != top.gain) continue;  // stale
      aside_.push_back(top);
      if (fits(top.v)) return top;
    }
    return {0.0, -1};
  }

  void restore() {
    for (const Move& mv : aside_) push(mv.gain, mv.v);
    aside_.clear();
  }

 private:
  std::vector<Move> heap_;
  std::vector<Move> aside_;
};

/// One FM pass.  Returns true if the cut strictly improved.
///
/// Every vertex is moved once (the pass runs until no unlocked vertex fits
/// its receiving side); each step moves the highest-gain unlocked vertex
/// whose move keeps the receiving side under its cap, lowest id on ties,
/// and the pass then rolls back to the best prefix.  The candidates live in
/// one MoveQueue per source side, so a step reads the top of each queue
/// (setting aside vertices too heavy to fit) instead of scanning all n
/// vertices.  A side whose lightest unlocked vertex does not fit is skipped
/// without touching its queue; vertices never change side while unlocked,
/// so the lightest one is a cursor over the side's weight-sorted list.
bool fm_pass(const FmContext& ctx, std::vector<int>& side) {
  const int n = ctx.g.num_vertices();
  std::vector<double> gain(static_cast<std::size_t>(n), 0.0);
  double side_weight[2] = {0.0, 0.0};
  for (int v = 0; v < n; ++v)
    side_weight[side[static_cast<std::size_t>(v)]] +=
        ctx.w[static_cast<std::size_t>(v)];
  for (int v = 0; v < n; ++v)
    for (const Edge& e : ctx.g.edges_of(v))
      gain[static_cast<std::size_t>(v)] +=
          (side[static_cast<std::size_t>(e.neighbor)] !=
           side[static_cast<std::size_t>(v)])
              ? e.bytes
              : -e.bytes;

  MoveQueue queue[2];
  std::vector<int> by_weight[2];
  for (int v = 0; v < n; ++v) {
    const int s = side[static_cast<std::size_t>(v)];
    queue[s].push(gain[static_cast<std::size_t>(v)], v);
    by_weight[s].push_back(v);
  }
  std::size_t lightest[2] = {0, 0};
  for (std::vector<int>& vs : by_weight)
    std::sort(vs.begin(), vs.end(), [&](int x, int y) {
      return ctx.w[static_cast<std::size_t>(x)] <
             ctx.w[static_cast<std::size_t>(y)];
    });

  std::vector<char> locked(static_cast<std::size_t>(n), 0);
  std::vector<int> moved;
  moved.reserve(static_cast<std::size_t>(n));
  double cum = 0.0, best_cum = 0.0;
  int best_prefix = 0;

  for (int step = 0; step < n; ++step) {
    Move best{0.0, -1};
    for (int from : {0, 1}) {
      const int to = 1 - from;
      const auto fits = [&](int v) {
        return !(side_weight[to] + ctx.w[static_cast<std::size_t>(v)] >
                 ctx.max_side[to]);
      };
      const std::vector<int>& light = by_weight[from];
      std::size_t& li = lightest[from];
      while (li < light.size() && locked[static_cast<std::size_t>(light[li])])
        ++li;
      if (li == light.size() || !fits(light[li])) continue;
      const Move mv = queue[from].best(gain, locked, fits);
      if (mv.v >= 0 && (best.v < 0 || WorseMove{}(best, mv))) best = mv;
    }
    if (best.v < 0) break;

    const auto ub = static_cast<std::size_t>(best.v);
    const int from = side[ub];
    side[ub] = 1 - from;
    side_weight[from] -= ctx.w[ub];
    side_weight[1 - from] += ctx.w[ub];
    locked[ub] = 1;
    moved.push_back(best.v);
    cum += best.gain;
    for (const Edge& e : ctx.g.edges_of(best.v)) {
      const auto nb = static_cast<std::size_t>(e.neighbor);
      if (locked[nb]) continue;
      // `best` switched sides: edges to its old side become cut (gain up
      // by 2*bytes for those neighbours), edges to the new side uncut.
      const int nb_side = side[nb];
      gain[nb] += (nb_side == from) ? 2.0 * e.bytes : -2.0 * e.bytes;
      queue[nb_side].push(gain[nb], e.neighbor);
    }
    for (MoveQueue& q : queue) q.restore();
    if (cum > best_cum + 1e-12) {
      best_cum = cum;
      best_prefix = static_cast<int>(moved.size());
    }
    // Hill-climbing: keep moving past zero-gain plateaus; rollback handles
    // the rest.
  }

  // Roll back the moves after the best prefix.
  for (int i = static_cast<int>(moved.size()) - 1; i >= best_prefix; --i) {
    const int v = moved[static_cast<std::size_t>(i)];
    side[static_cast<std::size_t>(v)] = 1 - side[static_cast<std::size_t>(v)];
  }
  return best_cum > 1e-12;
}

}  // namespace

void fm_refine(const TaskGraph& g, const std::vector<double>& w,
               std::vector<int>& side, double target_left, double eps,
               int passes) {
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  FmContext ctx{g, w,
                {target_left * total * (1.0 + eps),
                 (1.0 - target_left) * total * (1.0 + eps)}};
  for (int pass = 0; pass < passes; ++pass)
    if (!fm_pass(ctx, side)) break;
}

namespace {

// ---------------------------------------------------------------------------
// Initial bisection by greedy graph growing.
// ---------------------------------------------------------------------------

std::vector<int> grow_bisection(const TaskGraph& g,
                                const std::vector<double>& w,
                                double target_left, double eps, int trials,
                                int fm_passes, Rng& rng) {
  const int n = g.num_vertices();
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  const double target_weight = target_left * total;

  std::vector<int> best_side;
  double best_cut = std::numeric_limits<double>::infinity();
  for (int trial = 0; trial < std::max(1, trials); ++trial) {
    std::vector<int> side(static_cast<std::size_t>(n), 1);
    // conn[v]: bytes from v into the growing region minus bytes outward.
    std::vector<double> conn(static_cast<std::size_t>(n), 0.0);
    double grown = 0.0;
    int seed = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(n)));
    while (grown < target_weight) {
      // Prefer frontier vertices (positive connectivity); fall back to the
      // seed / any remaining vertex for disconnected graphs.
      int pick = -1;
      double best_conn = -std::numeric_limits<double>::infinity();
      for (int v = 0; v < n; ++v) {
        if (side[static_cast<std::size_t>(v)] == 0) continue;
        if (conn[static_cast<std::size_t>(v)] > best_conn) {
          best_conn = conn[static_cast<std::size_t>(v)];
          pick = v;
        }
      }
      if (pick < 0) break;  // everything absorbed
      if (grown == 0.0) pick = seed;
      // Overshoot control: stop before adding if that lands closer to the
      // target than adding would.
      const double wv = w[static_cast<std::size_t>(pick)];
      if (grown > 0.0 && grown + wv - target_weight > target_weight - grown)
        break;
      side[static_cast<std::size_t>(pick)] = 0;
      grown += wv;
      for (const Edge& e : g.edges_of(pick))
        conn[static_cast<std::size_t>(e.neighbor)] += 2.0 * e.bytes;
    }
    fm_refine(g, w, side, target_left, eps, fm_passes);
    const double cut = cut_of(g, side);
    if (cut < best_cut) {
      best_cut = cut;
      best_side = std::move(side);
    }
  }
  return best_side;
}

// ---------------------------------------------------------------------------
// Induced subgraph extraction (keeps a local -> parent vertex map).
// ---------------------------------------------------------------------------

struct Subgraph {
  TaskGraph graph;
  std::vector<int> local_to_parent;
};

Subgraph extract_side(const TaskGraph& g, const std::vector<int>& side,
                      int which) {
  Subgraph out;
  std::vector<int> parent_to_local(static_cast<std::size_t>(g.num_vertices()),
                                   -1);
  TaskGraph::Builder b("sub");
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (side[static_cast<std::size_t>(v)] != which) continue;
    parent_to_local[static_cast<std::size_t>(v)] =
        b.add_vertex(g.vertex_weight(v));
    out.local_to_parent.push_back(v);
  }
  for (const UndirectedEdge& e : g.edges()) {
    const int la = parent_to_local[static_cast<std::size_t>(e.a)];
    const int lb = parent_to_local[static_cast<std::size_t>(e.b)];
    if (la >= 0 && lb >= 0) b.add_edge(la, lb, e.bytes);
  }
  out.graph = std::move(b).build();
  return out;
}

}  // namespace

MultilevelPartitioner::MultilevelPartitioner(MultilevelOptions options)
    : options_(options) {
  TOPOMAP_REQUIRE(options_.coarsen_target >= 8, "coarsen_target too small");
  TOPOMAP_REQUIRE(options_.epsilon >= 0.0, "epsilon must be non-negative");
  TOPOMAP_REQUIRE(options_.fm_passes >= 1, "need at least one FM pass");
  TOPOMAP_REQUIRE(options_.initial_trials >= 1, "need at least one trial");
}

std::vector<int> MultilevelPartitioner::bisect(const graph::TaskGraph& g,
                                               double left_fraction,
                                               Rng& rng) const {
  TOPOMAP_REQUIRE(left_fraction > 0.0 && left_fraction < 1.0,
                  "left_fraction must be in (0,1)");
  const int n = g.num_vertices();
  if (n == 0) return {};

  // Build the coarsening hierarchy.
  std::vector<CoarseLevel> levels;
  const TaskGraph* cur = &g;
  {
    OBS_SPAN("partition/coarsen");
    const double side_fraction = std::min(left_fraction, 1.0 - left_fraction);
    while (cur->num_vertices() > options_.coarsen_target) {
      const std::vector<double> cur_w = balance_weights(*cur);
      const double total = std::accumulate(cur_w.begin(), cur_w.end(), 0.0);
      CoarseLevel level;
      // No coarse vertex may exceed ~half of the smaller side's target, so
      // balance stays achievable after contraction.
      if (!coarsen_once(*cur, 0.5 * side_fraction * total, rng, &level))
        break;
      levels.push_back(std::move(level));
      cur = &levels.back().coarse;
    }
  }

  // Initial bisection on the coarsest graph.
  std::vector<int> side;
  {
    OBS_SPAN("partition/initial");
    side = grow_bisection(*cur, balance_weights(*cur), left_fraction,
                          options_.epsilon, options_.initial_trials,
                          options_.fm_passes, rng);
  }

  // Uncoarsen with refinement at every level.
  OBS_SPAN("partition/fm");
  for (int li = static_cast<int>(levels.size()) - 1; li >= 0; --li) {
    const TaskGraph& finer = (li == 0) ? g : levels[static_cast<std::size_t>(li - 1)].coarse;
    std::vector<int> fine_side(static_cast<std::size_t>(finer.num_vertices()));
    const auto& map = levels[static_cast<std::size_t>(li)].fine_to_coarse;
    for (int v = 0; v < finer.num_vertices(); ++v)
      fine_side[static_cast<std::size_t>(v)] =
          side[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    side = std::move(fine_side);
    const std::vector<double> fw = balance_weights(finer);
    fm_refine(finer, fw, side, left_fraction, options_.epsilon,
              options_.fm_passes);
  }
  return side;
}

namespace {

void recurse(const MultilevelPartitioner& partitioner, const TaskGraph& g,
             const std::vector<int>& to_original, int k, int part_offset,
             Rng& rng, std::vector<int>& out) {
  const int n = g.num_vertices();
  if (k <= 1) {
    for (int v = 0; v < n; ++v)
      out[static_cast<std::size_t>(to_original[static_cast<std::size_t>(v)])] =
          part_offset;
    return;
  }
  if (n <= k) {
    // Degenerate: at most one vertex per part.
    for (int v = 0; v < n; ++v)
      out[static_cast<std::size_t>(to_original[static_cast<std::size_t>(v)])] =
          part_offset + v;
    return;
  }
  const int k_left = k / 2;
  const double left_fraction =
      static_cast<double>(k_left) / static_cast<double>(k);
  const std::vector<int> side = partitioner.bisect(g, left_fraction, rng);

  for (int which : {0, 1}) {
    Subgraph sub = extract_side(g, side, which);
    std::vector<int> sub_to_original(sub.local_to_parent.size());
    for (std::size_t i = 0; i < sub.local_to_parent.size(); ++i)
      sub_to_original[i] = to_original[static_cast<std::size_t>(
          sub.local_to_parent[i])];
    recurse(partitioner, sub.graph, sub_to_original,
            which == 0 ? k_left : k - k_left,
            which == 0 ? part_offset : part_offset + k_left, rng, out);
  }
}

}  // namespace

PartitionResult MultilevelPartitioner::partition(const graph::TaskGraph& g,
                                                 int k, Rng& rng) const {
  TOPOMAP_REQUIRE(k >= 1, "need at least one part");
  OBS_SPAN("partition/multilevel");
  PartitionResult result;
  result.num_parts = k;
  result.assignment.assign(static_cast<std::size_t>(g.num_vertices()), 0);
  std::vector<int> identity(static_cast<std::size_t>(g.num_vertices()));
  std::iota(identity.begin(), identity.end(), 0);
  recurse(*this, g, identity, k, 0, rng, result.assignment);
  return result;
}

}  // namespace topomap::part
