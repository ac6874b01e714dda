#include "core/refine_topo_lb.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/cache_handle.hpp"
#include "core/distance_provider.hpp"
#include "core/metrics.hpp"
#include "core/swap_kernel.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "topo/distance_cache.hpp"

namespace topomap::core {

namespace {

constexpr int kPairGrain = 256;    // swap-delta evaluations per chunk
constexpr int kMaxBlockRows = 64;  // speculation window cap (see sweep below)

struct PairAB {
  int a, b;
};

/// Per-task terms of the swap lower bound: W_t, the task's byte total, and
/// C_t = sum of bytes * d(m[t], m[nbr]), its current cost.  Swapping a and b
/// moves every edge of a from pa to pb; by the triangle inequality
/// d(pb, pj) - d(pa, pj) >= d(pa, pb) - 2 d(pa, pj), and symmetrically for
/// b, so
///
///   delta(a, b) >= d(pa, pb) * (W_a + W_b) - 2 * (C_a + C_b).
///
/// (Counting the a-b edge itself in W and C only lowers the right side.)
/// A pair whose bound is positive cannot be accepted and is not evaluated.
/// The bound and swap_delta_dist round differently, so "positive" means
/// above (deg_a + deg_b + 8) * eps * (d(pa, pb) * (W_a + W_b) + 2 * (C_a +
/// C_b)).  That scale bounds every term of both sums in magnitude, and each
/// sum rounds at most deg_a + deg_b + 4 times by eps / 2, so beyond the
/// margin the computed delta is >= 0 and the accept test (< -1e-12) could
/// not have fired.
class SwapBound {
 public:
  SwapBound(const graph::TaskGraph& g, const detail::CachedDistance& dist,
            const Mapping& m)
      : g_(g), dist_(dist), m_(m) {
    const auto n = m.size();
    weight_.assign(n, 0.0);
    cost_.resize(n);
    margin_.resize(n);
    for (int t = 0; t < static_cast<int>(n); ++t) {
      const auto ut = static_cast<std::size_t>(t);
      for (const graph::Edge& e : g.edges_of(t)) weight_[ut] += e.bytes;
      margin_[ut] = static_cast<double>(g.edges_of(t).size() + 4) *
                    std::numeric_limits<double>::epsilon();
      refresh(t);
    }
  }

  /// Recompute C for the two swapped tasks and every neighbour of either.
  void swapped(int a, int b) {
    for (int t : {a, b}) {
      refresh(t);
      for (const graph::Edge& e : g_.edges_of(t)) refresh(e.neighbor);
    }
  }

  /// Append (a, b) for every b in [b0, n) the bound does not prune.
  void collect_row(int a, int b0, std::vector<PairAB>& out) const {
    const auto ua = static_cast<std::size_t>(a);
    const auto row = dist_.row(m_[ua]);
    const double wa = weight_[ua];
    const double ca = cost_[ua];
    const double ma = margin_[ua];
    for (int b = b0; b < static_cast<int>(m_.size()); ++b) {
      const auto ub = static_cast<std::size_t>(b);
      const double spread =
          static_cast<double>(row[m_[ub]]) * (wa + weight_[ub]);
      const double cost = 2.0 * (ca + cost_[ub]);
      if (!(spread - cost > (ma + margin_[ub]) * (spread + cost)))
        out.push_back({a, b});
    }
  }

 private:
  void refresh(int t) {
    const auto row = dist_.row(m_[static_cast<std::size_t>(t)]);
    double c = 0.0;
    for (const graph::Edge& e : g_.edges_of(t))
      c += e.bytes *
           static_cast<double>(row[m_[static_cast<std::size_t>(e.neighbor)]]);
    cost_[static_cast<std::size_t>(t)] = c;
  }

  const graph::TaskGraph& g_;
  const detail::CachedDistance& dist_;
  const Mapping& m_;
  std::vector<double> weight_;  ///< W_t
  std::vector<double> cost_;    ///< C_t under the current mapping
  std::vector<double> margin_;  ///< (deg_t + 4) * eps
};

/// One first-improvement sweep over all pairs (a, b), a < b, exactly
/// reproducing the sequential visit order and accept decisions.
///
/// The sweep is parallelised *speculatively*: a block of rows is filtered
/// through SwapBound (sequentially — the bound is a few loads per pair),
/// the surviving pairs' deltas are evaluated concurrently against the
/// current mapping (each pair writes only its own slot), then the
/// survivors are walked in sequential order.  Skipping a pruned pair is
/// what the sequential sweep would do, since it could not be accepted.  An
/// accepted swap invalidates every not-yet-visited bound and delta
/// conservatively, so the remaining suffix of the block is filtered and
/// evaluated again before the walk continues — every delta that is *acted
/// on* was therefore computed against the exact mapping the sequential
/// algorithm would see, and the arithmetic inside swap_delta_dist is a
/// fixed sequential loop, so accept decisions (and the final mapping) are
/// byte-identical to the sequential sweep for any thread count.
///
/// The block height adapts to the swap rate: it starts at one row, doubles
/// after every swap-free block (capped at kMaxBlockRows) and resets to one
/// row when a block accepts a swap.  Late passes — where swaps are rare and
/// the sweep is pure evaluation — run at full width; early swap-dense
/// passes pay at most one wasted evaluation per accepted swap.  The
/// schedule depends only on accept decisions, never on thread count.
bool sweep_once(const graph::TaskGraph& g, const detail::CachedDistance& dist,
                Mapping& m, int* swaps) {
  const int n = static_cast<int>(m.size());
  SwapBound bound(g, dist, m);
  std::vector<PairAB> pairs;  // unpruned pairs of the block suffix
  std::vector<double> deltas;

  // Filter the pairs from (r0, b0) to the end of rows [r0, hi) and
  // evaluate the survivors.
  const auto prepare = [&](int r0, int b0, int hi) {
    pairs.clear();
    for (int r = r0; r < hi; ++r)
      bound.collect_row(r, r == r0 ? b0 : r + 1, pairs);
    deltas.resize(pairs.size());
    support::parallel_for(
        static_cast<int>(pairs.size()), kPairGrain, [&](int begin, int end) {
          for (int i = begin; i < end; ++i) {
            const PairAB& pr = pairs[static_cast<std::size_t>(i)];
            deltas[static_cast<std::size_t>(i)] =
                detail::swap_delta_dist(g, dist, m, pr.a, pr.b);
          }
        });
  };

  bool improved = false;
  int block = 1;
  int a = 0;
  while (a < n) {
    const int hi = std::min(a + block, n);
    // Rows a..hi-1 hold (n-1-a) + ... + (n-hi) pairs.
    const auto block_pairs = static_cast<std::size_t>(hi - a) *
                             static_cast<std::size_t>(2 * n - a - hi - 1) / 2;
    OBS_COUNTER_ADD("refine/swap_attempts", block_pairs);
    std::size_t walked = 0;
    prepare(a, a + 1, hi);

    bool block_swapped = false;
    std::size_t i = 0;
    while (i < pairs.size()) {
      ++walked;
      if (!(deltas[i] < -1e-12)) {
        ++i;
        continue;
      }
      const PairAB pr = pairs[i];
      std::swap(m[static_cast<std::size_t>(pr.a)],
                m[static_cast<std::size_t>(pr.b)]);
      bound.swapped(pr.a, pr.b);
      ++*swaps;
      OBS_COUNTER_ADD("refine/swap_accepts", 1);
      improved = true;
      block_swapped = true;
      prepare(pr.a, pr.b + 1, hi);
      i = 0;
    }
    // Pairs whose final visit was decided by the bound alone.
    OBS_COUNTER_ADD("refine/pairs_pruned", block_pairs - walked);
    a = hi;
    block = block_swapped ? 1 : std::min(block * 2, kMaxBlockRows);
  }
  return improved;
}

RefineResult run_refine(const graph::TaskGraph& g,
                        const detail::CachedDistance& dist, double hb_before,
                        const Mapping& m, int max_passes) {
  OBS_SPAN("refine/run");
  RefineResult result;
  result.mapping = m;
  result.hop_bytes_before = hb_before;
  for (int pass = 0; pass < max_passes; ++pass) {
    ++result.passes;
    if (!sweep_once(g, dist, result.mapping, &result.swaps)) break;
  }
  return result;
}

}  // namespace

double swap_delta(const graph::TaskGraph& g, const topo::Topology& topo,
                  const Mapping& m, int a, int b) {
  return detail::swap_delta_dist(g, detail::VirtualDistance{topo}, m, a, b);
}

RefineResult refine_mapping(const graph::TaskGraph& g,
                            const topo::Topology& topo, const Mapping& m,
                            int max_passes, const topo::DistanceCache* cache) {
  TOPOMAP_REQUIRE(max_passes >= 1, "need at least one sweep");
  TOPOMAP_REQUIRE(is_one_to_one(m, topo), "refiner needs a one-to-one mapping");
  TOPOMAP_REQUIRE(static_cast<int>(m.size()) == g.num_vertices(),
                  "mapping size mismatch");
  TOPOMAP_REQUIRE(cache == nullptr || cache->size() == topo.size(),
                  "prebuilt distance cache does not match the topology");

  std::shared_ptr<const topo::DistanceCache> owned;
  if (cache == nullptr) {
    owned = std::make_shared<const topo::DistanceCache>(topo);
    cache = owned.get();
  }
  RefineResult result = run_refine(g, detail::CachedDistance{*cache},
                                   hop_bytes(g, *cache, m), m, max_passes);
  result.hop_bytes_after = hop_bytes(g, *cache, result.mapping);
  TOPOMAP_ASSERT(result.hop_bytes_after <= result.hop_bytes_before + 1e-6,
                 "refinement must never worsen hop-bytes");
  return result;
}

RefineResult refine_mapping(const graph::TaskGraph& g,
                            const topo::Topology& topo, const Mapping& m,
                            int max_passes, DistanceMode,
                            const topo::DistanceCache* cache) {
  return refine_mapping(g, topo, m, max_passes, cache);
}

RefinedStrategy::RefinedStrategy(StrategyPtr base, int max_passes,
                                 CacheHandlePtr cache)
    : base_(std::move(base)), max_passes_(max_passes), cache_(std::move(cache)) {
  TOPOMAP_REQUIRE(base_ != nullptr, "base strategy is null");
  TOPOMAP_REQUIRE(max_passes_ >= 1, "need at least one sweep");
}

Mapping RefinedStrategy::map(const graph::TaskGraph& g,
                             const topo::Topology& topo, Rng& rng) const {
  const Mapping base = base_->map(g, topo, rng);
  const auto cache = obtain_cache(cache_, topo);
  return refine_mapping(g, topo, base, max_passes_, cache.get()).mapping;
}

std::string RefinedStrategy::name() const {
  return base_->name() + "+RefineTopoLB";
}

}  // namespace topomap::core
