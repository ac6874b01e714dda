// flat-square: the paper's n == p regime.  Two stencils on tori of the
// same shape, each mapped with TopoLB + RefineTopoLB and with TopoCentLB.
// The plane fill, the strategy kernels and the refinement do nearly all
// the work; partitioning does none.
#include <memory>

#include "batch.hpp"
#include "core/cache_handle.hpp"
#include "core/metrics.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/topo_cent_lb.hpp"
#include "core/topo_lb.hpp"
#include "graph/factory.hpp"
#include "support/parallel.hpp"
#include "topo/factory.hpp"

namespace perfbench {

using namespace topomap;

namespace {

struct FlatInstance {
  std::string name;
  std::string strategy;  // "topolb+refine" | "topocent"
  std::uint64_t seed = 0;
  graph::TaskGraph g;
  topo::TopologyPtr topo;
};

Served serve_flat(const FlatInstance& in, Trace& tr, int root) {
  Served s;
  std::shared_ptr<const topo::DistanceCache> plane;
  {
    Span sp(tr, "topo.plane_fill", root, in.name);
    plane = std::make_shared<const topo::DistanceCache>(*in.topo);
  }
  auto handle = std::make_shared<core::CacheHandle>();
  handle->seed(*in.topo, plane);
  Rng rng(in.seed);
  if (in.strategy == "topolb+refine") {
    core::Mapping m;
    {
      Span sp(tr, "core.topolb", root, in.name);
      m = core::TopoLB(core::EstimationOrder::kSecond,
                       core::DistanceMode::kCached, handle)
              .map(in.g, *in.topo, rng);
    }
    Span sp(tr, "core.refine", root, in.name);
    core::RefineResult r = core::refine_mapping(
        in.g, *in.topo, m, 8, core::DistanceMode::kCached, plane.get());
    s.mapping = std::move(r.mapping);
    s.counts = {r.swaps, r.passes};
  } else {
    Span sp(tr, "core.topocent", root, in.name);
    s.mapping = core::TopoCentLB(core::DistanceMode::kCached, handle)
                    .map(in.g, *in.topo, rng);
  }
  {
    Span sp(tr, "core.eval", root, in.name);
    const double hb = core::hop_bytes(in.g, *plane, s.mapping);
    const core::LinkLoadStats links =
        core::link_loads(in.g, *in.topo, s.mapping);
    s.hops_per_byte = hb / in.g.total_comm_bytes();
    s.counts.push_back(links.links_used);
  }
  Span sp(tr, "runtime.serialize", root, in.name);
  s.digest = mapping_digest(s.mapping);
  return s;
}

std::uint64_t library_digest(const FlatInstance& in) {
  Rng rng(in.seed);
  return mapping_digest(
      core::make_strategy(in.strategy)->map(in.g, *in.topo, rng));
}

}  // namespace

void run_flat_square(const Options& opt, Checker& check, Trace& trace,
                     Outcome& out) {
  const char* strategies[] = {"topolb+refine", "topocent"};

  std::vector<FlatInstance> instances;
  const std::vector<double> setup_s = timed_setups([&] {
    support::set_num_threads(1);
    support::set_num_threads(opt.workers);
    instances.clear();
    for (const Shape& shape : kFlatShapes) {
      // Stencils draw nothing from the generator, and TopoLB, TopoCentLB
      // and RefineTopoLB are deterministic: the seed reaches every call
      // that takes an Rng but cannot change this workload's inputs.
      Rng rng(opt.seed);
      const graph::TaskGraph g = graph::make_task_graph(shape.graph, rng);
      const topo::TopologyPtr t = topo::make_topology(shape.topo);
      for (const char* strategy : strategies)
        instances.push_back({std::string(shape.graph) + "->" + shape.topo +
                                 "/" + strategy,
                             strategy, opt.seed, g, t});
    }
  });

  std::vector<BatchInstance> batch;
  for (const FlatInstance& in : instances) {
    batch.push_back(
        {in.name,
         [&in](Trace& tr, int root) { return serve_flat(in, tr, root); },
         [&in](const Served& s) {
           return is_bijection(s.mapping, in.topo->size());
         },
         [&in] { return library_digest(in); }});
  }
  run_batch(opt, check, trace, out, batch, setup_s);
}

}  // namespace perfbench
