// hier-scale: HierTopoLB where flat mapping cannot run.  20^3 at n == p =
// 8000 is above both flat caps, so it takes the machine-contraction and
// multilevel-partition path; 64^3 -> 32^3 maps 262,144 tasks at 8 per
// processor and is dominated by task coarsening and projection.
#include <memory>

#include "batch.hpp"
#include "core/hier_topo_lb.hpp"
#include "core/metrics.hpp"
#include "graph/factory.hpp"
#include "support/parallel.hpp"
#include "topo/factory.hpp"

namespace perfbench {

using namespace topomap;

namespace {

struct HierInstance {
  std::string name;
  std::uint64_t seed = 0;
  graph::TaskGraph g;
  topo::TopologyPtr topo;
};

Served serve_hier(const HierInstance& in, Trace& tr, int root) {
  Served s;
  Rng rng(in.seed);
  {
    Span sp(tr, "core.hier", root, in.name);
    core::HierResult r = core::hier_map(in.g, *in.topo, rng);
    s.mapping = std::move(r.mapping);
    s.counts = {r.task_levels, r.topo_levels, r.swaps};
  }
  {
    Span sp(tr, "core.eval", root, in.name);
    const double hb = core::hop_bytes(in.g, *in.topo, s.mapping);
    const core::LinkLoadStats links =
        core::link_loads(in.g, *in.topo, s.mapping);
    s.hops_per_byte = hb / in.g.total_comm_bytes();
    s.counts.push_back(links.links_used);
  }
  Span sp(tr, "runtime.serialize", root, in.name);
  s.digest = mapping_digest(s.mapping);
  return s;
}

/// Every task on a processor of the machine.  HierTopoLB splits each
/// machine node's tasks in proportion to its children's capacity but
/// promises no per-processor bound: at n == p it leaves some processors
/// empty, and at 64^3 -> 32^3 some seeds put 17 tasks where 8 is ideal.
/// The load balance is reported as core.hier.max_load_ratio instead.
bool valid_hier(const core::Mapping& m, int n, int p) {
  if (static_cast<int>(m.size()) != n) return false;
  for (int q : m)
    if (q < 0 || q >= p) return false;
  return true;
}

std::uint64_t library_digest(const HierInstance& in) {
  Rng rng(in.seed);
  return mapping_digest(core::make_strategy("hier")->map(in.g, *in.topo, rng));
}

}  // namespace

void run_hier_scale(const Options& opt, Checker& check, Trace& trace,
                    Outcome& out) {
  std::vector<HierInstance> instances;
  const std::vector<double> setup_s = timed_setups([&] {
    support::set_num_threads(1);
    support::set_num_threads(opt.workers);
    instances.clear();
    for (const Shape& shape : kHierShapes) {
      // The seed drives hier's random matching and partitioning.
      Rng rng(opt.seed);
      instances.push_back(
          {std::string(shape.graph) + "->" + shape.topo + "/hier", opt.seed,
           graph::make_task_graph(shape.graph, rng),
           topo::make_topology(shape.topo)});
    }
  });

  std::vector<BatchInstance> batch;
  for (const HierInstance& in : instances) {
    batch.push_back(
        {in.name,
         [&in](Trace& tr, int root) { return serve_hier(in, tr, root); },
         [&in](const Served& s) {
           return valid_hier(s.mapping, in.g.num_vertices(), in.topo->size());
         },
         [&in] { return library_digest(in); }});
  }
  run_batch(opt, check, trace, out, batch, setup_s);
}

}  // namespace perfbench
