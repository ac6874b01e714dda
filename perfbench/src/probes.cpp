// The per-layer probe suite of a traced run.  Each probe times one public
// library call on the benchmark's own inputs, made from the seed, so every
// workload's traced run reports the same per-layer metrics with the same
// meaning.  The comment on each group names the end-to-end metric it
// should move; perfbench/README.md lists the predictions.
#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

#include "bench.hpp"
#include "core/cache_handle.hpp"
#include "core/hier_topo_lb.hpp"
#include "core/metrics.hpp"
#include "core/refine_topo_lb.hpp"
#include "core/topo_cent_lb.hpp"
#include "core/topo_lb.hpp"
#include "graph/factory.hpp"
#include "graph/quotient.hpp"
#include "partition/multilevel.hpp"
#include "runtime/rank_reorder.hpp"
#include "support/parallel.hpp"
#include "svc/cache_pool.hpp"
#include "svc/frame.hpp"
#include "svc/service.hpp"
#include "svc_mix.hpp"
#include "topo/factory.hpp"

namespace perfbench {

using namespace topomap;

namespace {

/// Times probe calls, records each as a span under the probe root, and
/// accumulates the durations per metric name.
class Probe {
 public:
  Probe(Trace& trace, int root) : trace_(trace), root_(root) {}

  template <class F>
  auto operator()(const std::string& metric, F&& f) {
    Span sp(trace_, metric, root_, "probe");
    const Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      seconds_[metric] += seconds_since(t0);
    } else {
      auto r = f();
      seconds_[metric] += seconds_since(t0);
      return r;
    }
  }

  double seconds(const std::string& metric) const {
    const auto it = seconds_.find(metric);
    return it == seconds_.end() ? 0.0 : it->second;
  }

 private:
  Trace& trace_;
  int root_;
  std::map<std::string, double> seconds_;
};

}  // namespace

void run_layer_probes(const Options& opt, Checker& check, Trace& trace,
                      Outcome& out) {
  Span root(trace, "probes", -1, "probe");
  Probe probe(trace, root.id());
  Metrics& mx = out.metrics;
  const auto at_workers = [&](int n) { support::set_num_threads(n); };

  // -- graph.build_s, topo.build_s -> setup_s (batch workloads)
  std::vector<graph::TaskGraph> graphs;
  std::vector<topo::TopologyPtr> topos;
  for (const Shape& s :
       {kFlatShapes[0], kFlatShapes[1], kHierShapes[0], kHierShapes[1]}) {
    Rng rng(opt.seed);
    graphs.push_back(probe("graph.build_s", [&] {
      return graph::make_task_graph(s.graph, rng);
    }));
    topos.push_back(
        probe("topo.build_s", [&] { return topo::make_topology(s.topo); }));
  }
  mx.set("graph.build_s", probe.seconds("graph.build_s"), "s");
  mx.set("topo.build_s", probe.seconds("topo.build_s"), "s");

  // -- flat kernels at opt.probe_workers and at 1 worker -> map_s
  //    (flat-square), svc_p50_ms (svc-closed).  Counts and digests must
  //    match across both.
  std::int64_t plane_rows = 0, swaps = 0, passes = 0;
  double plane_bytes = 0.0, pair_evals = 0.0, hb_before = 0.0, hb_after = 0.0;
  std::vector<std::pair<const graph::TaskGraph*, core::Mapping>> evaluated;
  for (int i = 0; i < 2; ++i) {
    const graph::TaskGraph& g = graphs[static_cast<std::size_t>(i)];
    const topo::Topology& t = *topos[static_cast<std::size_t>(i)];
    const auto plane = probe("topo.plane_fill_s", [&] {
      return std::make_shared<const topo::DistanceCache>(t);
    });
    const double p = t.size();
    plane_rows += plane->size();
    plane_bytes += 2.0 * p * p;
    auto handle = std::make_shared<core::CacheHandle>();
    handle->seed(t, plane);
    const auto run_topolb = [&] {
      Rng rng(opt.seed);
      return core::TopoLB(core::EstimationOrder::kSecond,
                          core::DistanceMode::kCached, handle)
          .map(g, t, rng);
    };
    const auto run_topocent = [&] {
      Rng rng(opt.seed);
      return core::TopoCentLB(core::DistanceMode::kCached, handle)
          .map(g, t, rng);
    };
    at_workers(opt.probe_workers);
    const core::Mapping lb = probe("core.topolb_s", run_topolb);
    const core::RefineResult rf = probe("core.refine_s", [&] {
      return core::refine_mapping(g, t, lb, 8, core::DistanceMode::kCached,
                                  plane.get());
    });
    const core::Mapping tc = probe("core.topocent_s", run_topocent);
    at_workers(1);
    const core::Mapping lb1 = probe("core.topolb_s_t1", run_topolb);
    const core::RefineResult rf1 = probe("core.refine_s_t1", [&] {
      return core::refine_mapping(g, t, lb1, 8, core::DistanceMode::kCached,
                                  plane.get());
    });
    const core::Mapping tc1 = probe("core.topocent_s_t1", run_topocent);
    at_workers(opt.workers);
    const std::string name = kFlatShapes[i].graph;
    check.check(is_bijection(rf.mapping, t.size()) &&
                    is_bijection(tc, t.size()),
                name + " probe: invalid mapping");
    check.check(mapping_digest(lb) == mapping_digest(lb1) &&
                    mapping_digest(tc) == mapping_digest(tc1) &&
                    mapping_digest(rf.mapping) ==
                        mapping_digest(rf1.mapping) &&
                    rf.swaps == rf1.swaps && rf.passes == rf1.passes,
                name + " probe: 1 worker differs from " +
                    std::to_string(opt.probe_workers) + " workers");
    swaps += rf.swaps;
    passes += rf.passes;
    pair_evals += rf.passes * p * (p - 1.0) / 2.0;
    hb_before += rf.hop_bytes_before;
    hb_after += rf.hop_bytes_after;
    evaluated.push_back({&g, rf.mapping});
  }
  mx.set("topo.plane_fill_s", probe.seconds("topo.plane_fill_s"), "s");
  mx.set("topo.plane_rows", static_cast<double>(plane_rows), "count");
  mx.set("topo.plane_bytes", plane_bytes, "B_computed");
  for (const char* m : {"core.topolb_s", "core.topolb_s_t1", "core.topocent_s",
                        "core.topocent_s_t1", "core.refine_s",
                        "core.refine_s_t1"})
    mx.set(m, probe.seconds(m), "s");
  mx.set("core.refine.swaps", static_cast<double>(swaps), "count");
  mx.set("core.refine.passes", static_cast<double>(passes), "count");
  mx.set("core.refine.accept_ratio",
         pair_evals > 0 ? static_cast<double>(swaps) / pair_evals : 0.0,
         "ratio");
  mx.set("core.refine.gain_ratio",
         hb_before > 0 ? (hb_before - hb_after) / hb_before : 0.0, "ratio");

  // -- hier at opt.workers (checked against 1 worker) -> map_s and
  //    hops_per_byte (hier-scale)
  std::int64_t task_levels = 0, topo_levels = 0, hier_swaps = 0;
  int coarse_groups = 0;
  double max_load_ratio = 0.0;
  const char* hier_metric[] = {"core.hier.sq20_s", "core.hier.os64_s"};
  for (int i = 0; i < 2; ++i) {
    const graph::TaskGraph& g = graphs[static_cast<std::size_t>(2 + i)];
    const topo::Topology& t = *topos[static_cast<std::size_t>(2 + i)];
    const auto run_hier = [&] {
      Rng rng(opt.seed);
      return core::hier_map(g, t, rng);
    };
    core::HierResult r = probe(hier_metric[i], run_hier);
    at_workers(1);
    const core::HierResult r1 = run_hier();
    at_workers(opt.workers);
    check.check(mapping_digest(r.mapping) == mapping_digest(r1.mapping) &&
                    r.task_levels == r1.task_levels &&
                    r.topo_levels == r1.topo_levels && r.swaps == r1.swaps,
                std::string(kHierShapes[i].graph) +
                    " probe: 1 worker differs from " +
                    std::to_string(opt.workers) + " workers");
    task_levels += r.task_levels;
    topo_levels += r.topo_levels;
    hier_swaps += r.swaps;
    if (i == 0) coarse_groups = r.quotient.num_vertices();
    std::vector<int> load(static_cast<std::size_t>(t.size()), 0);
    for (int q : r.mapping) ++load[static_cast<std::size_t>(q)];
    const int ideal = (g.num_vertices() + t.size() - 1) / t.size();
    max_load_ratio = std::max(
        max_load_ratio,
        static_cast<double>(*std::max_element(load.begin(), load.end())) /
            ideal);
    mx.set(hier_metric[i], probe.seconds(hier_metric[i]), "s");
    evaluated.push_back({&g, std::move(r.mapping)});
  }
  mx.set("core.hier.task_levels", static_cast<double>(task_levels), "count");
  mx.set("core.hier.topo_levels", static_cast<double>(topo_levels), "count");
  mx.set("core.hier.swaps", static_cast<double>(hier_swaps), "count");
  mx.set("core.hier.max_load_ratio", max_load_ratio, "ratio");

  // -- partition and quotient on the hier-scale graphs -> map_s (hier-scale)
  {
    const graph::TaskGraph& g20 = graphs[2];
    Rng rng(opt.seed);
    const part::PartitionResult pr = probe("partition.multilevel_s", [&] {
      return part::MultilevelPartitioner().partition(g20, coarse_groups, rng);
    });
    mx.set("partition.multilevel_s", probe.seconds("partition.multilevel_s"),
           "s");
    mx.set("partition.edge_cut", part::edge_cut(g20, pr.assignment), "B");
    mx.set("partition.imbalance",
           part::load_imbalance(g20, pr.assignment, coarse_groups), "ratio");
    const graph::TaskGraph q = probe("graph.quotient_s", [&] {
      return graph::quotient_graph(g20, pr.assignment, coarse_groups);
    });
    check.check(q.num_vertices() == coarse_groups,
                "quotient probe: wrong group count");
    mx.set("graph.quotient_s", probe.seconds("graph.quotient_s"), "s");

    // First round on unit weights: no weight cap binds.
    const graph::TaskGraph& g64 = graphs[3];
    part::CoarseLevel level;
    const bool shrank = probe("partition.coarsen_once_s", [&] {
      return part::coarsen_once(g64, std::numeric_limits<double>::infinity(),
                                rng, &level);
    });
    check.check(shrank, "coarsen probe: matching stalled");
    mx.set("partition.coarsen_once_s",
           probe.seconds("partition.coarsen_once_s"), "s");
    mx.set("partition.coarsen_shrink",
           shrank ? static_cast<double>(level.coarse.num_vertices()) /
                        g64.num_vertices()
                  : 1.0,
           "ratio");
  }

  // -- evaluation and serialization -> map_s (batch workloads)
  for (const auto& [g, m] : evaluated) {
    const topo::Topology& t =
        *topos[static_cast<std::size_t>(g - graphs.data())];
    probe("core.eval_s", [&] {
      const double hb = core::hop_bytes(*g, t, m);
      const core::LinkLoadStats ll = core::link_loads(*g, t, m);
      return hb + ll.max_bytes;
    });
    probe("runtime.serialize_s", [&] {
      std::ostringstream os;
      rts::write_rank_mapping(os, m);
      return os.str().size();
    });
  }
  mx.set("core.eval_s", probe.seconds("core.eval_s"), "s");
  mx.set("runtime.serialize_s", probe.seconds("runtime.serialize_s"), "s");

  // -- svc layers on the svc-closed mix -> setup_s, svc_p50_ms, svc_p99_ms,
  //    svc_rps (svc-closed)
  const SvcMix mix = make_svc_mix(opt.seed);
  std::vector<SvcReference> refs;
  for (const auto& req : mix.requests) refs.push_back(library_reference(req));
  {
    svc::CachePool pool;
    std::map<std::string, bool> seen;
    for (const svc::Request& r : mix.requests) {
      if (r.kind == svc::RequestKind::kStatus) continue;
      if (seen[svc::machine_key(r.topology, r.fault_spec())]) continue;
      seen[svc::machine_key(r.topology, r.fault_spec())] = true;
      probe("svc.pool.acquire_cold_s",
            [&] { return pool.acquire(r.topology, r.fault_spec()); });
    }
    mx.set("svc.pool.acquire_cold_s",
           probe.seconds("svc.pool.acquire_cold_s"), "s");
  }

  // Direct serial Service::handle on a warm service, three rounds.
  svc::Service service;
  std::map<std::string, std::vector<double>> handle_ms;
  std::vector<double> direct_ms;
  std::vector<svc::Response> responses;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < mix.requests.size(); ++i) {
      svc::Request req = mix.requests[i];
      req.id = "direct-" + std::to_string(i);
      const Clock::time_point t0 = Clock::now();
      svc::Response resp;
      {
        Span sp(trace, "svc.handle", root.id(), req.id);
        resp = service.handle(req);
      }
      const double ms = 1e3 * seconds_since(t0);
      check.check(resp.ok && response_digest(resp) == refs[i].digest,
                  "direct handle " + std::to_string(i) +
                      ": differs from the library");
      if (round == 0) {  // the warm-up round fills the service's pool
        responses.push_back(std::move(resp));
        continue;
      }
      handle_ms[svc::to_string(req.kind)].push_back(ms);
      direct_ms.push_back(ms);
    }
  }
  for (const auto& [kind, v] : handle_ms)
    mx.set("svc.handle_ms." + kind, median(v), "ms");

  // Codec round trip per request/response pair of the mix.
  std::vector<double> codec_us;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < mix.requests.size(); ++i) {
      svc::Request sent = mix.requests[i];
      sent.id = responses[i].id;
      const Clock::time_point t0 = Clock::now();
      svc::FrameDecoder decoder;
      decoder.feed(svc::encode_frame(sent.to_json().dump()));
      const svc::Request req =
          svc::Request::from_json(json::Value::parse(*decoder.next()));
      decoder.feed(svc::encode_frame(responses[i].to_json().dump()));
      const svc::Response resp =
          svc::Response::from_json(json::Value::parse(*decoder.next()));
      codec_us.push_back(1e6 * seconds_since(t0));
      check.check(req.kind == mix.requests[i].kind &&
                      response_digest(resp) == refs[i].digest,
                  "codec round trip " + std::to_string(i) + " changed bytes");
    }
  }
  mx.set("svc.codec_us", median(codec_us), "us");

  // A fixed-length closed loop (4 clients x 2 passes of the mix) on a
  // 2-worker server: pool counters are exact, and the client p50 against
  // the direct p50 gives the transport and queue-wait share.
  {
    LocalServer server(opt.work_dir, 2);
    warm_up(server.socket(), mix, refs, check);
    Trace off(false);
    const LoopResult loop =
        run_closed_loop(server.socket(), mix, refs, 4, 0.0, 0,
                        2 * static_cast<std::int64_t>(mix.requests.size()),
                        check, off);
    const svc::CachePoolStats cs = server.server().cache_stats();
    mx.set("svc.pool.hits", static_cast<double>(cs.hits), "count");
    mx.set("svc.pool.misses", static_cast<double>(cs.misses), "count");
    mx.set("svc.pool.evictions", static_cast<double>(cs.evictions), "count");
    mx.set("svc.pool.hit_ratio",
           static_cast<double>(cs.hits) /
               static_cast<double>(
                   std::max<std::uint64_t>(cs.hits + cs.misses, 1)),
           "ratio");
    mx.set("svc.wire_queue_ms", median(loop.latency_ms) - median(direct_ms),
           "ms");
  }
}

}  // namespace perfbench
