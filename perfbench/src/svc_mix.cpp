#include "svc_mix.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include "core/fault_aware.hpp"
#include "core/metrics.hpp"
#include "core/optimal_lb.hpp"
#include "graph/factory.hpp"
#include "runtime/evacuate.hpp"
#include "svc/client.hpp"
#include "topo/factory.hpp"
#include "topo/fault_overlay.hpp"

namespace perfbench {

using namespace topomap;

SvcMix make_svc_mix(std::uint64_t seed) {
  std::uint64_t stream = seed;
  // Seeds stay below 2^53 so they survive the protocol's JSON numbers.
  const auto next_seed = [&stream] { return 1 + splitmix64(stream) % 1000000; };
  SvcMix mix;
  const auto add = [&](svc::RequestKind kind, const char* tasks,
                       const char* topology, const char* strategy) {
    svc::Request r;
    r.kind = kind;
    r.tasks = tasks;
    r.topology = topology;
    r.strategy = strategy;
    r.seed = next_seed();
    mix.requests.push_back(r);
    return &mix.requests.back();
  };
  const std::uint64_t degrade_seed = next_seed();
  const std::uint64_t node_fault_seed = next_seed();
  const Shape shapes[] = {{"stencil2d:8x8", "torus:8x8"},
                          {"stencil2d:16x16", "torus:16x16"},
                          {"stencil3d:8x8x8", "torus:8x8x8"},
                          {"rgg:256:0.12", "mesh:16x16"},
                          {"stencil2d:16x16", "torus:16x16"}};
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    for (const char* strategy : {"topolb+refine", "topocent"}) {
      svc::Request* r = add(svc::RequestKind::kMap, shapes[i].graph,
                            shapes[i].topo, strategy);
      if (i + 1 == std::size(shapes)) {  // the degraded-link machine
        r->random_degrades = 8;
        r->fault_seed = degrade_seed;
      }
    }
  }
  add(svc::RequestKind::kExplain, "stencil2d:16x16", "torus:16x16", "topolb")
      ->baseline = "random";
  svc::Request* evac = add(svc::RequestKind::kEvacuate, "stencil2d:7x9",
                           "torus:8x8", "topolb");
  evac->random_node_faults = 1;
  evac->fault_seed = node_fault_seed;
  add(svc::RequestKind::kOptimal, "stencil2d:3x4", "torus:8x8", "topolb")
      ->compare = "";
  mix.requests.emplace_back().kind = svc::RequestKind::kStatus;

  std::set<std::string> keys;
  for (const svc::Request& r : mix.requests)
    if (r.kind != svc::RequestKind::kStatus)
      keys.insert(svc::machine_key(r.topology, r.fault_spec()));
  mix.machines = static_cast<int>(keys.size());
  return mix;
}

SvcReference library_reference(const svc::Request& req) {
  SvcReference ref;
  if (req.kind == svc::RequestKind::kStatus) return ref;
  Rng rng(req.seed);
  const graph::TaskGraph g = graph::make_task_graph(req.tasks, rng);
  const topo::TopologyPtr base = topo::make_topology(req.topology);
  const std::shared_ptr<topo::FaultOverlay> overlay =
      topo::build_fault_overlay(base, req.fault_spec());
  core::Mapping m;
  switch (req.kind) {
    case svc::RequestKind::kMap:
    case svc::RequestKind::kExplain: {
      const core::StrategyPtr strategy = core::make_strategy(req.strategy);
      m = overlay ? core::map_on_alive(*strategy, g, *overlay, rng)
                  : strategy->map(g, *base, rng);
      break;
    }
    case svc::RequestKind::kEvacuate: {
      // The faults strike a job already mapped on the healthy machine.
      const core::StrategyPtr strategy = core::make_strategy(req.strategy);
      topo::FaultOverlay healthy(base);
      const core::Mapping before =
          core::map_on_alive(*strategy, g, healthy, rng);
      rts::EvacuateOptions options;
      options.refine_passes = req.refine_passes;
      options.load_weight = req.load_weight;
      m = rts::compare_evacuate_vs_remap(g, *overlay, before, *strategy, rng,
                                         options)
              .evac.mapping;
      break;
    }
    case svc::RequestKind::kOptimal: {
      core::OptimalOptions options;
      options.node_budget = req.budget;
      options.symmetry = !req.no_symmetry;
      m = core::find_optimal_mapping(
              g, overlay ? static_cast<const topo::Topology&>(*overlay) : *base,
              options)
              .mapping;
      break;
    }
    default:
      return ref;
  }
  ref.digest = mapping_digest(m);
  if (req.kind == svc::RequestKind::kMap) {
    ref.is_map = true;
    ref.hops_per_byte = core::hops_per_byte(g, *base, m);
  }
  return ref;
}

std::uint64_t response_digest(const svc::Response& resp) {
  if (!resp.ok || !resp.result.is_object()) return 0;
  const json::Value* m = resp.result.find("mapping");
  return m && m->is_string() ? fnv1a(m->as_string()) : 0;
}

namespace {

std::string fresh_socket_path(const std::string& dir) {
  static std::atomic<int> serial{0};
  return dir + "/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(serial.fetch_add(1)) + ".sock";
}

svc::ServerOptions server_options(const std::string& socket,
                                  std::size_t workers) {
  svc::ServerOptions options;
  options.socket_path = socket;
  options.workers = workers;
  return options;
}

bool response_matches(const svc::Response& resp, const SvcReference& ref) {
  return resp.ok && response_digest(resp) == ref.digest;
}

}  // namespace

LocalServer::LocalServer(const std::string& dir, std::size_t workers)
    : socket_(fresh_socket_path(dir)),
      server_(server_options(socket_, workers)) {
  server_.start();
}

LocalServer::~LocalServer() {
  server_.stop();
  server_.join();
  std::error_code ec;
  std::filesystem::remove(socket_, ec);
}

void warm_up(const std::string& socket, const SvcMix& mix,
             const std::vector<SvcReference>& refs, Checker& check) {
  svc::Client client = svc::Client::connect_unix(socket);
  for (std::size_t i = 0; i < mix.requests.size(); ++i) {
    svc::Request req = mix.requests[i];
    req.id = "warm-" + std::to_string(i);
    check.check(response_matches(client.call(req), refs[i]),
                "svc warm-up request " + std::to_string(i) +
                    ": response differs from the library");
  }
}

LoopResult run_closed_loop(const std::string& socket, const SvcMix& mix,
                           const std::vector<SvcReference>& refs,
                           int clients, double seconds,
                           std::int64_t min_requests, std::int64_t per_client,
                           Checker& check, Trace& trace) {
  const std::size_t n = mix.requests.size();
  std::atomic<std::int64_t> completed{0};
  std::vector<LoopResult> results(static_cast<std::size_t>(clients));
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = results[static_cast<std::size_t>(c)];
      mine.by_request.resize(n);
      Trace off(false);
      try {
        svc::Client client = svc::Client::connect_unix(socket);
        const std::size_t offset = static_cast<std::size_t>(c) * n /
                                   static_cast<std::size_t>(clients);
        for (std::size_t k = 0;; ++k) {
          if (per_client > 0 ? static_cast<std::int64_t>(k) >= per_client
                             : seconds_since(start) >= seconds &&
                                   completed.load(std::memory_order_relaxed) >=
                                       min_requests)
            break;
          const std::size_t idx = (offset + k) % n;
          const bool traced = trace.enabled() && ((offset + k) / n) % 2 == 0;
          Trace& tr = traced ? trace : off;
          const std::string id =
              "c" + std::to_string(c) + "-" + std::to_string(k);
          double ms = 0.0;
          {
            Span root(tr, "request", -1, id);
            svc::Request req = mix.requests[idx];
            req.id = id;
            svc::Response resp;
            const Clock::time_point t0 = Clock::now();
            {
              Span call(tr, "svc.call", root.id(), id);
              resp = client.call(req);
            }
            ms = 1e3 * seconds_since(t0);
            check.check(response_matches(resp, refs[idx]),
                        "svc request " + std::to_string(idx) + " (" +
                            svc::to_string(req.kind) +
                            "): response differs from the library");
          }
          completed.fetch_add(1, std::memory_order_relaxed);
          mine.latency_ms.push_back(ms);
          (traced ? mine.traced_ms : mine.untraced_ms).push_back(ms);
          mine.by_request[idx].push_back(ms);
        }
      } catch (const std::exception& e) {
        check.check(false, std::string("svc client: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  out.wall_s = seconds_since(start);
  out.by_request.resize(n);
  for (const LoopResult& r : results) {
    out.latency_ms.insert(out.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    out.traced_ms.insert(out.traced_ms.end(), r.traced_ms.begin(),
                         r.traced_ms.end());
    out.untraced_ms.insert(out.untraced_ms.end(), r.untraced_ms.begin(),
                           r.untraced_ms.end());
    for (std::size_t i = 0; i < n; ++i)
      out.by_request[i].insert(out.by_request[i].end(),
                               r.by_request[i].begin(), r.by_request[i].end());
  }
  return out;
}

}  // namespace perfbench
