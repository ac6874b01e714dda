// svc-closed: an in-process topomapd (svc::Server, 2 workers) on a unix
// socket, driven closed-loop by 4 client connections — callers such as
// job launchers each wait for their reply.  The kernels run inline on one
// thread per request with the distance plane already warm, and the svc
// codec, queue and pool layers only work here.
#include <memory>

#include "bench.hpp"
#include "svc_mix.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kServerWorkers = 2;
constexpr int kClients = 4;
// p99 needs at least ten samples beyond it.
constexpr std::int64_t kMinRequests = 1000;

}  // namespace

void run_svc_closed(const Options& opt, Checker& check, Trace& trace,
                    Outcome& out) {
  const SvcMix mix = make_svc_mix(opt.seed);
  std::vector<SvcReference> refs;
  for (const auto& req : mix.requests) refs.push_back(library_reference(req));

  // Set-up is what a daemon user pays once: generating the request mix,
  // starting the server and the warm-up pass that fills the pool.
  std::unique_ptr<LocalServer> server;
  std::vector<double> setup_s;
  for (int i = 0; i < 11; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    const SvcMix generated = make_svc_mix(opt.seed);
    server = std::make_unique<LocalServer>(opt.work_dir, kServerWorkers);
    warm_up(server->socket(), generated, refs, check);
    setup_s.push_back(seconds_since(t0));
  }

  const LoopResult loop =
      run_closed_loop(server->socket(), mix, refs, kClients, opt.seconds,
                      kMinRequests, 0, check, trace);
  const topomap::svc::CachePoolStats pool = server->server().cache_stats();
  server.reset();
  check.check(pool.misses == static_cast<std::uint64_t>(mix.machines) &&
                  pool.evictions == 0,
              "svc pool: " + std::to_string(pool.misses) + " misses and " +
                  std::to_string(pool.evictions) + " evictions for " +
                  std::to_string(mix.machines) + " machines");

  double map_s = 0.0, hpb = 0.0;
  int maps = 0;
  for (std::size_t i = 0; i < mix.requests.size(); ++i) {
    const topomap::svc::Request& r = mix.requests[i];
    out.notes.push_back(std::string(topomap::svc::to_string(r.kind)) + " " +
                        r.tasks + " -> " + r.topology + " " + r.strategy +
                        ": median " +
                        json::format_number(median(loop.by_request[i])) +
                        " ms over " +
                        std::to_string(loop.by_request[i].size()));
    out.fingerprint.push_back(std::to_string(i) + " " +
                              std::to_string(refs[i].digest) + " " +
                              json::format_number(refs[i].hops_per_byte));
    if (!refs[i].is_map) continue;
    map_s += 1e-3 * median(loop.by_request[i]);
    hpb += refs[i].hops_per_byte;
    ++maps;
  }
  out.notes.push_back("requests " + std::to_string(loop.latency_ms.size()) +
                      " in " + json::format_number(loop.wall_s) + " s; " +
                      std::to_string(mix.machines) + " machines, pool hits " +
                      std::to_string(pool.hits) + " misses " +
                      std::to_string(pool.misses));
  if (opt.trace) {
    report_trace_ratios(trace, "request", loop.traced_ms, loop.untraced_ms,
                        out);
    return;
  }
  out.metrics.set("setup_s", median(setup_s), "s");
  out.metrics.set("map_s", map_s, "s");
  out.metrics.set("hops_per_byte", maps ? hpb / maps : 0.0, "hop/B");
  out.metrics.set("svc_rps",
                  static_cast<double>(loop.latency_ms.size()) / loop.wall_s,
                  "1/s");
  out.metrics.set("svc_p50_ms", median(loop.latency_ms), "ms");
  out.metrics.set("svc_p99_ms", percentile(loop.latency_ms, 99.0), "ms");
}

}  // namespace perfbench
