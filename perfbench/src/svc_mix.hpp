// The topomapd request mix shared by the svc-closed workload and the
// svc layer probes, plus the library reference each served mapping must
// match byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace perfbench {

struct SvcMix {
  /// One pass of the mix: every request once.
  std::vector<topomap::svc::Request> requests;
  /// Distinct pool keys among the requests (all below the pool capacity).
  int machines = 0;
};

/// The seeded mix: topolb+refine and topocent maps on 64-512 processor
/// tori and meshes (one with degraded links), an explain, an evacuate on
/// a machine with a failed node, an optimal solve on 12 tasks, a status.
/// The seed picks the request seeds, the random-graph instances and the
/// fault draws; the machine count and the kinds are fixed.
SvcMix make_svc_mix(std::uint64_t seed);

/// What the library returns for a request, computed by calling core,
/// runtime and topo directly.  `digest` is of the serialized mapping (0
/// for requests without one); `hops_per_byte` is set for map requests,
/// measured in plain hops on the base topology.
struct SvcReference {
  std::uint64_t digest = 0;
  bool is_map = false;
  double hops_per_byte = 0.0;
};

SvcReference library_reference(const topomap::svc::Request& req);

/// Digest of the mapping a response carries (0 when it has none).
std::uint64_t response_digest(const topomap::svc::Response& resp);

/// An in-process topomapd on a fresh unix socket under `dir`; stopped,
/// joined and its socket removed on destruction.
class LocalServer {
 public:
  LocalServer(const std::string& dir, std::size_t workers);
  ~LocalServer();
  LocalServer(const LocalServer&) = delete;
  LocalServer& operator=(const LocalServer&) = delete;

  const std::string& socket() const { return socket_; }
  topomap::svc::Server& server() { return server_; }

 private:
  std::string socket_;
  topomap::svc::Server server_;
};

/// Serve every request of the mix once over one connection and check each
/// response against its reference: the warm-up that fills the pool.
void warm_up(const std::string& socket, const SvcMix& mix,
             const std::vector<SvcReference>& refs, Checker& check);

/// Run `clients` closed-loop connections against the server on `socket`
/// until `seconds` have passed and at least `min_requests` completed, or,
/// when `per_client` > 0, for exactly that many requests per client.
/// Client c starts its pass over the mix at offset c * size / clients.
/// Every response is checked against `refs` (same index as the mix).
/// Rounds alternate traced and untraced when the trace is enabled.
struct LoopResult {
  std::vector<double> latency_ms;               ///< every request
  std::vector<double> traced_ms, untraced_ms;   ///< by round parity
  std::vector<std::vector<double>> by_request;  ///< latency per mix index
  double wall_s = 0.0;
};

LoopResult run_closed_loop(const std::string& socket, const SvcMix& mix,
                           const std::vector<SvcReference>& refs,
                           int clients, double seconds,
                           std::int64_t min_requests, std::int64_t per_client,
                           Checker& check, Trace& trace);

}  // namespace perfbench
