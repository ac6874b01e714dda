// svc::Service — topomapd's request executor.
//
// One Service instance serves every connection: it owns the shared
// svc::CachePool and turns protocol Requests into Responses.  A mapping
// request runs the kind's one execution path (svc/run.hpp, which the
// one-shot `topomap` commands run too) on a pooled machine, and the typed
// result is serialized.  Determinism contract: a request's result —
// including the embedded mapping bytes — is byte-identical to the
// equivalent `topomap <kind>` invocation, regardless of how many requests
// are in flight.  Beyond the shared code, two ingredients make that hold:
//
//   * Each request draws from its own Rng(seed) in exactly the CLI's order
//     (task-graph generation first, then mapping), so sharing a process
//     shares no RNG state; the pooled plane only replaces a fill the
//     strategy would otherwise do itself.
//   * handle() wraps execution in a support::InlineScope — mapping kernels
//     run their parallel_for regions inline on the serving thread.  The
//     repo-wide thread-count-invariance contract (every parallel kernel is
//     byte-identical at any thread count, including 1) turns request-level
//     concurrency into the only concurrency, so workers never contend for
//     the deterministic pool's single job slot.
//
// Request-lifecycle telemetry: every request carries a correlation id —
// minted by the server when the request is accepted off the wire, or by
// handle() itself for direct (in-process) calls — and its stage timings
// (queue-wait → cache-pool acquire → kernel → serialize) feed per-kind
// obs::Histograms ("svc/<kind>/<stage>_us"), the always-on
// svc::FlightRecorder ring, and the optional JSONL EventLog.  Timing only
// *observes*: stage clocks never change a mapping result, so served bytes
// are byte-identical with telemetry on or off.  The obs::Histogram feeds
// run only while obs recording is on (one relaxed load otherwise); the
// flight recorder and per-kind atomic counters are always on and
// allocation-free per event.
//
// Error mapping: anything a request throws becomes a structured error
// response carrying the exit-code taxonomy category (svc/protocol.hpp);
// usage mistakes (topomap::usage_error, e.g. a non-square mapping request)
// come back as "usage", so the client exits 1 just like the CLI does.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "svc/cache_pool.hpp"
#include "svc/event_log.hpp"
#include "svc/flight.hpp"
#include "svc/protocol.hpp"

namespace topomap::svc {

struct ServiceOptions {
  /// Distinct machines the CachePool keeps warm.
  std::size_t cache_capacity = 8;
  /// When non-empty, every request writes an obs::Report artifact to
  /// <report_dir>/req-<sanitized id>.json (per-request --stats analogue).
  std::string report_dir;
  /// Flight-recorder ring capacity (rounded up to a power of two).
  std::size_t flight_capacity = 256;
  /// When non-empty, append one JSONL line per completed request here.
  std::string event_log_path;
  /// Event-log rotation threshold (FILE -> FILE.1 when exceeded).
  std::size_t event_log_max_bytes = 1u << 20;
};

/// Per-request lifecycle context the server threads through the queue:
/// the correlation id minted at accept plus the enqueue/dequeue
/// timestamps (obs::now_ns domain) that define the queue-wait stage.
/// Direct Service::handle(req) calls use a default context — handle mints
/// the correlation id and reports no queue wait.
struct RequestContext {
  std::string corr;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t dequeue_ns = 0;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Execute one request.  Never throws: failures come back as structured
  /// error responses with the taxonomy category.
  Response handle(const Request& req);
  Response handle(const Request& req, const RequestContext& ctx);

  /// A service-unique correlation id ("r-<n>").  The server mints one per
  /// request at accept; handle() mints its own when the context has none.
  std::string mint_correlation_id();

  /// The always-on lifecycle event ring (the server records its
  /// accept/enqueue/dequeue/serialize events here too).
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  /// Install the live queue-depth probe for metrics snapshots (the server
  /// owns the queue; 0 when unset, e.g. direct in-process use).
  void set_queue_depth_probe(std::function<std::size_t()> probe);

  /// The topomap.svc.metrics v1 snapshot document (also the result of a
  /// `metrics` request).
  json::Value metrics_snapshot() const;

  CachePoolStats cache_stats() const { return pool_.stats(); }

  /// Event-log rotations so far (0 when no --event-log).
  std::size_t event_log_rotations() const { return event_log_.rotations(); }

 private:
  /// Stage timings for one in-flight request, threaded through the pool
  /// acquire so that stage can be attributed exactly.
  struct Lifecycle {
    const char* kind = "";
    std::string corr;
    std::uint64_t queue_wait_ns = 0;
    std::uint64_t acquire_ns = 0;
  };

  json::Value dispatch(const Request& req, Lifecycle& lc);
  json::Value run_status() const;
  json::Value run_flight() const;
  void finish_request(const Request& req, const Lifecycle& lc, bool ok,
                      std::uint64_t t_start_ns, std::uint64_t total_ns);
  void write_report(const Request& req, bool ok) const;

  ServiceOptions options_;
  CachePool pool_;
  FlightRecorder flight_;
  EventLog event_log_;
  std::function<std::size_t()> queue_depth_probe_;
  std::atomic<std::uint64_t> next_corr_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> served_by_kind_[kNumRequestKinds] = {};
  std::atomic<std::uint64_t> failed_by_kind_[kNumRequestKinds] = {};
};

}  // namespace topomap::svc
