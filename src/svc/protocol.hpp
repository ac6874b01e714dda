// The topomapd request/response protocol: schema-versioned JSON documents
// ("topomap.svc.request" / "topomap.svc.response", version 1) carried one
// per frame (svc/frame.hpp).
//
// A request names a kind — map, explain, evacuate, optimal, status,
// metrics, flight — plus the same parameter family the topomap CLI takes: workload/topology/
// strategy specs, a seed, and the fault flag family (verbatim
// topo::parse_fault_spec inputs, so the client reuses the CLI parser and
// the server revalidates).  Parsing is strict in both directions: wrong
// schema/version, missing ids, unknown kinds, unknown parameter keys, and
// mistyped values all throw topomap::precondition_error naming the field,
// so malformed requests fail loudly instead of mapping something the
// caller did not ask for.
//
// Responses are either {"status":"ok","result":{...}} or
// {"status":"error","error":{"category","message"}}.  Error categories
// mirror the CLI exit-code taxonomy 1:1 — "usage" → 1, "precondition" → 2,
// "invariant" → 3, "io" → 4 — so `topomap client` exits with exactly the
// code the equivalent one-shot command would have.
#pragma once

#include <cstdint>
#include <exception>
#include <string>

#include "support/json.hpp"
#include "topo/fault_spec.hpp"

namespace topomap::svc {

namespace json = ::topomap::support::json;

inline constexpr const char* kRequestSchemaName = "topomap.svc.request";
inline constexpr const char* kResponseSchemaName = "topomap.svc.response";
inline constexpr int kSchemaVersion = 1;

enum class RequestKind {
  kMap,
  kExplain,
  kEvacuate,
  kOptimal,
  kStatus,
  kMetrics,  ///< telemetry snapshot (topomap.svc.metrics v1)
  kFlight,   ///< recent lifecycle events (topomap.svc.flight v1)
};

/// Number of request kinds (for per-kind counter arrays).
inline constexpr int kNumRequestKinds = 7;

const char* to_string(RequestKind kind);

/// Parses "map" | "explain" | "evacuate" | "optimal" | "status" |
/// "metrics" | "flight"; throws precondition_error on anything else.
RequestKind parse_request_kind(const std::string& s);

/// One protocol request.  Defaults match the CLI's, so a request carrying
/// only {id, kind} is the CLI's default invocation of that subcommand.
struct Request {
  std::string id;
  RequestKind kind = RequestKind::kStatus;

  std::string tasks = "stencil2d:8x8";
  std::string topology = "torus:8x8";
  std::string strategy = "topolb";
  std::uint64_t seed = 1;

  // explain
  std::string baseline;
  bool baseline_blind = false;
  int top_k = 3;

  // evacuate
  int refine_passes = 1;
  double load_weight = 0.0;

  // optimal
  std::int64_t budget = 20000000;
  std::string compare = "topolb";
  bool no_symmetry = false;

  // Fault flag family, verbatim CLI strings/counts (topo::parse_fault_spec).
  std::string fail_link;
  std::string fail_node;
  std::string degrade_link;
  std::string restore_node;
  std::string restore_link;
  std::int64_t random_link_faults = 0;
  std::int64_t random_node_faults = 0;
  std::int64_t random_degrades = 0;
  std::uint64_t fault_seed = 42;

  /// The parsed fault request; throws precondition_error on malformed
  /// entries exactly like the CLI flags would.
  topo::FaultSpec fault_spec() const;

  json::Value to_json() const;

  /// Strict parse + validation of one request document.
  static Request from_json(const json::Value& doc);
};

/// Canonical machine identity for svc::CachePool keying: the topology spec
/// plus the *parsed* fault spec serialized deterministically (so the key
/// is independent of flag-string whitespace/duplication quirks — parsing
/// is strict enough that equal keys mean identical machines).  This is the
/// server-side analogue of core::CacheHandle's identity+fault-version key.
std::string machine_key(const std::string& topology_spec,
                        const topo::FaultSpec& faults);

struct ErrorInfo {
  std::string category;  // "usage" | "precondition" | "invariant" | "io"
  std::string message;

  /// Throws the taxonomy exception the category names (the inverse of
  /// make_error_response), so a client fails as the server side did.
  [[noreturn]] void raise() const;
};

/// The CLI exit code for an error category (unknown categories map to 1,
/// like any unclassified CLI failure).
int exit_code_for(const std::string& category);

struct Response {
  std::string id;
  bool ok = true;
  ErrorInfo error;                        // when !ok
  json::Value result = json::Value::object();  // when ok

  json::Value to_json() const;
  static Response from_json(const json::Value& doc);
};

/// Build the error response for the exception currently being handled,
/// mapping exception types onto the taxonomy (usage_error → "usage",
/// precondition_error → "precondition", invariant_error → "invariant",
/// io_error → "io", anything else → "usage" with the raw message; the
/// types live in support/error.hpp).
Response make_error_response(const std::string& id, std::exception_ptr error);

}  // namespace topomap::svc
