#include "svc/protocol.hpp"

#include <cmath>
#include <set>
#include <sstream>

#include "support/error.hpp"

namespace topomap::svc {

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kMap: return "map";
    case RequestKind::kExplain: return "explain";
    case RequestKind::kEvacuate: return "evacuate";
    case RequestKind::kOptimal: return "optimal";
    case RequestKind::kStatus: return "status";
    case RequestKind::kMetrics: return "metrics";
    case RequestKind::kFlight: return "flight";
  }
  TOPOMAP_UNREACHABLE("unhandled RequestKind");
}

RequestKind parse_request_kind(const std::string& s) {
  if (s == "map") return RequestKind::kMap;
  if (s == "explain") return RequestKind::kExplain;
  if (s == "evacuate") return RequestKind::kEvacuate;
  if (s == "optimal") return RequestKind::kOptimal;
  if (s == "status") return RequestKind::kStatus;
  if (s == "metrics") return RequestKind::kMetrics;
  if (s == "flight") return RequestKind::kFlight;
  throw precondition_error(
      "svc request: unknown kind '" + s +
      "' (want map | explain | evacuate | optimal | status | metrics | "
      "flight)");
}

topo::FaultSpec Request::fault_spec() const {
  return topo::parse_fault_spec(fail_link, fail_node, degrade_link,
                                random_link_faults, random_node_faults,
                                random_degrades, fault_seed, restore_node,
                                restore_link);
}

namespace {

/// Field accessors that name the offending key on a type mismatch.
const json::Value& require_member(const json::Value& obj,
                                  const std::string& key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr)
    throw precondition_error("svc request: missing field '" + key + "'");
  return *v;
}

std::string get_string(const json::Value& v, const std::string& key) {
  if (!v.is_string())
    throw precondition_error("svc request: field '" + key +
                             "' must be a string");
  return v.as_string();
}

double get_number(const json::Value& v, const std::string& key) {
  if (!v.is_number())
    throw precondition_error("svc request: field '" + key +
                             "' must be a number");
  return v.as_number();
}

std::int64_t get_integer(const json::Value& v, const std::string& key) {
  const double d = get_number(v, key);
  if (std::floor(d) != d ||
      std::abs(d) > 9007199254740992.0 /* 2^53: exact double integers */)
    throw precondition_error("svc request: field '" + key +
                             "' must be an integer");
  return static_cast<std::int64_t>(d);
}

std::uint64_t get_unsigned(const json::Value& v, const std::string& key) {
  const std::int64_t i = get_integer(v, key);
  if (i < 0)
    throw precondition_error("svc request: field '" + key +
                             "' must be non-negative");
  return static_cast<std::uint64_t>(i);
}

bool get_bool(const json::Value& v, const std::string& key) {
  if (!v.is_bool())
    throw precondition_error("svc request: field '" + key +
                             "' must be a boolean");
  return v.as_bool();
}

void check_schema(const json::Value& doc, const char* expected_name) {
  if (!doc.is_object())
    throw precondition_error("svc: document is not a JSON object");
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != expected_name)
    throw precondition_error(std::string("svc: expected schema '") +
                             expected_name + "'");
  const json::Value* version = doc.find("schema_version");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kSchemaVersion)
    throw precondition_error("svc: unsupported schema_version (want " +
                             std::to_string(kSchemaVersion) + ")");
}

}  // namespace

json::Value Request::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("schema", kRequestSchemaName);
  doc.set("schema_version", kSchemaVersion);
  doc.set("id", id);
  doc.set("kind", to_string(kind));
  json::Value params = json::Value::object();
  params.set("tasks", tasks);
  params.set("topology", topology);
  params.set("strategy", strategy);
  params.set("seed", seed);
  params.set("baseline", baseline);
  params.set("baseline_blind", baseline_blind);
  params.set("top_k", top_k);
  params.set("refine_passes", refine_passes);
  params.set("load_weight", load_weight);
  params.set("budget", budget);
  params.set("compare", compare);
  params.set("no_symmetry", no_symmetry);
  params.set("fail_link", fail_link);
  params.set("fail_node", fail_node);
  params.set("degrade_link", degrade_link);
  params.set("restore_node", restore_node);
  params.set("restore_link", restore_link);
  params.set("random_link_faults", random_link_faults);
  params.set("random_node_faults", random_node_faults);
  params.set("random_degrades", random_degrades);
  params.set("fault_seed", fault_seed);
  doc.set("params", std::move(params));
  return doc;
}

Request Request::from_json(const json::Value& doc) {
  check_schema(doc, kRequestSchemaName);
  Request req;
  req.id = get_string(require_member(doc, "id"), "id");
  if (req.id.empty())
    throw precondition_error("svc request: 'id' must be non-empty");
  req.kind =
      parse_request_kind(get_string(require_member(doc, "kind"), "kind"));
  const json::Value* params = doc.find("params");
  if (params == nullptr) return req;  // all defaults
  if (!params->is_object())
    throw precondition_error("svc request: 'params' must be an object");
  for (const auto& [key, value] : params->members()) {
    if (key == "tasks") req.tasks = get_string(value, key);
    else if (key == "topology") req.topology = get_string(value, key);
    else if (key == "strategy") req.strategy = get_string(value, key);
    else if (key == "seed") req.seed = get_unsigned(value, key);
    else if (key == "baseline") req.baseline = get_string(value, key);
    else if (key == "baseline_blind")
      req.baseline_blind = get_bool(value, key);
    else if (key == "top_k")
      req.top_k = static_cast<int>(get_integer(value, key));
    else if (key == "refine_passes")
      req.refine_passes = static_cast<int>(get_integer(value, key));
    else if (key == "load_weight") req.load_weight = get_number(value, key);
    else if (key == "budget") req.budget = get_integer(value, key);
    else if (key == "compare") req.compare = get_string(value, key);
    else if (key == "no_symmetry") req.no_symmetry = get_bool(value, key);
    else if (key == "fail_link") req.fail_link = get_string(value, key);
    else if (key == "fail_node") req.fail_node = get_string(value, key);
    else if (key == "degrade_link")
      req.degrade_link = get_string(value, key);
    else if (key == "restore_node")
      req.restore_node = get_string(value, key);
    else if (key == "restore_link")
      req.restore_link = get_string(value, key);
    else if (key == "random_link_faults")
      req.random_link_faults = get_integer(value, key);
    else if (key == "random_node_faults")
      req.random_node_faults = get_integer(value, key);
    else if (key == "random_degrades")
      req.random_degrades = get_integer(value, key);
    else if (key == "fault_seed") req.fault_seed = get_unsigned(value, key);
    else
      throw precondition_error("svc request: unknown parameter '" + key +
                               "'");
  }
  return req;
}

std::string machine_key(const std::string& topology_spec,
                        const topo::FaultSpec& faults) {
  std::ostringstream os;
  os << topology_spec;
  if (faults.empty()) return os.str();
  os << "|L:";
  for (const auto& [a, b] : faults.fail_links) os << a << '-' << b << ',';
  os << "|N:";
  for (int p : faults.fail_nodes) os << p << ',';
  os << "|D:";
  for (const topo::LinkDegradeSpec& d : faults.degrades)
    os << d.a << '-' << d.b << '@' << json::format_number(d.health) << ',';
  os << "|RN:";
  for (const topo::NodeRestoreSpec& r : faults.restore_nodes)
    os << r.p << '@' << r.epoch << ',';
  os << "|RL:";
  for (const topo::LinkRestoreSpec& r : faults.restore_links)
    os << r.a << '-' << r.b << '@' << r.epoch << ',';
  os << "|r:" << faults.random_link_faults << ':'
     << faults.random_node_faults << ':' << faults.random_degrades;
  // The seed only matters when random draws happen — keying on it
  // otherwise would split identical machines into separate pool entries.
  if (faults.random_link_faults > 0 || faults.random_node_faults > 0 ||
      faults.random_degrades > 0)
    os << "|s:" << faults.seed;
  return os.str();
}

void ErrorInfo::raise() const {
  if (category == "precondition") throw precondition_error(message);
  if (category == "invariant") throw invariant_error(message);
  if (category == "io") throw io_error(message);
  throw usage_error(message);
}

int exit_code_for(const std::string& category) {
  if (category == "precondition") return 2;
  if (category == "invariant") return 3;
  if (category == "io") return 4;
  return 1;  // "usage" and anything unclassified
}

json::Value Response::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("schema", kResponseSchemaName);
  doc.set("schema_version", kSchemaVersion);
  doc.set("id", id);
  doc.set("status", ok ? "ok" : "error");
  if (ok) {
    doc.set("result", result);
  } else {
    json::Value e = json::Value::object();
    e.set("category", error.category);
    e.set("message", error.message);
    e.set("exit_code", exit_code_for(error.category));
    doc.set("error", std::move(e));
  }
  return doc;
}

Response Response::from_json(const json::Value& doc) {
  check_schema(doc, kResponseSchemaName);
  Response resp;
  resp.id = get_string(require_member(doc, "id"), "id");
  const std::string status =
      get_string(require_member(doc, "status"), "status");
  if (status == "ok") {
    resp.ok = true;
    const json::Value& result = require_member(doc, "result");
    if (!result.is_object())
      throw precondition_error("svc response: 'result' must be an object");
    resp.result = result;
  } else if (status == "error") {
    resp.ok = false;
    const json::Value& e = require_member(doc, "error");
    if (!e.is_object())
      throw precondition_error("svc response: 'error' must be an object");
    resp.error.category = get_string(require_member(e, "category"),
                                     "error.category");
    resp.error.message =
        get_string(require_member(e, "message"), "error.message");
  } else {
    throw precondition_error("svc response: status must be 'ok' or 'error'");
  }
  return resp;
}

Response make_error_response(const std::string& id,
                             std::exception_ptr error) {
  Response resp;
  resp.id = id;
  resp.ok = false;
  try {
    std::rethrow_exception(error);
  } catch (const usage_error& e) {
    resp.error = {"usage", e.what()};
  } catch (const precondition_error& e) {
    resp.error = {"precondition", e.what()};
  } catch (const invariant_error& e) {
    resp.error = {"invariant", e.what()};
  } catch (const io_error& e) {
    resp.error = {"io", e.what()};
  } catch (const std::exception& e) {
    resp.error = {"usage", e.what()};
  }
  return resp;
}

}  // namespace topomap::svc
