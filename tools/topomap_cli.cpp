// topomap — command-line front end.
//
//   topomap map       --tasks=<spec> --topology=<spec> --strategy=<spec>
//   topomap simulate  ... same, plus network knobs; runs the DES
//   topomap partition --tasks=<spec> --parts=K [--partitioner=multilevel]
//   topomap pipeline  --tasks=<spec> --topology=<spec>  (objects > procs)
//   topomap evacuate  map, inject faults, repair the placement
//   topomap explain   per-link contention attribution, timeline, diff
//   topomap optimal   exact branch-and-bound optimum + optimality gap
//   topomap client    one request against a running topomapd
//
// map/simulate/explain/evacuate/optimal run the execution path topomapd
// serves (svc/run.hpp) on a plane-less machine and print its result.
//
// map/simulate/evacuate accept fault injection: --fail-link=a:b[,c:d...],
// --fail-node=p[,q...], --degrade-link=a:b:health[,...] (soft faults),
// and/or --random-{link,node}-faults=K / --random-degrades=K drawn with
// --fault-seed.  Mapping then targets the alive processors (tasks must fit),
// avoids degraded links via the health-weighted distance plane, and the
// simulator both routes around failed links and serialises proportionally
// slower on degraded ones.
//
// Workload specs: graph::make_task_graph (stencil2d:16x16, md:8x6x5,
// er:100:0.05, file:path, ...).  Machine specs: topo::make_topology
// (torus:8x8x8, mesh:16x16, hypercube:6, fattree:4x3, dragonfly:8).
// Strategy specs: core::make_strategy (random, topocent, topolb,
// recursive, anneal, <base>+refine, <base>+linkrefine).
//
// Everything prints to stdout; --output writes machine-readable files.
//
// Observability: map/simulate/evacuate accept --trace=FILE (Chrome-trace
// JSON of the run's phase spans; load in chrome://tracing or
// ui.perfetto.dev) and --stats=FILE (a schema-versioned obs::Report with
// counters, span rollups, and series such as TopoLB's per-iteration
// hop-bytes trajectory).  Every build carries the instrumentation; it
// records only while one of these flags (or TOPOMAP_OBS=1) is set.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <thread>
#include <utility>

#include "core/contention.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "core/validate.hpp"
#include "graph/builders.hpp"
#include "graph/factory.hpp"
#include "netsim/app.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "partition/partition.hpp"
#include "runtime/chaos.hpp"
#include "runtime/dynamic_lb.hpp"
#include "runtime/lb_manager.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"
#include "svc/client.hpp"
#include "svc/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/run.hpp"
#include "topo/distance_cache.hpp"
#include "topo/factory.hpp"
#include "topo/fault_spec.hpp"
#include "topo/torus_mesh.hpp"

namespace {

using namespace topomap;

void add_obs_options(CliParser& cli) {
  cli.add_option("trace", "write Chrome-trace JSON of phase spans here", "");
  cli.add_option("stats", "write an obs::Report JSON (counters/spans) here",
                 "");
}

/// Handles --trace/--stats: switches recording on up front, collects run
/// metadata, and writes both artifacts once the command's root span closed.
struct ObsOutputs {
  std::string trace_path;
  std::string stats_path;
  obs::Report report;

  explicit ObsOutputs(const CliParser& cli)
      : trace_path(cli.str("trace")), stats_path(cli.str("stats")) {
    if (!trace_path.empty() || !stats_path.empty()) obs::set_enabled(true);
  }

  /// The run's identity metadata (the seed as typed).
  void describe(const std::string& command, const graph::TaskGraph& g,
                const svc::MachineEntry& machine, const std::string& strategy,
                const CliParser& cli) {
    report.set_meta("command", command);
    report.set_meta("workload", g.label());
    report.set_meta("machine", machine.base->name());
    report.set_meta("strategy", strategy);
    report.set_meta("seed", cli.str("seed"));
  }

  void meta(const std::string& key, double value) {
    report.set_meta(key, support::json::format_number(value));
  }

  void finish() {
    if (!stats_path.empty()) {
      report.capture();
      report.write_file(stats_path);
      std::cout << "stats written to " << stats_path << "\n";
    }
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      obs::Tracer::instance().write_chrome_trace(os);
      std::cout << "trace written to " << trace_path << "\n";
    }
  }
};

void add_fault_options(CliParser& cli) {
  cli.add_option("fail-link", "failed links a:b[,c:d...]", "");
  cli.add_option("fail-node", "failed processors p[,q...]", "");
  cli.add_option("degrade-link",
                 "degraded links a:b:health[,...], health in (0,1]", "");
  cli.add_option("restore-node", "recovered processors p[@epoch][,...]", "");
  cli.add_option("restore-link", "recovered links a:b[@epoch][,...]", "");
  cli.add_option("random-link-faults", "additional random link failures", "0");
  cli.add_option("random-node-faults", "additional random node failures", "0");
  cli.add_option("random-degrades", "additional random link degradations",
                 "0");
  cli.add_option("fault-seed", "RNG seed for random fault selection", "42");
}

/// The svc::Request parameter flags of `kind` — every kind's for the
/// client — in one table shared by the one-shot commands and `client`.
void add_request_options(CliParser& cli,
                         std::optional<svc::RequestKind> kind,
                         const std::string& tasks = "stencil2d:8x8",
                         const std::string& topology = "torus:8x8") {
  using svc::RequestKind;
  const auto takes = [&](RequestKind k) { return !kind || *kind == k; };
  cli.add_option("tasks", "workload spec", tasks);
  cli.add_option("topology", "machine spec", topology);
  if (kind != RequestKind::kOptimal)  // optimal maps no strategy of its own
    cli.add_option("strategy", "mapping strategy", "topolb");
  cli.add_option("seed", "RNG seed", "1");
  if (takes(RequestKind::kExplain)) {
    cli.add_option("baseline", "baseline strategy to diff against", "");
    cli.add_flag("baseline-blind",
                 "map the baseline on the pristine machine (ignore soft "
                 "faults) — reproduces health-blind placement");
    cli.add_option("top-k", "contributing task pairs kept per link", "3");
  }
  if (takes(RequestKind::kEvacuate)) {
    cli.add_option("refine-passes", "bounded refine sweeps after evacuation",
                   "1");
    cli.add_option("load-weight",
                   "neighbourhood-load term weight in the destination score "
                   "(0 = pure hop-bytes)",
                   "0");
  }
  if (takes(RequestKind::kOptimal)) {
    cli.add_option("budget", "branch-and-bound node budget", "20000000");
    cli.add_option("compare",
                   "strategy spec to gap against the optimum ('' skips)",
                   "topolb");
    cli.add_flag("no-symmetry",
                 "explore every root placement (disable automorphism "
                 "pruning)");
  }
  add_fault_options(cli);
}

/// The request the registered request flags describe (kind left at its
/// default; the fault flags stay verbatim, as the protocol carries them).
svc::Request request_from_cli(const CliParser& cli) {
  svc::Request req;
  req.tasks = cli.str("tasks");
  req.topology = cli.str("topology");
  if (cli.has("strategy")) req.strategy = cli.str("strategy");
  req.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  if (cli.has("baseline")) {
    req.baseline = cli.str("baseline");
    req.baseline_blind = cli.flag("baseline-blind");
    req.top_k = static_cast<int>(cli.integer("top-k"));
  }
  if (cli.has("refine-passes")) {
    req.refine_passes = static_cast<int>(cli.integer("refine-passes"));
    req.load_weight = cli.real("load-weight");
  }
  if (cli.has("budget")) {
    req.budget = cli.integer("budget");
    req.compare = cli.str("compare");
    req.no_symmetry = cli.flag("no-symmetry");
  }
  req.fail_link = cli.str("fail-link");
  req.fail_node = cli.str("fail-node");
  req.degrade_link = cli.str("degrade-link");
  req.restore_node = cli.str("restore-node");
  req.restore_link = cli.str("restore-link");
  req.random_link_faults = cli.integer("random-link-faults");
  req.random_node_faults = cli.integer("random-node-faults");
  req.random_degrades = cli.integer("random-degrades");
  req.fault_seed = static_cast<std::uint64_t>(cli.integer("fault-seed"));
  return req;
}

/// Open `path` for writing; throws io_error (CLI exit code 4) when the
/// environment refuses.
std::ofstream open_output(const std::string& path) {
  std::ofstream os(path);
  if (!os.good())
    throw io_error("cannot open '" + path + "' for writing");
  return os;
}

/// Writes the result's mapping bytes to --output, when given.
void write_mapping(const CliParser& cli, const std::string& bytes,
                   const char* what = "mapping") {
  if (const std::string out = cli.str("output"); !out.empty()) {
    std::ofstream os = open_output(out);
    os << bytes;
    std::cout << what << " written to " << out << "\n";
  }
}

void print_workload(const graph::TaskGraph& g,
                    const svc::MachineEntry& machine) {
  std::cout << "workload:       " << g.label() << " (" << g.num_edges()
            << " edges, " << g.total_comm_bytes() << " B/iter)\n"
            << "machine:        " << machine.base->name() << "\n";
}

void print_fault_summary(const svc::MachineEntry& machine) {
  if (!machine.overlay) return;
  const topo::FaultOverlay& overlay = *machine.overlay;
  std::cout << "faults:         " << overlay.num_failed_nodes() << " nodes, "
            << overlay.num_failed_links() << " links, "
            << overlay.num_degraded_links() << " degraded ("
            << overlay.num_alive() << "/" << overlay.size()
            << " processors alive)\n";
}

void print_mapping_report(const svc::MappingMetrics& metrics,
                          const topo::Topology& topo,
                          const std::string& strategy_name) {
  std::cout << "strategy:       " << strategy_name << "\n";
  std::cout << "hops-per-byte:  " << metrics.hops_per_byte
            << "  (random expectation " << core::expected_random_hops(topo)
            << ")\n";
  std::cout << "hop-bytes:      " << metrics.hop_bytes << "\n";
  if (const auto& links = metrics.link_loads)
    std::cout << "link loads:     max " << links->max_bytes << " B, mean "
              << links->mean_bytes << " B over " << links->links_total
              << " directed links (" << links->links_used << " used)\n";
  else
    std::cout << "link loads:     (topology has no processor-level routes)\n";
}

/// Runs `run` — one of svc::run_* — on the request the flags describe,
/// with a plane-less machine, under the command's root trace span.
template <typename Run>
auto run_one_shot(const CliParser& cli, const char* span, Run run) {
  svc::Request req = request_from_cli(cli);
  obs::ScopedSpan root_span(span);
  auto result = run(req, svc::make_machine);
  return std::make_pair(std::move(req), std::move(result));
}

netsim::ServiceModel parse_model(const std::string& model) {
  return model == "storeforward" ? netsim::ServiceModel::kStoreForward
                                 : netsim::ServiceModel::kWormhole;
}

int cmd_map(int argc, const char* const* argv, bool simulate) {
  CliParser cli(simulate ? "map a workload and simulate its execution"
                         : "map a workload onto a machine");
  add_request_options(cli, svc::RequestKind::kMap);
  cli.add_option("output", "write 'task processor' lines here", "");
  add_obs_options(cli);
  if (simulate) {
    cli.add_option("iterations", "app iterations", "200");
    cli.add_option("compute-us", "compute per task-iteration (us)", "10");
    cli.add_option("bandwidth", "link bandwidth MB/s", "500");
    cli.add_option("routing", "deterministic | adaptive", "deterministic");
    cli.add_option("model", "wormhole | storeforward", "wormhole");
  }
  if (!cli.parse(argc, argv)) return 0;

  ObsOutputs obs_out(cli);
  const auto [req, r] =
      run_one_shot(cli, simulate ? "cli/simulate" : "cli/map", svc::run_map);
  const svc::MachineEntry& machine = *r.machine;
  if (!r.quarantined.empty())
    TOPOMAP_REQUIRE(!simulate,
                    "cannot simulate a partitioned machine whose primary "
                    "component is too small for the workload — " +
                        r.partition_note);
  const graph::TaskGraph& g = r.graph;
  obs_out.describe(simulate ? "simulate" : "map", g, machine, r.strategy,
                   cli);
  obs_out.meta("hop_bytes", r.metrics.hop_bytes);
  obs_out.meta("hops_per_byte", r.metrics.hops_per_byte);

  print_workload(g, machine);
  print_fault_summary(machine);
  if (!r.partition_note.empty())
    std::cout << "partition:      " << r.partition_note << "\n"
              << "quarantined:    " << r.quarantined.size() << " of "
              << g.num_vertices()
              << " tasks left unplaced (lightest communicators)\n";
  print_mapping_report(r.metrics, machine.machine(), r.strategy);

  if (simulate) {
    netsim::AppParams app;
    app.iterations = static_cast<int>(cli.integer("iterations"));
    app.compute_us = cli.real("compute-us");
    netsim::NetworkParams net;
    net.bandwidth = cli.real("bandwidth");
    const std::string routing = cli.str("routing");
    if (routing == "adaptive")
      net.routing = netsim::RoutingPolicy::kMinimalAdaptive;
    else if (routing != "deterministic") {
      std::cerr << "error: unknown routing policy " << routing << "\n";
      return 1;
    }
    const std::string model = cli.str("model");
    const auto sim = netsim::run_iterative_app(g, machine.machine(), r.mapping,
                                               app, net, parse_model(model));
    obs_out.meta("completion_us", sim.completion_us);
    std::cout << "simulation:     " << app.iterations << " iterations at "
              << net.bandwidth << " MB/s (" << routing << ", " << model
              << ")\n"
              << "completion:     " << sim.completion_us / 1000.0 << " ms\n"
              << "msg latency:    avg " << sim.avg_message_latency_us
              << " us, p99 " << sim.p99_message_latency_us << " us, max "
              << sim.max_message_latency_us << " us\n"
              << "busiest link:   " << sim.max_link_busy_us / 1000.0
              << " ms busy\n";
  }

  write_mapping(cli, svc::mapping_bytes(r.mapping));
  obs_out.finish();
  return 0;
}

/// Write the schema-versioned contention artifact ("topomap.obs.contention"
/// v1): per-link table with top-K contributors, optional busiest-link
/// timeline, optional baseline stats + mapping diff.
void write_contention_report(const std::string& path,
                             const support::json::Value& meta,
                             const svc::ExplainResult& r,
                             const svc::Request& req,
                             const netsim::AppResult* sim) {
  using support::json::Value;
  Value doc = Value::object();
  doc.set("schema", core::kContentionSchemaName);
  doc.set("schema_version", core::kContentionSchemaVersion);
  doc.set("meta", meta);
  doc.set("stats", core::contention_stats_to_json(r.attribution.stats));
  doc.set("links", core::contention_links_to_json(r.attribution, req.top_k));
  if (sim != nullptr) {
    const netsim::TelemetrySnapshot& snap = sim->telemetry;
    Value timeline = Value::object();
    timeline.set("sample_us", snap.sample_interval_us);
    timeline.set("completion_us", sim->completion_us);
    auto arr = [](const std::vector<double>& xs) {
      Value a = Value::array();
      for (double x : xs) a.push_back(x);
      return a;
    };
    timeline.set("t_us", arr(snap.t_us));
    timeline.set("util_max", arr(snap.util_max));
    timeline.set("queue_depth", arr(snap.queue_depth));
    Value hot = Value::array();
    const std::size_t shown = std::min<std::size_t>(snap.links.size(), 10);
    for (std::size_t i = 0; i < shown; ++i) {
      const netsim::LinkTelemetry& lt = snap.links[i];
      Value v = Value::object();
      v.set("from", lt.from);
      v.set("to", lt.to);
      v.set("bytes", lt.bytes);
      v.set("busy_us", lt.busy_us);
      v.set("peak_util", lt.peak_util);
      v.set("time_to_peak_us", lt.time_to_peak_us);
      v.set("saturated_us", lt.saturated_us);
      hot.push_back(std::move(v));
    }
    timeline.set("hot_links", std::move(hot));
    doc.set("timeline", std::move(timeline));
  }
  if (r.baseline) {
    Value b = Value::object();
    b.set("strategy", req.baseline);
    b.set("stats", core::contention_stats_to_json(r.baseline->stats));
    doc.set("baseline", std::move(b));
    Value d = Value::object();
    d.set("links", core::contention_diff_to_json(r.diff, req.top_k));
    doc.set("diff", std::move(d));
  }
  std::ofstream os(path);
  if (!os.good())
    throw io_error("explain: cannot open '" + path + "' for writing");
  os << doc.dump(2) << "\n";
  os.flush();
  if (!os.good()) throw io_error("explain: failed writing '" + path + "'");
}

int cmd_explain(int argc, const char* const* argv) {
  CliParser cli(
      "explain a mapping's link contention: per-link attribution, "
      "busiest-link timeline, and (with --baseline) a mapping diff");
  add_request_options(cli, svc::RequestKind::kExplain);
  cli.add_option("report", "write the topomap.obs.contention JSON here", "");
  cli.add_option("iterations",
                 "simulated app iterations for the timeline (0 = skip "
                 "simulation)",
                 "50");
  cli.add_option("compute-us", "compute per task-iteration (us)", "10");
  cli.add_option("bandwidth", "link bandwidth MB/s", "500");
  cli.add_option("model", "wormhole | storeforward", "wormhole");
  cli.add_option("sample-us", "telemetry sampling window (virtual us)",
                 "100");
  cli.add_option("output", "write 'task processor' lines here", "");
  add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  ObsOutputs obs_out(cli);
  const auto [req, r] = run_one_shot(cli, "cli/explain", svc::run_explain);
  const svc::MachineEntry& machine = *r.machine;
  const graph::TaskGraph& g = r.graph;
  obs_out.describe("explain", g, machine, r.strategy, cli);
  obs_out.meta("hop_bytes", r.hop_bytes);

  print_workload(g, machine);
  print_fault_summary(machine);
  std::cout << "strategy:       " << r.strategy << "\n";
  std::cout << "hop-bytes:      " << r.hop_bytes;
  if (r.hop_bytes == r.attribution.stats.total_bytes) {
    std::cout << " (per-link totals sum to it exactly)\n";
  } else {
    // Soft-fault overlays weight hop-bytes by link health; the attribution
    // counts physical bytes crossing each link.
    std::cout << " (health-weighted; physical routed bytes "
              << r.attribution.stats.total_bytes << ")\n";
  }
  std::cout << core::render_contention_summary(r.attribution, 5, req.top_k);

  // Busiest-link timeline from the simulator's sampling grid.
  std::optional<netsim::AppResult> sim;
  const int iterations = static_cast<int>(cli.integer("iterations"));
  if (iterations > 0) {
    netsim::AppParams app;
    app.iterations = iterations;
    app.compute_us = cli.real("compute-us");
    app.telemetry = true;
    app.telemetry_spec.sample_interval_us = cli.real("sample-us");
    netsim::NetworkParams net;
    net.bandwidth = cli.real("bandwidth");
    sim = netsim::run_iterative_app(g, machine.machine(), r.mapping, app, net,
                                    parse_model(cli.str("model")));
    obs_out.meta("completion_us", sim->completion_us);
    const netsim::TelemetrySnapshot& snap = sim->telemetry;
    std::cout << "timeline:       " << snap.t_us.size() << " windows of "
              << snap.sample_interval_us << " us over " << iterations
              << " iterations (completion " << sim->completion_us / 1000.0
              << " ms)\n";
    if (!snap.links.empty()) {
      const netsim::LinkTelemetry& hot = snap.links.front();
      std::cout << "busiest link:   (" << hot.from << "," << hot.to << ") "
                << hot.bytes << " B, peak util "
                << format_fixed(hot.peak_util, 2) << " at "
                << hot.time_to_peak_us << " us, saturated "
                << hot.saturated_us << " us\n";
    }
  }

  if (r.baseline)
    std::cout << "baseline:       " << req.baseline
              << (req.baseline_blind ? " (blind: mapped on pristine machine)"
                                     : "")
              << ", routed bytes " << r.baseline->stats.total_bytes << "\n"
              << core::render_contention_diff(r.diff, 5, req.top_k);

  if (const std::string report_path = cli.str("report");
      !report_path.empty()) {
    support::json::Value meta = support::json::Value::object();
    meta.set("command", "explain");
    meta.set("workload", g.label());
    meta.set("machine", machine.base->name());
    meta.set("strategy", r.strategy);
    meta.set("seed", cli.str("seed"));
    meta.set("top_k", req.top_k);
    meta.set("hop_bytes", r.hop_bytes);
    if (r.baseline) meta.set("baseline", req.baseline);
    write_contention_report(report_path, meta, r, req,
                            sim ? &*sim : nullptr);
    std::cout << "report written to " << report_path << "\n";
  }
  write_mapping(cli, svc::mapping_bytes(r.mapping));
  obs_out.finish();
  return 0;
}

int cmd_partition(int argc, const char* const* argv) {
  CliParser cli("partition a workload into balanced groups");
  cli.add_option("tasks", "workload spec", "md:6x6x5");
  cli.add_option("parts", "group count", "16");
  cli.add_option("partitioner", "multilevel | greedy | random", "multilevel");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("output", "write 'task group' lines here", "");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const graph::TaskGraph g = graph::make_task_graph(cli.str("tasks"), rng);
  const int k = static_cast<int>(cli.integer("parts"));
  const auto partitioner = part::make_partitioner(cli.str("partitioner"));
  const auto r = partitioner->partition(g, k, rng);

  std::cout << "workload:   " << g.label() << " (" << g.num_vertices()
            << " tasks)\n"
            << "parts:      " << k << " via " << partitioner->name() << "\n"
            << "edge cut:   " << part::edge_cut(g, r.assignment) << " B of "
            << g.total_comm_bytes() << " B total\n"
            << "imbalance:  " << part::load_imbalance(g, r.assignment, k)
            << "\n";
  if (const std::string out = cli.str("output"); !out.empty()) {
    std::ofstream os = open_output(out);
    for (std::size_t t = 0; t < r.assignment.size(); ++t)
      os << t << ' ' << r.assignment[t] << '\n';
    std::cout << "assignment written to " << out << "\n";
  }
  return 0;
}

int cmd_pipeline(int argc, const char* const* argv) {
  CliParser cli("two-phase pipeline: partition objects, map groups");
  cli.add_option("tasks", "workload spec (tasks >= processors)", "md:6x6x5");
  cli.add_option("topology", "machine spec", "torus:8x8");
  cli.add_option("strategy", "phase-2 mapper", "topolb+refine");
  cli.add_option("partitioner", "phase-1 partitioner", "multilevel");
  cli.add_option("seed", "RNG seed", "1");
  cli.add_option("output", "write 'object processor' lines here", "");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const graph::TaskGraph g = graph::make_task_graph(cli.str("tasks"), rng);
  const auto topo = topo::make_topology(cli.str("topology"));
  rts::PipelineConfig config;
  config.partitioner = part::make_partitioner(cli.str("partitioner"));
  config.mapper = core::make_strategy(cli.str("strategy"));
  const auto r = rts::run_two_phase(g, *topo, config, rng);

  std::cout << "workload:       " << g.label() << " (" << g.num_vertices()
            << " objects, virtualization "
            << static_cast<double>(g.num_vertices()) / topo->size() << ")\n"
            << "machine:        " << topo->name() << "\n"
            << "phase 1:        cut " << r.edge_cut_bytes << " B, imbalance "
            << r.load_imbalance << ", quotient degree "
            << r.quotient_avg_degree << "\n"
            << "phase 2:        " << config.mapper->name()
            << ", hops-per-byte " << r.hops_per_byte << "\n";
  if (const std::string out = cli.str("output"); !out.empty()) {
    std::ofstream os = open_output(out);
    for (std::size_t obj = 0; obj < r.object_to_proc.size(); ++obj)
      os << obj << ' ' << r.object_to_proc[obj] << '\n';
    std::cout << "placement written to " << out << "\n";
  }
  return 0;
}

int cmd_evacuate(int argc, const char* const* argv) {
  CliParser cli(
      "map on the healthy machine, inject faults, evacuate stranded tasks");
  add_request_options(cli, svc::RequestKind::kEvacuate, "stencil2d:7x8");
  cli.add_option("output", "write repaired 'task processor' lines here", "");
  add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  ObsOutputs obs_out(cli);
  const auto [req, r] = run_one_shot(cli, "cli/evacuate", svc::run_evacuate);
  const rts::EvacuateComparison& cmp = r.comparison;
  obs_out.describe("evacuate", r.graph, *r.machine, req.strategy, cli);
  obs_out.meta("hop_bytes", cmp.evac.hop_bytes);
  obs_out.meta("load_imbalance", cmp.evac.load_imbalance);

  std::cout << "workload:       " << r.graph.label() << " ("
            << r.graph.num_vertices() << " tasks)\n"
            << "machine:        " << r.machine->base->name() << "\n";
  print_fault_summary(*r.machine);
  std::cout << "before faults:  hop-bytes " << r.hop_bytes_before << " ("
            << r.strategy << ")\n"
            << "evacuate:       " << cmp.evac.stranded << " stranded, "
            << cmp.evac.migrations << " migrations ("
            << cmp.evac.refine_swaps << " refine swaps), hop-bytes "
            << cmp.evac.hop_bytes << ", nbhd load imbalance "
            << cmp.evac.load_imbalance << "\n"
            << "full remap:     " << cmp.full_migrations
            << " migrations, hop-bytes " << cmp.full_hop_bytes << "\n"
            << "evac/remap:     hop-bytes ratio " << r.hop_bytes_ratio << "\n";
  write_mapping(cli, svc::mapping_bytes(r.comparison.evac.mapping),
                "repaired mapping");
  obs_out.finish();
  return 0;
}

int cmd_optimal(int argc, const char* const* argv) {
  CliParser cli(
      "exactly minimize hop-bytes by branch and bound (<= 12 tasks) and "
      "report a strategy's optimality gap against the proven minimum");
  add_request_options(cli, svc::RequestKind::kOptimal, "stencil2d:3x3",
                      "torus:3x3");
  cli.add_option("output", "write 'task processor' lines here", "");
  add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  ObsOutputs obs_out(cli);
  const auto [req, r] = run_one_shot(cli, "cli/optimal", svc::run_optimal);
  const topo::Topology& topo = r.machine->machine();
  obs_out.report.set_meta("command", "optimal");
  obs_out.report.set_meta("workload", r.graph.label());
  obs_out.report.set_meta("machine", topo.name());
  obs_out.report.set_meta("seed", cli.str("seed"));

  print_fault_summary(*r.machine);
  print_mapping_report(svc::measure(r.graph, topo, r.optimal.mapping), topo,
                       "OptimalLB (exact)");
  std::cout << "search:         " << r.optimal.nodes << " nodes, "
            << r.optimal.pruned << " pruned subtrees, "
            << r.optimal.root_candidates << " root candidates\n";
  obs_out.meta("optimal_hop_bytes", r.optimal.hop_bytes);
  obs_out.meta("search_nodes", static_cast<double>(r.optimal.nodes));
  if (r.compare) {
    const double gap = r.compare->optimality_gap;
    std::cout << "compare:        " << r.compare->strategy << " hop-bytes "
              << r.compare->hop_bytes << ", optimality gap " << gap
              << (gap == 1.0 ? " (provably optimal)" : "") << "\n";
    obs_out.meta("compare_hop_bytes", r.compare->hop_bytes);
    obs_out.meta("optimality_gap", gap);
  }
  write_mapping(cli, svc::mapping_bytes(r.optimal.mapping));
  obs_out.finish();
  return 0;
}

/// `topomap chaos --drill=<kind>`: corrupt exactly one validated subsystem
/// of a small healthy mapped system and let core::validate_state convict
/// it.  Always exits non-zero: the caught corruption is rethrown as
/// invariant_error (exit code 3) — scripts/smoke_test.sh asserts the exit
/// code and the violation text end to end.
int run_validation_drill(const std::string& kind) {
  const graph::TaskGraph g = graph::stencil_2d(4, 2, 64.0);
  auto base =
      std::make_shared<topo::TorusMesh>(topo::TorusMesh::mesh({4, 2}));
  topo::FaultOverlay overlay(base);
  topo::DistanceCache plane(overlay);
  Rng rng(11);
  core::Mapping placement =
      core::make_strategy("topolb")->map(g, overlay, rng);
  std::vector<char> quarantined(static_cast<std::size_t>(g.num_vertices()),
                                0);
  std::cout << "drill: healthy 8-task stencil on mesh:4x2 — corrupting '"
            << kind << "'\n";
  if (kind == "placement") {
    // The processor dies and the plane is repaired faithfully, but the
    // placement is never migrated off the corpse.
    const int victim = placement[0];
    overlay.fail_node(victim);
    plane.repair_node_failure(overlay, victim);
    std::cout << "  processor " << victim
              << " died; plane repaired; placement left stale\n";
  } else if (kind == "quarantine") {
    // An active task loses its seat with no quarantine record.
    placement[0] = core::kUnassigned;
    std::cout << "  task 0 unseated without a quarantine flag\n";
  } else if (kind == "plane") {
    // A soft fault flips the overlay into fixed-point units; the plane
    // misses the repair event — version skew.
    overlay.degrade_link(0, 1, 0.5);
    std::cout << "  link 0-1 degraded to half health; plane repair skipped\n";
  } else {
    throw precondition_error("unknown drill '" + kind +
                             "' (want placement | quarantine | plane)");
  }
  core::SystemState st;
  st.graph = &g;
  st.overlay = &overlay;
  st.placement = &placement;
  st.quarantined = &quarantined;
  st.plane = &plane;
  const core::ValidationReport report = core::validate_state(st);
  TOPOMAP_ASSERT(!report.ok(), "drill failed: validate_state missed the '" +
                                   kind + "' corruption");
  throw invariant_error("self-validation drill '" + kind +
                        "' caught: " + report.summary());
}

int cmd_chaos(int argc, const char* const* argv) {
  CliParser cli(
      "soak the dynamic runtime under a seeded fault/recovery timeline: "
      "correlated bursts, degrades, repair crews, transient partitions");
  cli.add_option("tasks", "workload spec (objects >= processors)", "md:6x6x5");
  cli.add_option("topology", "machine spec", "torus:8x8");
  cli.add_option("strategy", "phase-2 mapper", "topolb+refine");
  cli.add_option("partitioner", "phase-1 partitioner", "multilevel");
  cli.add_option("policy", "scratch | incremental", "incremental");
  cli.add_option("epochs", "LB epochs to soak", "200");
  cli.add_option("seed", "RNG seed for drift and mapping", "1");
  cli.add_option("chaos", "chaos timeline spec seed:rate:burst",
                 "42:0.3:0.05");
  cli.add_option("load-drift", "per-epoch load drift in [0,1)", "0.3");
  cli.add_option("comm-drift", "per-epoch communication drift in [0,1)",
                 "0.15");
  cli.add_option("plane-rows",
                 "distance-plane rows per validation (0 = all alive rows)",
                 "0");
  cli.add_flag("no-validate", "skip the per-event/per-epoch self-validation");
  cli.add_option("drill",
                 "corrupt one validated subsystem of a fixed small system "
                 "and exit 3 with the caught violation: placement | "
                 "quarantine | plane",
                 "");
  cli.add_option("output", "write final 'object processor' lines here", "");
  add_fault_options(cli);
  add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  if (const std::string drill = cli.str("drill"); !drill.empty())
    return run_validation_drill(drill);  // throws: exit 3 (or 2 on bad kind)

  ObsOutputs obs_out(cli);

  Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const graph::TaskGraph g = graph::make_task_graph(cli.str("tasks"), rng);
  const auto topo = topo::make_topology(cli.str("topology"));

  rts::DynamicLBConfig config;
  config.epochs = static_cast<int>(cli.integer("epochs"));
  config.load_drift = cli.real("load-drift");
  config.comm_drift = cli.real("comm-drift");
  config.resilience.validate = !cli.flag("no-validate");
  config.resilience.plane_rows = static_cast<int>(cli.integer("plane-rows"));
  config.pipeline.partitioner = part::make_partitioner(cli.str("partitioner"));
  config.pipeline.mapper = core::make_strategy(cli.str("strategy"));
  const std::string policy = cli.str("policy");
  if (policy == "scratch")
    config.policy = rts::RemapPolicy::kScratch;
  else
    TOPOMAP_REQUIRE(policy == "incremental",
                    "unknown policy '" + policy +
                        "' (want scratch | incremental)");

  // Explicit fault flags become strict events (epoch 0 for faults, the
  // given @epoch for restores); the chaos generator supplies the random
  // timeline, so the --random-* counts are rejected here.
  const topo::FaultSpec spec = request_from_cli(cli).fault_spec();
  TOPOMAP_REQUIRE(spec.random_link_faults == 0 &&
                      spec.random_node_faults == 0 &&
                      spec.random_degrades == 0,
                  "chaos generates its own random faults — drop the "
                  "--random-* flags and tune --chaos=seed:rate:burst");
  for (const auto& l : spec.fail_links)
    config.events.push_back({0, rts::EventKind::kLinkFail, l.first, l.second});
  for (int p : spec.fail_nodes)
    config.events.push_back({0, rts::EventKind::kNodeFail, p});
  for (const topo::LinkDegradeSpec& d : spec.degrades)
    config.events.push_back(
        {0, rts::EventKind::kLinkDegrade, d.a, d.b, d.health});
  for (const topo::NodeRestoreSpec& r : spec.restore_nodes)
    config.events.push_back({r.epoch, rts::EventKind::kNodeRestore, r.p});
  for (const topo::LinkRestoreSpec& r : spec.restore_links)
    config.events.push_back({r.epoch, rts::EventKind::kLinkRestore, r.a, r.b});

  rts::ChaosConfig chaos_cfg = rts::parse_chaos_spec(cli.str("chaos"));
  chaos_cfg.epochs = config.epochs;
  const rts::ChaosSchedule schedule =
      rts::make_chaos_schedule(*topo, chaos_cfg);
  config.events.insert(config.events.end(), schedule.events.begin(),
                       schedule.events.end());

  obs_out.report.set_meta("command", "chaos");
  obs_out.report.set_meta("workload", g.label());
  obs_out.report.set_meta("machine", topo->name());
  obs_out.report.set_meta("strategy", config.pipeline.mapper->name());
  obs_out.report.set_meta("seed", cli.str("seed"));
  obs_out.report.set_meta("chaos", cli.str("chaos"));

  rts::DynamicLBRun run;
  {
    obs::ScopedSpan root_span("cli/chaos");
    run = rts::run_dynamic_lb_detailed(g, *topo, config, rng);
  }

  double alive_sum = 0.0;
  double active_sum = 0.0;
  double hpb_sum = 0.0;
  long long migrations = 0;
  long long rows_repaired = 0;
  for (const rts::DynamicEpochStats& s : run.history) {
    alive_sum += s.alive_procs;
    active_sum += g.num_vertices() - s.quarantined;
    hpb_sum += s.hops_per_byte;
    migrations += s.migrations;
    rows_repaired += s.plane_rows_repaired;
  }
  const double epochs = static_cast<double>(run.history.size());
  const double machine_avail = alive_sum / (epochs * topo->size());
  const double task_avail = active_sum / (epochs * g.num_vertices());

  std::cout << "workload:        " << g.label() << " (" << g.num_vertices()
            << " objects, virtualization "
            << static_cast<double>(g.num_vertices()) / topo->size() << ")\n"
            << "machine:         " << topo->name() << "\n"
            << "policy:          " << policy << ", " << config.epochs
            << " epochs\n"
            << "chaos:           " << cli.str("chaos") << " — "
            << schedule.failures << " failures, " << schedule.degrades
            << " degrades, " << schedule.restores << " restores, "
            << schedule.bursts << " bursts\n"
            << "events:          " << run.events_applied << " applied, "
            << run.events_skipped << " skipped\n"
            << "availability:    machine " << machine_avail << ", tasks "
            << task_avail << "\n"
            << "partitions:      " << run.partitioned_epochs
            << " partitioned epochs, max " << run.max_quarantined
            << " objects quarantined\n"
            << "migrations:      " << migrations << " total\n"
            << "hops-per-byte:   mean " << hpb_sum / epochs << ", final "
            << run.history.back().hops_per_byte << "\n"
            << "plane:           " << rows_repaired
            << " rows repaired incrementally, " << run.plane_rebuilds
            << " rebuild fallbacks, " << run.violations
            << " violations caught\n";
  obs_out.meta("machine_availability", machine_avail);
  obs_out.meta("task_availability", task_avail);
  obs_out.meta("migrations", static_cast<double>(migrations));
  obs_out.meta("plane_rebuilds", run.plane_rebuilds);

  if (const std::string out = cli.str("output"); !out.empty()) {
    std::ofstream os = open_output(out);
    for (std::size_t obj = 0; obj < run.final_placement.size(); ++obj)
      os << obj << ' ' << run.final_placement[obj] << '\n';
    std::cout << "final placement written to " << out << "\n";
  }
  obs_out.finish();
  return 0;
}

void add_daemon_options(CliParser& cli) {
  cli.add_option("socket", "daemon unix socket path", "/tmp/topomapd.sock");
  cli.add_option("tcp",
                 "daemon TCP endpoint host:port (overrides --socket)", "");
}

svc::Client connect_daemon(const CliParser& cli) {
  if (const std::string tcp = cli.str("tcp"); !tcp.empty()) {
    const auto [host, port] = svc::parse_tcp_endpoint(tcp);
    return svc::Client::connect_tcp(host, port);
  }
  return svc::Client::connect_unix(cli.str("socket"));
}

/// `topomap client`: one request against a running topomapd.  Reuses the
/// one-shot commands' request flag table verbatim (including the fault
/// flags and their parser), prints the response document, and exits with
/// the taxonomy code the equivalent one-shot command would have — a
/// server-side precondition_error comes back as exit 2, an I/O failure
/// reaching the daemon as exit 4.
int cmd_client(int argc, const char* const* argv) {
  CliParser cli(
      "send one mapping request to a running topomapd and print the "
      "response");
  add_daemon_options(cli);
  cli.add_option("kind",
                 "map | explain | evacuate | optimal | status | metrics | "
                 "flight",
                 "status");
  cli.add_option("id", "request id echoed in the response", "cli");
  add_request_options(cli, std::nullopt);
  cli.add_option("output", "write the response's mapping bytes here", "");
  cli.add_flag("prom",
               "metrics: print Prometheus exposition text instead of JSON");
  if (!cli.parse(argc, argv)) return 0;

  svc::Request req = request_from_cli(cli);
  req.id = cli.str("id");
  req.kind = svc::parse_request_kind(cli.str("kind"));
  TOPOMAP_REQUIRE(!cli.flag("prom") || req.kind == svc::RequestKind::kMetrics,
                  "--prom applies to --kind=metrics only");
  // Validate the fault flags client-side with the same parser the one-shot
  // commands use — malformed flags exit 2 without a round-trip (the server
  // revalidates anyway).
  (void)req.fault_spec();

  svc::Client client = connect_daemon(cli);
  const svc::Response resp = client.call(req);

  if (!resp.ok) resp.error.raise();  // exits as the one-shot command would
  if (cli.flag("prom")) {
    // Validates the snapshot against the topomap.svc.metrics schema on the
    // way out, so a drifting daemon fails loudly instead of exporting
    // garbage.
    std::cout << svc::metrics_to_prometheus(resp.result);
    return 0;
  }
  std::cout << resp.to_json().dump(2) << "\n";
  if (!cli.str("output").empty()) {
    const support::json::Value* mapping = resp.result.find("mapping");
    TOPOMAP_REQUIRE(mapping != nullptr && mapping->is_string(),
                    "response carries no mapping (kind '" + cli.str("kind") +
                        "' has none) — drop --output");
    write_mapping(cli, mapping->as_string());
  }
  return 0;
}

/// `topomap top`: poll a running topomapd's metrics snapshot and render a
/// compact live view — request totals and rate, queue depth, pool hit
/// rate, and per-kind latency quantiles from the svc/<kind>/total_us
/// histograms.  On a terminal each snapshot repaints in place; redirected
/// output gets one block per poll (so scripts can grep a fixed iteration
/// count).
int cmd_top(int argc, const char* const* argv) {
  CliParser cli("live telemetry view of a running topomapd");
  add_daemon_options(cli);
  cli.add_option("interval-ms", "poll interval in milliseconds", "1000");
  cli.add_option("iterations", "snapshots to render (0 = until killed)",
                 "0");
  if (!cli.parse(argc, argv)) return 0;
  const auto interval =
      std::chrono::milliseconds(std::max<std::int64_t>(
          cli.integer("interval-ms"), 1));
  const std::int64_t iterations = cli.integer("iterations");
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  svc::Client client = connect_daemon(cli);

  double prev_served = -1.0;
  for (std::int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) std::this_thread::sleep_for(interval);
    svc::Request req;
    req.id = "top";
    req.kind = svc::RequestKind::kMetrics;
    const svc::Response resp = client.call(req);
    if (!resp.ok) resp.error.raise();
    svc::validate_metrics_snapshot(resp.result);
    const support::json::Value& requests = resp.result.at("requests");
    const support::json::Value& pool = resp.result.at("pool");
    const double served = requests.at("served").as_number();
    const double failed = requests.at("failed").as_number();
    const double hits = pool.at("hits").as_number();
    const double misses = pool.at("misses").as_number();
    const double lookups = hits + misses;
    const double rate =
        prev_served >= 0.0
            ? (served - prev_served) * 1000.0 /
                  static_cast<double>(interval.count())
            : 0.0;
    prev_served = served;

    if (tty) std::cout << "\x1b[2J\x1b[H";  // repaint in place
    std::cout << "topomapd  served " << static_cast<std::int64_t>(served)
              << "  failed " << static_cast<std::int64_t>(failed)
              << "  rate " << support::json::format_number(rate) << "/s"
              << "  queue "
              << static_cast<std::int64_t>(
                     resp.result.at("queue_depth").as_number())
              << "  pool-hit "
              << (lookups > 0.0
                      ? support::json::format_number(100.0 * hits / lookups)
                      : "-")
              << (lookups > 0.0 ? "%" : "") << "\n";
    Table table("per-kind latency (us)",
                {"kind", "count", "p50", "p90", "p99", "max"});
    for (const auto& [name, h] : resp.result.at("histograms").members()) {
      // svc/<kind>/total_us rows only — the stage histograms stay in the
      // JSON snapshot for obs_diff / offline analysis.
      const std::string prefix = "svc/";
      const std::string suffix = "/total_us";
      if (name.size() <= prefix.size() + suffix.size() ||
          name.compare(0, prefix.size(), prefix) != 0 ||
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
        continue;
      const std::string kind = name.substr(
          prefix.size(), name.size() - prefix.size() - suffix.size());
      table.add_row({kind,
                     static_cast<std::int64_t>(h.at("count").as_number()),
                     h.at("p50").as_number(), h.at("p90").as_number(),
                     h.at("p99").as_number(), h.at("max").as_number()});
    }
    if (table.row_count() > 0) table.print(std::cout);
    else
      std::cout << "(no latency histograms yet — run the daemon with "
                   "--stats/--trace or TOPOMAP_OBS=1)\n";
    std::cout.flush();
  }
  return 0;
}

void usage() {
  std::cout <<
      "topomap — topology-aware task mapping (IPDPS'06 reproduction)\n"
      "\n"
      "usage: topomap <command> [options]   (--help per command)\n"
      "  map        map a workload onto a machine, report hop-bytes\n"
      "  simulate   map + discrete-event execution on the machine\n"
      "  partition  split a workload into balanced groups\n"
      "  pipeline   partition + map (more objects than processors)\n"
      "  evacuate   map, inject faults, migrate only stranded tasks\n"
      "  explain    per-link contention attribution, timeline, and diff\n"
      "  optimal    exact branch-and-bound optimum + strategy optimality gap\n"
      "  chaos      soak the dynamic runtime under seeded faults/recovery\n"
      "  client     send one request to a running topomapd daemon\n"
      "  top        live telemetry view of a running topomapd\n"
      "\n"
      "exit codes: 0 success, 1 usage, 2 invalid input (precondition),\n"
      "            3 internal invariant violation, 4 I/O failure\n";
}

int dispatch(int argc, char** argv) {
  // A bad TOPOMAP_THREADS fails here, before any command does work.
  support::configured_num_threads();
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv past the subcommand for the option parser.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "map") return cmd_map(sub_argc, sub_argv, false);
  if (command == "simulate") return cmd_map(sub_argc, sub_argv, true);
  if (command == "partition") return cmd_partition(sub_argc, sub_argv);
  if (command == "pipeline") return cmd_pipeline(sub_argc, sub_argv);
  if (command == "evacuate") return cmd_evacuate(sub_argc, sub_argv);
  if (command == "explain") return cmd_explain(sub_argc, sub_argv);
  if (command == "optimal") return cmd_optimal(sub_argc, sub_argv);
  if (command == "chaos") return cmd_chaos(sub_argc, sub_argv);
  if (command == "client") return cmd_client(sub_argc, sub_argv);
  if (command == "top") return cmd_top(sub_argc, sub_argv);
  if (command == "--help" || command == "help") {
    usage();
    return 0;
  }
  std::cerr << "unknown command: " << command << "\n";
  usage();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  return topomap::run_main(argc, argv, dispatch);
}
