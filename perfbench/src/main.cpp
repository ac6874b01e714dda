// perfbench_topomap — runs one benchmark workload and prints its metrics.
//
//   perfbench_topomap --workload <flat-square|hier-scale|svc-closed>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-out <file>] [--work-dir <dir>]
//                     [--digest-file <file>]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics and write their spans to --trace-out.  The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}.  Any failed check makes the exit code 1.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_topomap: " << why
            << "\nusage: perfbench_topomap --workload <flat-square|"
               "hier-scale|svc-closed> --seed <n> --seconds <s> --trace "
               "<0|1> [--trace-out <file>] [--work-dir <dir>] "
               "[--digest-file <file>]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  opt.workers = std::clamp(hw, 1, opt.workers);
  opt.probe_workers = std::clamp(hw, 1, opt.probe_workers);
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") opt.workload = val;
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--seconds") opt.seconds = std::stod(val);
      else if (key == "--trace") opt.trace = std::stoi(val) != 0;
      else if (key == "--trace-out") opt.trace_out = val;
      else if (key == "--work-dir") opt.work_dir = val;
      else if (key == "--digest-file") opt.digest_file = val;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (opt.workload != "flat-square" && opt.workload != "hier-scale" &&
      opt.workload != "svc-closed")
    usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Checker check;
  Trace trace(opt.trace);
  Outcome out;
  try {
    if (opt.workload == "flat-square")
      run_flat_square(opt, check, trace, out);
    else if (opt.workload == "hier-scale")
      run_hier_scale(opt, check, trace, out);
    else
      run_svc_closed(opt, check, trace, out);
    check_across_runs(opt, out, check);
    if (opt.trace) run_layer_probes(opt, check, trace, out);
  } catch (const std::exception& e) {
    check.check(false, std::string("uncaught: ") + e.what());
  }

  const std::int64_t attempted = std::max<std::int64_t>(check.attempted(), 1);
  const std::int64_t failed = check.failed();
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  if (opt.trace) {
    out.metrics.set("fail_ratio", fail_ratio, "ratio");
    if (!opt.trace_out.empty()) {
      json::Value meta = json::Value::object();
      meta.set("workload", opt.workload);
      meta.set("seed", opt.seed);
      meta.set("workers", opt.workers);
      meta.set("probe_workers", opt.probe_workers);
      trace.write(opt.trace_out, meta);
    }
  } else {
    out.metrics.set("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metrics.set("ok_ratio", 1.0 - fail_ratio, "ratio");
  }

  for (const std::string& note : out.notes) std::cout << "# " << note << '\n';
  for (const std::string& f : check.failures())
    std::cerr << "perfbench_topomap: FAILED " << f << '\n';
  json::Value doc = json::Value::object();
  doc.set("correct", failed == 0);
  doc.set("attempted", attempted);
  doc.set("failed", failed);
  doc.set("metrics", out.metrics.to_json());
  std::cout << doc.dump() << std::endl;
  return failed == 0 ? 0 : 1;
}
