#include "batch.hpp"

#include <numeric>

#include "support/parallel.hpp"

namespace perfbench {

namespace {

std::string counts_text(const Served& s) {
  std::string t;
  for (std::int64_t c : s.counts) t += std::to_string(c) + " ";
  return t;
}

bool same_result(const Served& a, const Served& b) {
  return a.digest == b.digest && a.counts == b.counts &&
         a.hops_per_byte == b.hops_per_byte;
}

}  // namespace

std::vector<double> timed_setups(const std::function<void()>& build) {
  std::vector<double> out;
  for (int i = 0; i < 11; ++i) {
    const Clock::time_point t0 = Clock::now();
    build();
    out.push_back(seconds_since(t0));
  }
  return out;
}

void run_batch(const Options& opt, Checker& check, Trace& trace,
               Outcome& out, const std::vector<BatchInstance>& instances,
               const std::vector<double>& setup_s) {
  Trace untraced(false);
  std::vector<Served> first(instances.size());
  std::vector<double> pass_s, traced_pass_s, untraced_pass_s;
  std::vector<std::vector<double>> instance_s(instances.size());
  const Clock::time_point window_start = Clock::now();
  for (int pass = 0; pass < 3 || seconds_since(window_start) < opt.seconds;
       ++pass) {
    // A traced run alternates traced and untraced passes so that the
    // tracing overhead is measured on the same inputs in the same run.
    const bool traced = opt.trace && pass % 2 == 0;
    Trace& tr = traced ? trace : untraced;
    double pass_total = 0.0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const BatchInstance& inst = instances[i];
      const std::string id = inst.name + "#" + std::to_string(pass);
      Served s;
      const Clock::time_point t0 = Clock::now();
      {
        Span root(tr, "instance", -1, id);
        s = inst.serve(tr, root.id());
      }
      const double dt = seconds_since(t0);
      pass_total += dt;
      instance_s[i].push_back(dt);
      if (pass == 0) {
        check.check(inst.valid(s), inst.name + ": invalid mapping");
        first[i] = std::move(s);
      } else {
        check.check(same_result(s, first[i]),
                    inst.name + ": result changed between passes");
      }
    }
    pass_s.push_back(pass_total);
    (traced ? traced_pass_s : untraced_pass_s).push_back(pass_total);
  }

  // Correctness outside the timed window: the same request served through
  // core::make_strategy at one worker gives the bytes the layer calls gave
  // at opt.workers — one serve checks both the composition and the
  // thread-count invariance.
  topomap::support::set_num_threads(1);
  for (std::size_t i = 0; i < instances.size(); ++i)
    check.check(instances[i].library_digest() == first[i].digest,
                instances[i].name + ": core::make_strategy at 1 worker " +
                    "differs from the layer calls at " +
                    std::to_string(opt.workers) + " workers");
  topomap::support::set_num_threads(opt.workers);

  // Each instance is one operation.  A run holds too few samples for a raw
  // p99, so the latency figures are taken over the instances' median
  // latencies: p50 is the typical instance, p99 the slowest one.
  double hpb = 0.0;
  std::vector<double> median_s;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    hpb += first[i].hops_per_byte;
    median_s.push_back(median(instance_s[i]));
    out.fingerprint.push_back(instances[i].name + " " +
                              std::to_string(first[i].digest) + " " +
                              counts_text(first[i]) +
                              json::format_number(first[i].hops_per_byte));
    out.notes.push_back(instances[i].name + ": median " +
                        json::format_number(median_s.back()) +
                        " s, hops/byte " +
                        json::format_number(first[i].hops_per_byte) +
                        ", counts " + counts_text(first[i]) + "digest " +
                        std::to_string(first[i].digest));
  }
  hpb /= static_cast<double>(instances.size());
  const double map_s = std::accumulate(median_s.begin(), median_s.end(), 0.0);
  std::string passes = "pass times (s):";
  for (double t : pass_s) passes += " " + json::format_number(t);
  out.notes.push_back(passes);
  out.notes.push_back("instance samples " +
                      std::to_string(pass_s.size() * instances.size()));

  if (opt.trace) {
    report_trace_ratios(trace, "instance", traced_pass_s, untraced_pass_s,
                        out);
    return;
  }
  out.metrics.set("setup_s", median(setup_s), "s");
  out.metrics.set("map_s", map_s, "s");
  out.metrics.set("hops_per_byte", hpb, "hop/B");
  out.metrics.set("svc_rps", static_cast<double>(instances.size()) / map_s,
                  "1/s");
  out.metrics.set("svc_p50_ms", 1e3 * median(median_s), "ms");
  out.metrics.set("svc_p99_ms", 1e3 * percentile(median_s, 99.0), "ms");
}

}  // namespace perfbench
