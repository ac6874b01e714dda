// Shared pieces of the perfbench program: run options, the correctness
// ledger, the metric sink, statistics, and the in-memory span recorder.
//
// The benchmark measures the topomap layers from outside: every span is
// recorded here, around a call into a public library function, and the
// library itself is built without instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/mapping.hpp"
#include "graph/task_graph.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace json = topomap::support::json;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;  ///< span file written at exit (traced runs)
  /// Kernel-pool width of the batch windows.  Two, not nproc: on a quiet
  /// 4-vCPU host 2 and 4 workers serve flat-square equally fast, but when
  /// the host is contended 4 workers run up to twice as slow (README.md).
  int workers = 2;
  /// Kernel-pool width of the probes' thread table, at most nproc.
  int probe_workers = 4;
  std::string work_dir = ".";  ///< where sockets and scratch files go
  /// Results of an earlier run with the same sources, workload and seed:
  /// compared when present, written when absent.
  std::string digest_file;
};

/// Counts every checked operation; a failed check is recorded with its
/// reason so the run can say what went wrong before exiting non-zero.
class Checker {
 public:
  void check(bool ok, const std::string& what);
  std::int64_t attempted() const;
  std::int64_t failed() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Ordered metric list, printed as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  json::Value to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Median (mean of the middle pair for even sizes); 0 for an empty input.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 100].
double percentile(std::vector<double> v, double q);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// 64-bit FNV-1a of a byte string (mapping digests).
std::uint64_t fnv1a(std::string_view bytes);

/// FNV-1a of the mapping as rts::write_rank_mapping serializes it.
std::uint64_t mapping_digest(const topomap::core::Mapping& m);

/// A batch instance: task-graph spec onto topology spec.
struct Shape {
  const char* graph;
  const char* topo;
};

/// The flat-square and hier-scale instances; the traced run's probes
/// reuse them.
inline constexpr Shape kFlatShapes[] = {
    {"stencil2d:64x64", "torus:64x64"},
    {"stencil3d:16x16x16", "torus:16x16x16"}};
inline constexpr Shape kHierShapes[] = {
    {"stencil3d:20x20x20", "torus:20x20x20"},
    {"stencil3d:64x64x64", "torus:32x32x32"}};

/// True when `m` maps every task to a distinct processor in [0, procs) and
/// uses all of them (n == procs).
bool is_bijection(const topomap::core::Mapping& m, int procs);

// ---------------------------------------------------------------- tracing

/// In-memory span recorder.  Spans carry a name, start and end, the parent
/// span and the instance or request they belong to.  Disabled recorders
/// read no clock and store nothing.  Thread-safe.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Start a span; returns its id, or -1 when disabled.
  int open(std::string name, int parent, std::string instance);
  void close(int id);

  /// Self time of every span: its duration minus the time its children
  /// cover.  Children of one span run sequentially on one thread, so their
  /// durations add up without overlap.
  struct Summary {
    std::vector<std::pair<std::string, double>> self_s;  ///< per name
    double root_s = 0.0;       ///< summed duration of `root` spans
    double uncovered_s = 0.0;  ///< summed self time of `root` spans
  };
  Summary summarize(const std::string& root) const;

  /// Write every span as a JSON document to `path` (parent directories
  /// are created).
  void write(const std::string& path, const json::Value& meta) const;

 private:
  struct Span {
    std::string name;
    std::string instance;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span.
class Span {
 public:
  Span(Trace& trace, std::string name, int parent = -1,
       std::string instance = {})
      : trace_(trace),
        id_(trace.open(std::move(name), parent, std::move(instance))) {}
  ~Span() { trace_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }

 private:
  Trace& trace_;
  int id_;
};

// ---------------------------------------------------------- the workloads

struct Outcome {
  Metrics metrics;
  std::vector<std::string> notes;  ///< human-readable lines before the JSON
  /// Deterministic results (digests, counts, hops/byte), one per line:
  /// they must repeat in every run of the same sources and seed.
  std::vector<std::string> fingerprint;
};

/// Compare `out.fingerprint` with opt.digest_file, or create the file.
void check_across_runs(const Options& opt, const Outcome& out,
                       Checker& check);

void run_flat_square(const Options& opt, Checker& check, Trace& trace,
                     Outcome& out);
void run_hier_scale(const Options& opt, Checker& check, Trace& trace,
                    Outcome& out);
void run_svc_closed(const Options& opt, Checker& check, Trace& trace,
                    Outcome& out);

/// The per-layer probe suite of a traced run: every layer timed on fixed
/// seeded inputs, identical for all workloads (perfbench/README.md).
void run_layer_probes(const Options& opt, Checker& check, Trace& trace,
                      Outcome& out);

/// Reports the traced-run ratios shared by every workload:
/// trace.uncovered_ratio from the spans under `root`, and
/// trace.overhead_ratio from the traced and untraced pass times.
void report_trace_ratios(const Trace& trace, const std::string& root,
                         const std::vector<double>& traced_s,
                         const std::vector<double>& untraced_s, Outcome& out);

}  // namespace perfbench
