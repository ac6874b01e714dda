// obs::Tracer — scoped phase spans with nesting, steady-clock timing, a
// Chrome-trace exporter, and a compact text summary.
//
// A span is opened with OBS_SPAN("topolb/select") (obs/obs.hpp) and closed
// by scope exit; nesting is tracked per thread with a depth counter, so a
// trace of a TopoLB run shows "cli/map" enclosing "topolb/map" enclosing
// thousands of "topolb/select" slices.  Span begin/ends never synchronize
// with other threads while the span is open — each thread appends completed
// spans to its own buffer (one uncontended lock per close, as in
// obs::Registry) — so tracing cannot serialize the parallel kernels it
// measures, and (like all obs recording) it only observes: mapping results
// are byte-identical with tracing on or off.
//
// Counter tracks: alongside spans, the tracer records named *counter*
// samples (record_counter) — time-stamped values such as the network
// simulator's per-interval busiest-link utilization.  Counter timestamps
// live on a separate clock domain (netsim samples carry *virtual*
// microseconds), so the exporter puts them on their own pid and Perfetto
// renders them as counter tracks next to — not interleaved with — the
// wall-clock phase spans.
//
// Exports:
//  * write_chrome_trace() — the chrome://tracing / Perfetto "JSON array of
//    complete events" format: one {"name","ph":"X","ts","dur","pid","tid"}
//    object per span (ts/dur in microseconds) plus one
//    {"name","ph":"C","ts","pid","args":{"value":v}} object per counter
//    sample.  Load the file in chrome://tracing or ui.perfetto.dev.
//  * rollup() — per-name Distribution of span durations (microseconds),
//    the form obs::Report embeds.
//  * summary() — an aligned text table of the rollup (count, total, mean,
//    min, max), for --help-free terminal reading.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "support/stats.hpp"

namespace topomap::obs {

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;  ///< obs::now_ns() at open
  std::uint64_t dur_ns = 0;
  int depth = 0;  ///< nesting depth on the recording thread (0 = top level)
  int tid = 0;    ///< recording thread's trace id (registration order)
};

/// One sample of a named counter track.  The timestamp is whatever clock
/// the producer uses (netsim: virtual microseconds); samples of one name
/// must be appended in non-decreasing timestamp order by a single thread.
struct CounterRecord {
  std::string name;
  double ts_us = 0.0;
  double value = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Record a completed span (called by ScopedSpan; any thread).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
              int depth);

  /// All completed spans, sorted by (start_ns, tid, depth).
  std::vector<SpanRecord> spans() const;

  /// Append one counter sample (single producer per name, sequential
  /// drivers only — netsim's sampling loop, not the parallel kernels).
  void record_counter(const char* name, double ts_us, double value);

  /// All counter samples, in recording order.
  std::vector<CounterRecord> counters() const;

  /// Per-name duration distributions in microseconds.
  std::map<std::string, Distribution> rollup() const;

  /// Chrome-trace JSON array of every completed span.
  void write_chrome_trace(std::ostream& os) const;

  /// Aligned text table of rollup(), one line per span name.
  std::string summary() const;

  /// Drop every recorded span.
  void reset();

  /// Current thread's nesting depth (exposed for ScopedSpan).
  static int& thread_depth();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Internal (public only for the thread-exit hook in tracer.cpp).
  struct Buffer;
  void retire_buffer(Buffer* buffer);

 private:
  Tracer() = default;
  Buffer& local_buffer();

  struct Impl;
  Impl* impl();
};

/// RAII span: captures the clock on entry when obs::enabled(), records on
/// exit.  A span that outlives a set_enabled(false) is dropped at close —
/// the depth counter still balances, but nothing is recorded, so
/// "disabled" means no sample lands after the switch flips.  The enabled
/// test is inline; only a recording span calls out of line.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (enabled()) [[unlikely]] open(name);
  }
  ~ScopedSpan() {
    if (name_ != nullptr) [[unlikely]] close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void open(const char* name);
  void close();

  const char* name_ = nullptr;  ///< null when the span is inactive
  std::uint64_t start_ns_ = 0;
  int depth_ = 0;
};

}  // namespace topomap::obs
