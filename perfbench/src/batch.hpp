// The one-shot ("batch") workloads: a fixed list of mapping instances,
// each served the way a job launcher or load-balancing step would — map,
// evaluate hop-bytes and link loads, serialize the rank mapping — timed in
// passes over the list until the run's time is up.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// What serving one instance produced.  Everything here is deterministic:
/// it must repeat exactly from pass to pass and between 1 and N workers.
struct Served {
  topomap::core::Mapping mapping;
  std::uint64_t digest = 0;  ///< FNV-1a of the serialized rank mapping
  double hops_per_byte = 0.0;
  std::vector<std::int64_t> counts;  ///< kernel work counts (swaps, levels)
};

struct BatchInstance {
  std::string name;
  /// Serve once, recording layer spans under `root` (the instance span).
  std::function<Served(Trace& trace, int root)> serve;
  /// Structural validity of a served mapping (bijection or capacity).
  std::function<bool(const Served&)> valid;
  /// Digest of the same request served through core::make_strategy, the
  /// path the CLI takes.
  std::function<std::uint64_t()> library_digest;
};

/// Time passes over `instances` for opt.seconds (at least three passes),
/// check every result, re-serve each instance through the library strategy
/// at one worker, and report the end-to-end metrics (untraced run)
/// or the trace ratios (traced run: passes alternate traced/untraced).
void run_batch(const Options& opt, Checker& check, Trace& trace,
               Outcome& out, const std::vector<BatchInstance>& instances,
               const std::vector<double>& setup_s);

/// Repeat `build` (input generation plus pool start) eleven times and
/// return each duration; the last build's state is what the run uses.
std::vector<double> timed_setups(const std::function<void()>& build);

}  // namespace perfbench
