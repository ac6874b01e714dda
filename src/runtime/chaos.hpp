// Seeded chaos engine: deterministic fault/recovery timelines for soak
// testing the dynamic runtime.
//
// Production machines do not fail one node at a time on a schedule; they
// fail in correlated bursts (a power rail takes out a drawer, a switch
// takes out its whole neighborhood), degrade before they die, and come
// back when the repair crew swaps the part.  make_chaos_schedule() turns
// that phenomenology into a reproducible rts::Event timeline:
//
//  * Poisson-ish arrivals: `event_rate` expected new faults per epoch
//    (fractional rates Bernoulli-round per epoch).
//  * Correlated bursts: with probability `burst_prob` an arrival becomes a
//    burst killing a BFS ball of `burst_size` alive processors around a
//    random seed — the generic stand-in for a torus row or dragonfly group
//    sharing a failure domain.  Bursts are how transient partitions
//    actually happen.
//  * Fault mix: `link_fraction` of single arrivals hit links instead of
//    processors; of those, `degrade_fraction` soft-fault to a random
//    health step (0.25/0.5/0.75) instead of hard-failing.
//  * Recovery: every fault schedules its own repair
//    uniform(recovery_min, recovery_max) epochs later (dropped when it
//    would land past the horizon) — so the machine breathes instead of
//    monotonically dying.
//  * Safety valve: node kills stop at `max_dead_fraction` of the machine
//    (the arrival is redirected to a link fault); the last processor is
//    never killed.
//
// The generator replays its own events against a shadow FaultOverlay via
// rts::apply_event — exactly the lenient semantics run_dynamic_lb_detailed
// will use — so the emitted timeline is clean: scheduled repairs that no
// longer apply are dropped at generation time where possible, and the few
// that remain inapplicable at run time (strict = false) are skipped, not
// fatal.
// Same base + same config => byte-identical schedule, any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/dynamic_lb.hpp"
#include "topo/topology.hpp"

namespace topomap::rts {

struct ChaosConfig {
  std::uint64_t seed = 42;
  int epochs = 200;
  double event_rate = 0.3;
  double burst_prob = 0.05;
  int burst_size = 4;
  double link_fraction = 0.5;
  double degrade_fraction = 0.5;
  int recovery_min = 2;
  int recovery_max = 10;
  double max_dead_fraction = 0.4;
};

struct ChaosSchedule {
  std::vector<Event> events;  ///< epoch-ordered, strict = false
  int failures = 0;           ///< node + link hard faults emitted
  int degrades = 0;           ///< soft faults emitted
  int restores = 0;           ///< recovery events emitted
  int bursts = 0;             ///< correlated bursts emitted
};

/// Parse "seed:rate:burst" (e.g. "7:0.5:0.1") into a ChaosConfig: the
/// 64-bit seed, the per-epoch event rate (>= 0), and the burst probability
/// (in [0, 1]).  Everything else keeps its default.  Throws
/// precondition_error on malformed input.
ChaosConfig parse_chaos_spec(const std::string& spec);

/// Generate the deterministic event timeline for `base` (epochs clamped by
/// cfg.epochs; on a distance-model base without processor links the
/// link_fraction is treated as 0 — node events only).
ChaosSchedule make_chaos_schedule(const topo::Topology& base,
                                  const ChaosConfig& cfg);

}  // namespace topomap::rts
