// Constructive heuristic baseline: HEFT-style task mapping followed by
// greedy cross-layer hardening.
//
// GA-based DSE needs thousands of evaluations; a designer (or the GA itself,
// through seeding) often wants a good deterministic starting point in
// milliseconds. This implements the classic recipe adapted to the CLR
// problem:
//
//   1. *HEFT mapping* — tasks are ranked by upward rank (mean baseline
//      execution time + longest downstream chain) and greedily assigned, in
//      rank order, to the (implementation, PE) pair with the earliest finish
//      time, all at the unprotected baseline configuration.
//   2. *Greedy hardening* — while the QoS spec's functional-reliability
//      floor is violated, upgrade the task with the largest
//      criticality-weighted error contribution to its cheapest (by average
//      execution time) configuration that strictly lowers its error
//      probability. Stops when feasible or out of upgrades.
//
// The result is an fcCLR genome, directly usable as a design point or as a
// seed for run_island_nsga2.
#pragma once

#include "core/problem.hpp"

namespace clrearly::core {

struct HeuristicResult {
  MappingGenome genome;        ///< valid for the given fcCLR problem
  sched::QosMetrics qos;       ///< metrics of the constructed design
  std::size_t upgrades = 0;    ///< hardening steps applied
  bool feasible = false;       ///< meets the problem's QoS spec
};

/// Run the heuristic against an fcCLR problem (throws std::invalid_argument
/// for pfCLR problems — the heuristic reasons about raw configurations).
HeuristicResult heft_clr_mapping(const ClrMappingProblem& problem);

}  // namespace clrearly::core
