// Semantic fault-injection simulation — the independent oracle for the
// Fig. 3 Markov models.
//
// Instead of walking the chains' transition matrices, this simulates the
// *process* they model: execute each inter-checkpoint interval, draw fault
// arrivals from the exponential law, flip the per-layer masking /
// detection / tolerance coins, roll back on successful tolerance, pay the
// checkpoint costs, and apply the information-redundancy correction to
// whatever escapes. Agreement between these measurements and
// analyze_clr_chain() validates both implementations against each other
// (they share no code beyond the parameter struct).
//
// TaskSampler draws one such execution at a time; inject_faults()
// aggregates many of them for a single task, and the schedule simulator
// (sim/schedule_sim) threads individual draws through a task graph.
#pragma once

#include <cstddef>
#include <cstdint>

#include "reliability/clr_chain_builder.hpp"
#include "util/rng.hpp"

namespace clrearly::reliability {

/// Outcome of one simulated execution of one task.
struct TaskTrial {
  double exec_time_us = 0.0;    ///< wall time including detection/rollback/
                                ///< checkpoint overheads
  bool corrupted = false;       ///< an error escaped every CLR layer
  std::size_t faults = 0;       ///< raw fault events during the run
  std::size_t rollbacks = 0;    ///< successful tolerance actions
};

/// Samples TaskTrials for one (implementation, PE, CLR configuration)
/// triple. Validates the parameters once at construction; sample() is then
/// allocation-free and cheap enough to call millions of times.
class TaskSampler {
 public:
  /// Throws like ClrChainParams::validate() on malformed parameters.
  explicit TaskSampler(ClrChainParams params);

  /// One simulated execution, consuming draws from `rng`. Deterministic for
  /// a given RNG state. Runaway configurations (which the analytic model
  /// rejects as non-absorbing) abort the offending interval after an
  /// internal retry cap and report the run as corrupted.
  TaskTrial sample(util::Rng& rng) const noexcept;

  const ClrChainParams& params() const noexcept { return params_; }

 private:
  ClrChainParams params_;
};

struct InjectionResult {
  std::size_t trials = 0;
  double mean_exec_time_us = 0.0;  ///< average simulated completion time
  double error_rate = 0.0;         ///< fraction of runs ending corrupted
  double mean_faults_injected = 0.0;  ///< raw fault events per run
  double mean_rollbacks = 0.0;        ///< successful tolerance actions per run
};

/// Run `trials` independent simulated executions of the task described by
/// `params` (TaskSampler draws on one Rng seeded with `seed`) and average
/// them. Deterministic for a given seed. Throws like
/// ClrChainParams::validate() on bad inputs; runaway configurations (that
/// the analytical model rejects as non-absorbing) abort each trial after an
/// internal retry cap and are reported as errors.
InjectionResult inject_faults(const ClrChainParams& params,
                              std::size_t trials, std::uint64_t seed);

}  // namespace clrearly::reliability
