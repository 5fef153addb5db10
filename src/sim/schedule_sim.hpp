// System-level Monte Carlo schedule simulation — the end-to-end oracle for
// the analytic QoS pipeline.
//
// The analytic path (sched::estimate_qos) composes closed-form pieces: the
// Fig. 3 Markov chains give per-task expectations, a list schedule of those
// expectations gives the makespan, criticality weighting gives the error
// probability. This simulator replays the whole application instead: every
// trial samples each task's execution time and error outcome from the same
// fault process the chains model (reliability::TaskSampler), then executes
// the task graph event-by-event on the architecture — respecting
// precedence, PE contention and interconnect transfer delays — and records
// the realized makespan, criticality-weighted error, energy and deadline
// outcome.
// Agreement between SimResult and QosMetrics validates every approximation
// the analytic path stacks on top of the chains (see docs/SIMULATION.md).
//
// Determinism: trial i consumes the i-th child stream split off the seed's
// root RNG, trials write per-index slots under util::parallel_for, and all
// DES ties break on insertion order — so a (seed, trials) pair produces
// bit-identical SimResults at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/architecture.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "util/stats.hpp"

namespace clrearly::sim {

/// One task's fully resolved simulation inputs: the fault-process parameters
/// of its chosen (implementation, CLR configuration) on its PE, the PE
/// binding, and the average power drawn while executing.
struct SimTask {
  reliability::ClrChainParams chain;
  std::size_t pe = 0;
  double power_w = 0.0;
};

struct SimOptions {
  std::size_t trials = 10000;
  std::uint64_t seed = 1;
  /// Deadline for per-trial miss accounting; <= 0 disables it.
  double deadline_us = 0.0;
};

/// Monte Carlo estimates with 95% confidence intervals. Every field except
/// trials_per_sec is a pure function of (inputs, seed, trials) — see
/// sim_results_identical().
struct SimResult {
  std::size_t trials = 0;

  double makespan_mean_us = 0.0;
  double makespan_stddev_us = 0.0;
  double makespan_min_us = 0.0;
  double makespan_max_us = 0.0;
  util::Interval makespan_ci_us;  ///< normal-approximation CI of the mean

  /// Criticality-weighted error probability: per trial the sum of
  /// normalized criticalities zeta_t of tasks that finished corrupted — the
  /// Monte Carlo counterpart of QosMetrics::error_prob (whose analytic value
  /// sum_t zeta_t * ErrProb_t is exactly this estimator's expectation).
  double error_prob = 0.0;
  util::Interval error_ci;  ///< Wilson 95% on the weighted successes

  double energy_mean_uj = 0.0;
  double energy_stddev_uj = 0.0;
  util::Interval energy_ci_uj;

  double deadline_us = 0.0;        ///< echoed from SimOptions
  double deadline_miss_rate = 0.0;
  util::Interval deadline_miss_ci;  ///< Wilson 95%; {0,0} when no deadline

  double mean_faults = 0.0;     ///< raw fault events per trial
  double mean_rollbacks = 0.0;  ///< successful tolerance actions per trial

  /// Wall-clock throughput of the trial loop. NOT deterministic; excluded
  /// from sim_results_identical().
  double trials_per_sec = 0.0;
};

/// Bitwise equality of every statistical field (everything except the
/// wall-clock trials_per_sec) — the determinism contract two runs at
/// different thread counts must satisfy.
bool sim_results_identical(const SimResult& a, const SimResult& b) noexcept;

/// Simulate `options.trials` full application runs.
///
/// Execution model: self-timed replay of the priority order. A task becomes
/// ready when the data of all its predecessors has arrived (cross-PE edges
/// pay the interconnect transfer delay via sched::data_arrival_us, exactly
/// as the list scheduler prices them); whenever a PE is idle it starts the
/// ready task bound to it that comes earliest in `priority_order`. Energy
/// counts active execution only (sampled time x power), matching the
/// analytic Eq. 4 definition.
///
/// Throws std::invalid_argument on malformed inputs (size mismatches,
/// non-permutation priority order, PE indices out of range, zero trials, a
/// cyclic graph) and like ClrChainParams::validate() on bad chain inputs.
SimResult simulate_schedule(const app::TaskGraph& graph,
                            const platform::Architecture& architecture,
                            const std::vector<SimTask>& tasks,
                            const std::vector<std::size_t>& priority_order,
                            const SimOptions& options);

// ------------------------------------------- permanent-fault injection

/// One executable configuration of the application: the nominal mapping or
/// a degraded-mode fallback (a repaired mapping for one failed-PE subset).
struct SimVariant {
  std::vector<SimTask> tasks;
  std::vector<std::size_t> priority_order;
};

struct FailureSimOptions {
  std::size_t trials = 10000;
  std::uint64_t seed = 1;
  /// Mission loss probability per PE (size must equal the PE count) — the
  /// core::pe_failure_probabilities() Weibull CDF values.
  std::vector<double> pe_failure_prob;
};

/// Monte Carlo estimates of a k-resilient design under permanent PE loss.
/// Makespan/error/energy statistics are conditional on availability (the
/// trial drew no failure, or a failure set some fallback variant covers).
struct FailureSimResult {
  std::size_t trials = 0;
  std::size_t available_trials = 0;

  double availability = 0.0;
  util::Interval availability_ci;  ///< Wilson 95%

  double makespan_mean_us = 0.0;
  double makespan_stddev_us = 0.0;
  util::Interval makespan_ci_us;  ///< normal-approximation CI of the mean

  /// Criticality-weighted error probability, conditional on availability
  /// (same estimator as SimResult::error_prob over the available trials).
  double error_prob = 0.0;
  util::Interval error_ci;  ///< Wilson 95% on the weighted successes

  double energy_mean_uj = 0.0;
  double energy_stddev_uj = 0.0;
  util::Interval energy_ci_uj;

  /// Trials executed per variant (index 0 = nominal), aligned with the
  /// `variants` argument. Sums to available_trials.
  std::vector<std::size_t> variant_trials;

  /// Wall-clock throughput; NOT deterministic, excluded from
  /// failure_sim_results_identical().
  double trials_per_sec = 0.0;
};

/// Bitwise equality of every statistical field (the thread-count
/// determinism contract; trials_per_sec excluded).
bool failure_sim_results_identical(const FailureSimResult& a,
                                   const FailureSimResult& b) noexcept;

/// Simulate `options.trials` missions with permanent PE failures injected.
///
/// Each trial first draws every PE's survival (one uniform per PE, in PE-id
/// order — a fixed draw prefix per trial stream, so results stay
/// bit-identical at any thread count), then executes the variant covering
/// the drawn failure set: variants[i] handles the failure mask
/// variant_failures[i], variants[0] the no-failure mask. A drawn set no
/// variant covers (more than k losses, or an unrepairable subset) counts
/// the trial unavailable and runs nothing.
///
/// Throws std::invalid_argument on malformed inputs: size mismatches, a
/// non-zero variant_failures[0], duplicate masks, probabilities outside
/// [0, 1], or a variant that maps a task onto a PE its own failure mask
/// kills.
FailureSimResult simulate_with_failures(
    const app::TaskGraph& graph, const platform::Architecture& architecture,
    const std::vector<SimVariant>& variants,
    const std::vector<std::vector<char>>& variant_failures,
    const FailureSimOptions& options);

}  // namespace clrearly::sim
