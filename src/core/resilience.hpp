// k-resilient mapping optimization (the permanent-fault scenario axis,
// ROADMAP item 3).
//
// A ResilientProblem wraps a nominal fcCLR ClrMappingProblem and certifies
// every candidate mapping against the loss of ANY subset of at most k PEs:
// for each failure set F the nominal mapping is repaired onto the survivors
// (ClrMappingProblem::repair_for_failures) and the repaired mapping's QoS is
// scored against the degraded-mode spec. The NSGA-II fitness keeps the
// nominal objectives — the search still optimizes the healthy system — and
// folds resilience into the constraint violation, so the feasible Pareto
// front consists exactly of the k-resilient designs ("worst-case QoS over
// the loss of any k PEs stays above threshold").
//
// The analytic_prediction() mixture over failure-set probabilities is the
// quantity the Monte Carlo fault-injection oracle (sim::simulate_with_failures
// via core/sim_bridge) estimates; docs/RESILIENCE.md derives both sides.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/problem.hpp"
#include "core/scenario.hpp"

namespace clrearly::core {

class ResilientProblem {
 public:
  /// Builds the nominal fcCLR problem internally. Throws like
  /// ClrMappingProblem's constructor and ResilienceSpec::validate().
  ResilientProblem(app::Application application,
                   platform::Architecture architecture,
                   reliability::TaskAnalyzer analyzer,
                   ResilienceSpec resilience, SystemObjectives objectives,
                   sched::QosSpec spec);

  const ClrMappingProblem& nominal() const noexcept { return nominal_; }
  const ResilienceSpec& resilience() const noexcept { return resilience_; }
  const GenomeLayout& layout() const noexcept { return nominal_.layout(); }

  /// The failure masks certified against (|F| in 1..k), in the
  /// deterministic enumerate_failure_sets() order.
  const std::vector<std::vector<char>>& failure_sets() const noexcept {
    return failure_sets_;
  }

  /// Mission loss probability of each PE (pe_failure_probabilities()).
  const std::vector<double>& failure_probabilities() const noexcept {
    return failure_probs_;
  }

  /// One certified degraded mode: the failure set, its exact-set
  /// probability, and the repaired mapping with its QoS — the fallback
  /// table a runtime remapper would flash.
  struct DegradedMode {
    std::vector<char> failed;
    double probability = 0.0;
    bool repairable = false;
    MappingGenome mapping;     ///< valid only when repairable
    sched::QosMetrics qos;     ///< of the repaired mapping
    double violation = 0.0;    ///< against the degraded QoS spec
  };

  /// Degraded modes of `genome`, aligned with failure_sets().
  std::vector<DegradedMode> degraded_modes(const MappingGenome& genome) const;

  /// k-resilient fitness: nominal objectives; violation = nominal spec
  /// violation + spare-occupancy penalty + worst degraded-mode violation
  /// (an unrepairable set contributes 1 + its failure count, dominating any
  /// normalized QoS overshoot). Like ClrMappingProblem::evaluate, a pure
  /// function of the genome computed on every call, so serial and parallel
  /// runs are bit-identical. docs/RESILIENCE.md gives the measurements
  /// behind not memoizing it.
  moea::Evaluation evaluate(const MappingGenome& genome) const;

  /// The nominal problem's ops with only `evaluate` overridden — layout and
  /// variation operators are untouched, so the NSGA-II determinism and
  /// cache-equivalence guarantees carry over unchanged.
  moea::Nsga2Ops<MappingGenome> ops(double mutation_indpb = 0.05) const;

  /// Analytic degraded-mode prediction of a mapping: mission availability
  /// and the QoS mixture over the admissible modes (nominal + every
  /// repairable failure set), conditioned on availability. This is exactly
  /// what the Monte Carlo fault-injection oracle estimates — availability
  /// and error probability are proportions/expectations of per-trial
  /// indicators, so the 10k-trial Wilson intervals must cover these values.
  struct AnalyticPrediction {
    double availability = 0.0;        ///< P[no failure or repairable |F|<=k]
    double expected_makespan_us = 0.0;  ///< E[. | available]
    double expected_error_prob = 0.0;
    double expected_energy_uj = 0.0;
    double worst_makespan_us = 0.0;   ///< over the admissible modes
    double worst_error_prob = 0.0;
  };
  AnalyticPrediction analytic_prediction(const MappingGenome& genome) const;

 private:
  ResilienceSpec resilience_;
  ClrMappingProblem nominal_;
  /// evaluate()'s plan: the fields the nominal objectives, the nominal spec
  /// and the degraded spec read.
  sched::QosPlan plan_;
  std::vector<double> failure_probs_;
  std::vector<std::vector<char>> failure_sets_;
  std::vector<char> spare_mask_;
};

}  // namespace clrearly::core
