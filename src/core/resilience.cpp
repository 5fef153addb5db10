#include "core/resilience.hpp"

#include <algorithm>
#include <utility>

namespace clrearly::core {

ResilientProblem::ResilientProblem(app::Application application,
                                   platform::Architecture architecture,
                                   reliability::TaskAnalyzer analyzer,
                                   ResilienceSpec resilience,
                                   SystemObjectives objectives,
                                   sched::QosSpec spec)
    : resilience_(std::move(resilience)),
      nominal_(std::move(application), std::move(architecture),
               std::move(analyzer), objectives, spec),
      plan_(nominal_.application(), nominal_.architecture(),
            objectives.fields_read() | spec.fields_read() |
                resilience_.degraded_spec.fields_read()) {
  const std::size_t num_pes = nominal_.architecture().num_pes();
  resilience_.validate(num_pes);
  failure_probs_ = pe_failure_probabilities(nominal_.architecture(),
                                            resilience_.mission_hours);
  failure_sets_ =
      enumerate_failure_sets(num_pes, resilience_.max_failures);
  spare_mask_.assign(num_pes, 0);
  for (std::size_t pe : resilience_.spare_pes) spare_mask_[pe] = 1;
}

std::vector<ResilientProblem::DegradedMode> ResilientProblem::degraded_modes(
    const MappingGenome& genome) const {
  std::vector<DegradedMode> modes;
  modes.reserve(failure_sets_.size());
  for (const std::vector<char>& failed : failure_sets_) {
    DegradedMode mode;
    mode.failed = failed;
    mode.probability = failure_set_probability(failure_probs_, failed);
    std::optional<MappingGenome> repaired =
        nominal_.repair_for_failures(genome, failed);
    if (repaired.has_value()) {
      mode.repairable = true;
      mode.mapping = std::move(*repaired);
      mode.qos = nominal_.qos(mode.mapping);
      mode.violation = resilience_.degraded_spec.violation(mode.qos);
    }
    modes.push_back(std::move(mode));
  }
  return modes;
}

moea::Evaluation ResilientProblem::evaluate(
    const MappingGenome& genome) const {
  const sched::QosMetrics nominal_qos = nominal_.qos(genome, plan_);
  moea::Evaluation eval;
  eval.objectives = nominal_.objectives().extract(nominal_qos);
  eval.violation = nominal_.spec().violation(nominal_qos);

  // Spare occupancy: every task the healthy mapping places on a declared
  // spare erodes the capacity margin the spares exist to provide.
  if (!resilience_.spare_pes.empty()) {
    for (const ClrMappingProblem::ResolvedTask& task :
         nominal_.resolve(genome)) {
      if (spare_mask_[task.pe]) {
        eval.violation += resilience_.spare_penalty_weight;
      }
    }
  }

  // Worst-case certification: the degraded spec must hold after the loss of
  // ANY enumerated failure set.
  double worst_degraded = 0.0;
  for (const std::vector<char>& failed : failure_sets_) {
    const std::optional<MappingGenome> repaired =
        nominal_.repair_for_failures(genome, failed);
    if (!repaired.has_value()) {
      double count = 0.0;
      for (char f : failed) count += f != 0;
      worst_degraded = std::max(worst_degraded, 1.0 + count);
      continue;
    }
    worst_degraded =
        std::max(worst_degraded,
                 resilience_.degraded_spec.violation(
                     nominal_.qos(*repaired, plan_)));
  }
  eval.violation += worst_degraded;
  return eval;
}

moea::Nsga2Ops<MappingGenome> ResilientProblem::ops(
    double mutation_indpb) const {
  moea::Nsga2Ops<MappingGenome> ops = nominal_.ops(mutation_indpb);
  ops.evaluate = [this](const MappingGenome& g) { return evaluate(g); };
  return ops;
}

ResilientProblem::AnalyticPrediction ResilientProblem::analytic_prediction(
    const MappingGenome& genome) const {
  AnalyticPrediction pred;
  double p_nominal = 1.0;
  for (double q : failure_probs_) p_nominal *= 1.0 - q;

  const sched::QosMetrics nominal_qos = nominal_.qos(genome);
  pred.availability = p_nominal;
  double makespan_acc = p_nominal * nominal_qos.makespan_us;
  double error_acc = p_nominal * nominal_qos.error_prob;
  double energy_acc = p_nominal * nominal_qos.energy_uj;
  pred.worst_makespan_us = nominal_qos.makespan_us;
  pred.worst_error_prob = nominal_qos.error_prob;

  for (const DegradedMode& mode : degraded_modes(genome)) {
    if (!mode.repairable) continue;
    pred.availability += mode.probability;
    makespan_acc += mode.probability * mode.qos.makespan_us;
    error_acc += mode.probability * mode.qos.error_prob;
    energy_acc += mode.probability * mode.qos.energy_uj;
    pred.worst_makespan_us =
        std::max(pred.worst_makespan_us, mode.qos.makespan_us);
    pred.worst_error_prob =
        std::max(pred.worst_error_prob, mode.qos.error_prob);
  }

  if (pred.availability > 0.0) {
    pred.expected_makespan_us = makespan_acc / pred.availability;
    pred.expected_error_prob = error_acc / pred.availability;
    pred.expected_energy_uj = energy_acc / pred.availability;
  }
  return pred;
}

}  // namespace clrearly::core
