#include "core/baselines.hpp"

#include <stdexcept>

#include "moea/pareto.hpp"
#include "util/log.hpp"

namespace clrearly::core {

std::string to_string(SingleLayer layer) {
  switch (layer) {
    case SingleLayer::kDvfs: return "DVFS";
    case SingleLayer::kHwRel: return "HWRel";
    case SingleLayer::kSswRel: return "SSWRel";
    case SingleLayer::kAswRel: return "ASWRel";
  }
  return "Unknown";
}

reliability::ClrAxes axes_for(SingleLayer layer) {
  switch (layer) {
    case SingleLayer::kDvfs: return reliability::ClrAxes::only_dvfs();
    case SingleLayer::kHwRel: return reliability::ClrAxes::only_hw();
    case SingleLayer::kSswRel: return reliability::ClrAxes::only_ssw();
    case SingleLayer::kAswRel: return reliability::ClrAxes::only_asw();
  }
  throw std::invalid_argument("axes_for: unknown layer");
}

DseOutcome run_single_layer(const DseMethodology& dse,
                            const DseOptions& options, SingleLayer layer) {
  const ClrMappingProblem problem(dse.application(), dse.architecture(),
                                  dse.analyzer(), options.objectives,
                                  options.spec, axes_for(layer));
  util::Rng rng(options.seed);
  util::log_info() << "single-layer " << to_string(layer) << ": "
                   << dse.application().graph.num_tasks() << " tasks";
  return DseMethodology::collect(moea::run_island_nsga2(
      options.ga, options.island, problem.ops(options.ga.mutation_indpb),
      rng));
}

AgnosticOutcome run_agnostic(const DseMethodology& dse,
                             const DseOptions& options) {
  AgnosticOutcome outcome;
  outcome.layers = {SingleLayer::kDvfs, SingleLayer::kHwRel,
                    SingleLayer::kSswRel, SingleLayer::kAswRel};

  std::vector<moea::Objectives> pool;
  for (SingleLayer layer : outcome.layers) {
    DseOutcome run = run_single_layer(dse, options, layer);
    outcome.evaluations += run.evaluations;
    pool.insert(pool.end(), run.front.begin(), run.front.end());
    outcome.per_layer.push_back(std::move(run));
  }
  outcome.combined_front = moea::pareto_filter(pool);
  return outcome;
}

}  // namespace clrearly::core
