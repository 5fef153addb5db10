#include "core/dse.hpp"

#include <utility>

#include "core/heuristics.hpp"
#include "util/log.hpp"
#include "util/observability.hpp"

namespace clrearly::core {

DseMethodology::DseMethodology(app::Application application,
                               platform::Architecture architecture,
                               reliability::TaskAnalyzer analyzer)
    : app_(std::move(application)),
      arch_(std::move(architecture)),
      analyzer_(std::move(analyzer)) {
  app_.validate();
}

std::vector<TdseResult> DseMethodology::run_tdse(
    const DseOptions& options) const {
  const util::PhaseTimer timer("dse.tdse");
  const Tdse tdse(analyzer_);
  return tdse.run_application(app_, arch_, options.tdse_objectives);
}

DseOutcome DseMethodology::collect(moea::Nsga2Result<MappingGenome> result) {
  DseOutcome outcome;
  outcome.evaluations = result.evaluations;
  // The final population typically holds many copies of each front point;
  // report each distinct objective vector once, and only feasible ones —
  // a design violating the QoS spec is not a solution of Eq. 5, even when
  // the run found nothing better.
  for (std::size_t i : result.front) {
    if (!moea::is_feasible(result.population[i].eval.violation)) continue;
    const moea::Objectives& obj = result.population[i].eval.objectives;
    bool duplicate = false;
    for (const moea::Objectives& seen : outcome.front) {
      if (seen == obj) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    outcome.front.push_back(obj);
    outcome.front_genomes.push_back(std::move(result.population[i].genome));
  }
  return outcome;
}

ClrMappingProblem DseMethodology::build_fcclr_problem(
    const DseOptions& options) const {
  return ClrMappingProblem(app_, arch_, analyzer_, options.objectives,
                           options.spec);
}

ResilientProblem DseMethodology::build_resilient_problem(
    const DseOptions& options) const {
  return ResilientProblem(app_, arch_, analyzer_, options.resilience,
                          options.objectives, options.spec);
}

ClrMappingProblem DseMethodology::build_pfclr_problem(
    const DseOptions& options, const std::vector<TdseResult>& tdse) const {
  std::vector<std::vector<TaskDesignPoint>> points;
  points.reserve(tdse.size());
  for (const TdseResult& r : tdse) points.push_back(r.pareto);
  return ClrMappingProblem(app_, arch_, analyzer_, options.objectives,
                           options.spec, std::move(points));
}

DseOutcome DseMethodology::run_fcclr(const DseOptions& options) const {
  return run_fcclr(options, build_fcclr_problem(options));
}

DseOutcome DseMethodology::run_fcclr(const DseOptions& options,
                                     const ClrMappingProblem& problem) const {
  const util::PhaseTimer timer("dse.fcclr");
  util::Rng rng(options.seed);
  util::log_info() << "fcCLR: " << app_.graph.num_tasks() << " tasks, "
                   << problem.layout().gene_count() << " genes";
  std::vector<MappingGenome> seeds;
  if (options.heuristic_seed) {
    seeds.push_back(heft_clr_mapping(problem).genome);
  }
  auto result = moea::run_island_nsga2(
      options.ga, options.island, problem.ops(options.ga.mutation_indpb), rng,
      std::move(seeds));
  return collect(std::move(result));
}

DseOutcome DseMethodology::run_kresilient(const DseOptions& options) const {
  return run_kresilient(options, build_resilient_problem(options));
}

DseOutcome DseMethodology::run_kresilient(
    const DseOptions& options, const ResilientProblem& problem) const {
  const util::PhaseTimer timer("dse.kresilient");
  util::Rng rng(options.seed);
  util::log_info() << "kresilient: " << app_.graph.num_tasks() << " tasks, "
                   << problem.layout().gene_count() << " genes, k="
                   << problem.resilience().max_failures;
  std::vector<MappingGenome> seeds;
  if (options.heuristic_seed) {
    seeds.push_back(heft_clr_mapping(problem.nominal()).genome);
  }
  auto result = moea::run_island_nsga2(
      options.ga, options.island, problem.ops(options.ga.mutation_indpb), rng,
      std::move(seeds));
  return collect(std::move(result));
}

DseOutcome DseMethodology::run_pfclr(const DseOptions& options) const {
  return run_pfclr(options, run_tdse(options));
}

DseOutcome DseMethodology::run_pfclr(
    const DseOptions& options, const std::vector<TdseResult>& tdse) const {
  return run_pfclr(options, build_pfclr_problem(options, tdse));
}

DseOutcome DseMethodology::run_pfclr(const DseOptions& options,
                                     const ClrMappingProblem& problem) const {
  const util::PhaseTimer timer("dse.pfclr");
  util::Rng rng(options.seed);
  util::log_info() << "pfCLR: " << app_.graph.num_tasks() << " tasks, "
                   << problem.layout().gene_count() << " genes";
  auto result = moea::run_island_nsga2(
      options.ga, options.island, problem.ops(options.ga.mutation_indpb), rng);
  return collect(std::move(result));
}

DseOutcome DseMethodology::run_proposed(const DseOptions& options) const {
  return run_proposed(options, run_tdse(options));
}

DseOutcome DseMethodology::run_proposed(
    const DseOptions& options, const std::vector<TdseResult>& tdse) const {
  return run_proposed(options, build_pfclr_problem(options, tdse),
                      build_fcclr_problem(options));
}

DseOutcome DseMethodology::run_proposed(const DseOptions& options,
                                        const ClrMappingProblem& pf,
                                        const ClrMappingProblem& fc) const {
  const util::PhaseTimer timer("dse.proposed");
  // Stage 1: pruned search.
  util::Rng rng(options.seed);
  moea::Nsga2Result<MappingGenome> pf_result;
  {
    const util::PhaseTimer stage_timer("dse.proposed.pfclr_stage");
    pf_result = moea::run_island_nsga2(
        options.ga, options.island, pf.ops(options.ga.mutation_indpb), rng);
  }

  // Stage 2: full-configuration search seeded with stage 1's front.
  std::vector<MappingGenome> seeds;
  seeds.reserve(pf_result.front.size() + 1);
  if (options.heuristic_seed) {
    seeds.push_back(heft_clr_mapping(fc).genome);
  }
  for (std::size_t i : pf_result.front) {
    seeds.push_back(pf.translate_to(fc, pf_result.population[i].genome));
  }
  util::log_info() << "proposed: seeding fcCLR with " << seeds.size()
                   << " pfCLR front genomes";
  moea::Nsga2Result<MappingGenome> fc_result;
  {
    const util::PhaseTimer stage_timer("dse.proposed.fcclr_stage");
    fc_result = moea::run_island_nsga2(options.ga, options.island,
                                       fc.ops(options.ga.mutation_indpb), rng,
                                       std::move(seeds));
  }

  DseOutcome outcome = collect(std::move(fc_result));
  outcome.evaluations += pf_result.evaluations;
  return outcome;
}

}  // namespace clrearly::core
