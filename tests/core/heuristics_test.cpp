#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "app/characterizer.hpp"
#include "app/sobel.hpp"
#include "core/experiment.hpp"
#include "core/tdse.hpp"
#include "moea/island.hpp"
#include "platform/architecture.hpp"

namespace clrearly::core {
namespace {

ClrMappingProblem sobel_problem(sched::QosSpec spec = {}) {
  return ClrMappingProblem(app::make_sobel_application(),
                           platform::Architecture::paper_default(),
                           bench_system_analyzer(), SystemObjectives{}, spec);
}

TEST(HeftClrTest, RejectsParetoFilteredProblems) {
  const app::Application sobel = app::make_sobel_application();
  const platform::Architecture arch = platform::Architecture::paper_default();
  const Tdse tdse(bench_system_analyzer());
  const auto results =
      tdse.run_application(sobel, arch, TdseObjectives::tdse_run(1));
  std::vector<std::vector<TaskDesignPoint>> points;
  for (const auto& r : results) points.push_back(r.pareto);
  const ClrMappingProblem pf(sobel, arch, bench_system_analyzer(),
                             SystemObjectives{}, sched::QosSpec{}, points);
  EXPECT_THROW(heft_clr_mapping(pf), std::invalid_argument);
}

TEST(HeftClrTest, ProducesValidGenome) {
  const ClrMappingProblem problem = sobel_problem();
  const HeuristicResult result = heft_clr_mapping(problem);
  EXPECT_NO_THROW(problem.layout().validate(result.genome));
  EXPECT_GT(result.qos.makespan_us, 0.0);
  // No spec: no hardening pass runs, baseline configs everywhere.
  EXPECT_EQ(result.upgrades, 0u);
  EXPECT_TRUE(result.feasible);
  for (const auto& choice : problem.report(result.genome)) {
    EXPECT_EQ(choice.config.hw, 0u);
    EXPECT_EQ(choice.config.ssw, 0u);
    EXPECT_EQ(choice.config.asw, 0u);
  }
}

TEST(HeftClrTest, OrderIsTopological) {
  const ClrMappingProblem problem = sobel_problem();
  const HeuristicResult result = heft_clr_mapping(problem);
  const app::TaskGraph& graph = problem.application().graph;
  std::vector<std::size_t> pos(graph.num_tasks());
  for (std::size_t i = 0; i < result.genome.order.size(); ++i) {
    pos[result.genome.order[i]] = i;
  }
  for (const app::Edge& e : graph.edges()) {
    EXPECT_LT(pos[e.src], pos[e.dst]);
  }
}

TEST(HeftClrTest, BeatsRandomMappingsOnMakespan) {
  const ClrMappingProblem problem = sobel_problem();
  const double heft_makespan = heft_clr_mapping(problem).qos.makespan_us;

  // HEFT must beat the average random baseline-config design. Random
  // genomes also pick protected configs, so compare against randomized
  // mapping genes with configs forced to baseline.
  util::Rng rng(17);
  double total = 0.0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    MappingGenome g = problem.layout().random(rng);
    for (std::size_t t = 0; t < problem.layout().num_tasks(); ++t) {
      problem.layout().set_gene(g, t, ClrMappingProblem::kFieldHw, 0);
      problem.layout().set_gene(g, t, ClrMappingProblem::kFieldSsw, 0);
      problem.layout().set_gene(g, t, ClrMappingProblem::kFieldAsw, 0);
      problem.layout().set_gene(g, t, ClrMappingProblem::kFieldDvfs, 0);
    }
    total += problem.qos(g).makespan_us;
  }
  EXPECT_LT(heft_makespan, total / trials);
}

TEST(HeftClrTest, HardeningReachesFeasibility) {
  sched::QosSpec spec;
  spec.min_functional_rel = 0.99;
  const ClrMappingProblem problem = sobel_problem(spec);
  const HeuristicResult result = heft_clr_mapping(problem);

  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.upgrades, 0u);
  EXPECT_GE(result.qos.functional_rel, 0.99);
  EXPECT_NO_THROW(problem.layout().validate(result.genome));
}

TEST(HeftClrTest, StricterSpecNeedsMoreUpgrades) {
  sched::QosSpec loose;
  loose.min_functional_rel = 0.98;
  sched::QosSpec tight;
  tight.min_functional_rel = 0.999;
  const HeuristicResult a = heft_clr_mapping(sobel_problem(loose));
  const HeuristicResult b = heft_clr_mapping(sobel_problem(tight));
  EXPECT_LE(a.upgrades, b.upgrades);
  EXPECT_GE(b.qos.functional_rel, a.qos.functional_rel - 1e-12);
}

TEST(HeftClrTest, UnreachableSpecReportsInfeasible) {
  sched::QosSpec spec;
  spec.min_functional_rel = 1.0;  // exact perfection is unreachable
  const ClrMappingProblem problem = sobel_problem(spec);
  const HeuristicResult result = heft_clr_mapping(problem);
  EXPECT_FALSE(result.feasible);
  // It still hardened as far as it could.
  EXPECT_GT(result.upgrades, 0u);
}

TEST(HeftClrTest, WorksOnSyntheticApplications) {
  sched::QosSpec spec;
  spec.min_functional_rel = 0.99;
  for (std::size_t tasks : {10, 30}) {
    const ClrMappingProblem problem(
        app::make_synthetic_application(tasks, 10, 700 + tasks),
        platform::Architecture::paper_default(), bench_system_analyzer(),
        SystemObjectives{}, spec);
    const HeuristicResult result = heft_clr_mapping(problem);
    EXPECT_NO_THROW(problem.layout().validate(result.genome));
    EXPECT_TRUE(result.feasible) << tasks << " tasks";
  }
}

TEST(HeftClrTest, Deterministic) {
  sched::QosSpec spec;
  spec.min_functional_rel = 0.99;
  const ClrMappingProblem problem = sobel_problem(spec);
  const HeuristicResult a = heft_clr_mapping(problem);
  const HeuristicResult b = heft_clr_mapping(problem);
  EXPECT_EQ(a.genome, b.genome);
  EXPECT_EQ(a.upgrades, b.upgrades);
}

TEST(HeftClrTest, SeedsImproveGaConvergence) {
  // The heuristic genome used as a seed must not hurt, and at a small
  // budget should help the GA reach feasibility quickly.
  sched::QosSpec spec;
  spec.min_functional_rel = 0.99;
  const app::Application syn = app::make_synthetic_application(20, 10, 720);
  const ClrMappingProblem problem(syn, platform::Architecture::paper_default(),
                                  bench_system_analyzer(), SystemObjectives{},
                                  spec);
  const HeuristicResult heuristic = heft_clr_mapping(problem);
  ASSERT_TRUE(heuristic.feasible);

  moea::Nsga2Params ga;
  ga.population_size = 24;
  ga.generations = 4;  // deliberately tiny
  util::Rng rng(5);
  const auto seeded = moea::run_island_nsga2(ga, {}, problem.ops(), rng,
                                             {heuristic.genome});
  bool any_feasible = false;
  for (std::size_t i : seeded.front) {
    if (seeded.population[i].eval.violation <= 0.0) any_feasible = true;
  }
  EXPECT_TRUE(any_feasible);
}

}  // namespace
}  // namespace clrearly::core
