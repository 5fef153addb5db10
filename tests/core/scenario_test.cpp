#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "app/sobel.hpp"
#include "core/experiment.hpp"
#include "moea/nsga2.hpp"
#include "platform/architecture.hpp"

namespace clrearly::core {
namespace {

// --- ScenarioSet ---------------------------------------------------------------

TEST(ScenarioSetTest, NormalizesWeights) {
  const ScenarioSet set({{"a", 1.0, 3.0}, {"b", 10.0, 1.0}});
  EXPECT_DOUBLE_EQ(set.scenario(0).weight, 0.75);
  EXPECT_DOUBLE_EQ(set.scenario(1).weight, 0.25);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_THROW(set.scenario(2), std::out_of_range);
}

TEST(ScenarioSetTest, Validation) {
  EXPECT_THROW(ScenarioSet({}), std::invalid_argument);
  EXPECT_THROW(ScenarioSet({{"a", 0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(ScenarioSet({{"a", 1.0, 0.0}}), std::invalid_argument);
}

TEST(ScenarioSetTest, GroundAndAltitudeProfile) {
  const ScenarioSet set = ScenarioSet::ground_and_altitude();
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.scenario(0).name, "ground");
  EXPECT_GT(set.scenario(1).environment_factor,
            set.scenario(0).environment_factor);
  EXPECT_NEAR(set.scenario(0).weight + set.scenario(1).weight, 1.0, 1e-12);
}

// --- ScenarioProblem -------------------------------------------------------------

class ScenarioProblemFixture : public ::testing::Test {
 protected:
  ScenarioProblem make(ScenarioAggregation aggregation,
                       sched::QosSpec spec = {}) const {
    return ScenarioProblem(app::make_sobel_application(),
                           platform::Architecture::paper_default(),
                           reliability::TaskAnalyzer::paper_default(),
                           ScenarioSet::ground_and_altitude(),
                           SystemObjectives{}, spec, aggregation);
  }
};

TEST_F(ScenarioProblemFixture, SharedLayoutAcrossScenarios) {
  const ScenarioProblem problem = make(ScenarioAggregation::kWeighted);
  EXPECT_EQ(problem.layout().num_tasks(), 5u);
  EXPECT_EQ(&problem.layout(), &problem.problem(0).layout());
  // Sub-problems only differ in their fault environment.
  EXPECT_DOUBLE_EQ(
      problem.problem(0).analyzer().environment().environment_factor, 1.0);
  EXPECT_DOUBLE_EQ(
      problem.problem(1).analyzer().environment().environment_factor, 50.0);
}

TEST_F(ScenarioProblemFixture, PerScenarioQosOrdersErrorByFlux) {
  const ScenarioProblem problem = make(ScenarioAggregation::kWeighted);
  util::Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const MappingGenome g = problem.layout().random(rng);
    const auto qos = problem.per_scenario_qos(g);
    ASSERT_EQ(qos.size(), 2u);
    // Altitude has at least the ground error probability, and the higher
    // retry pressure can only lengthen the schedule, never shorten it.
    EXPECT_GE(qos[1].error_prob, qos[0].error_prob);
    EXPECT_GE(qos[1].makespan_us, qos[0].makespan_us - 1e-9);
  }
}

TEST_F(ScenarioProblemFixture, WeightedAggregationIsConvexCombination) {
  const ScenarioProblem problem = make(ScenarioAggregation::kWeighted);
  util::Rng rng(4);
  const MappingGenome g = problem.layout().random(rng);
  const auto qos = problem.per_scenario_qos(g);
  const auto eval = problem.evaluate(g);
  ASSERT_EQ(eval.objectives.size(), 2u);
  EXPECT_NEAR(eval.objectives[1],
              0.85 * qos[0].error_prob + 0.15 * qos[1].error_prob, 1e-12);
  EXPECT_NEAR(eval.objectives[0],
              0.85 * qos[0].makespan_us + 0.15 * qos[1].makespan_us, 1e-9);
}

TEST_F(ScenarioProblemFixture, WorstCaseTakesComponentwiseMax) {
  const ScenarioProblem problem = make(ScenarioAggregation::kWorstCase);
  util::Rng rng(5);
  const MappingGenome g = problem.layout().random(rng);
  const auto qos = problem.per_scenario_qos(g);
  const auto eval = problem.evaluate(g);
  EXPECT_NEAR(eval.objectives[1],
              std::max(qos[0].error_prob, qos[1].error_prob), 1e-12);
}

TEST_F(ScenarioProblemFixture, SpecMustHoldInEveryScenario) {
  sched::QosSpec spec;
  spec.min_functional_rel = 0.98;
  const ScenarioProblem problem = make(ScenarioAggregation::kWeighted, spec);
  util::Rng rng(6);
  // Find a genome feasible at ground but not at altitude; its aggregated
  // violation must reflect the altitude failure.
  bool found_case = false;
  for (int trial = 0; trial < 300 && !found_case; ++trial) {
    const MappingGenome g = problem.layout().random(rng);
    const auto qos = problem.per_scenario_qos(g);
    const bool ok_ground = qos[0].functional_rel >= 0.98;
    const bool ok_altitude = qos[1].functional_rel >= 0.98;
    if (ok_ground && !ok_altitude) {
      EXPECT_GT(problem.evaluate(g).violation, 0.0);
      found_case = true;
    }
  }
  EXPECT_TRUE(found_case);
}

TEST_F(ScenarioProblemFixture, RobustDesignSurvivesBothConditions) {
  sched::QosSpec spec;
  spec.min_functional_rel = 0.99;
  const ScenarioProblem problem = make(ScenarioAggregation::kWeighted, spec);

  moea::Nsga2Params ga;
  ga.population_size = 40;
  ga.generations = 25;
  util::Rng rng(7);
  const auto result = moea::run_nsga2(ga, problem.ops(), rng);

  bool any_feasible = false;
  for (std::size_t i : result.front) {
    if (result.population[i].eval.violation > 0.0) continue;
    any_feasible = true;
    const auto qos = problem.per_scenario_qos(result.population[i].genome);
    EXPECT_GE(qos[0].functional_rel, 0.99);
    EXPECT_GE(qos[1].functional_rel, 0.99);  // robust at altitude too
  }
  EXPECT_TRUE(any_feasible);
}

}  // namespace
}  // namespace clrearly::core
