#include "core/dse.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "app/characterizer.hpp"
#include "app/sobel.hpp"
#include "core/baselines.hpp"
#include "core/experiment.hpp"
#include "moea/hypervolume.hpp"
#include "platform/architecture.hpp"
#include "util/log.hpp"

namespace clrearly::core {
namespace {

class DseFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::set_log_level(util::LogLevel::Warn);
  }

  DseMethodology sobel_dse() const {
    return DseMethodology(app::make_sobel_application(),
                          platform::Architecture::paper_default(),
                          reliability::TaskAnalyzer::paper_default());
  }

  DseOptions small_options(std::uint64_t seed) const {
    DseOptions options;
    options.ga.population_size = 24;
    options.ga.generations = 8;
    options.seed = seed;
    return options;
  }
};

TEST_F(DseFixture, TdseProducesPointsForEveryType) {
  const DseMethodology dse = sobel_dse();
  const auto tdse = dse.run_tdse(small_options(1));
  ASSERT_EQ(tdse.size(), 4u);
  for (const auto& r : tdse) EXPECT_FALSE(r.pareto.empty());
}

TEST_F(DseFixture, FcclrProducesNonDominatedFeasibleFront) {
  const DseMethodology dse = sobel_dse();
  const DseOutcome outcome = dse.run_fcclr(small_options(2));
  ASSERT_FALSE(outcome.front.empty());
  EXPECT_GT(outcome.evaluations, 0u);
  // Front members must be mutually non-dominated.
  for (const auto& a : outcome.front) {
    for (const auto& b : outcome.front) {
      if (&a == &b) continue;
      EXPECT_FALSE(moea::dominates(a, b));
    }
  }
  // Genomes decode back to the reported objectives.
  ASSERT_EQ(outcome.front.size(), outcome.front_genomes.size());
}

TEST_F(DseFixture, PfclrRunsOnTdseResults) {
  const DseMethodology dse = sobel_dse();
  const auto tdse = dse.run_tdse(small_options(3));
  const DseOutcome outcome = dse.run_pfclr(small_options(3), tdse);
  EXPECT_FALSE(outcome.front.empty());
}

TEST_F(DseFixture, ProposedCombinesEvaluationBudget) {
  const DseMethodology dse = sobel_dse();
  const DseOptions options = small_options(4);
  const DseOutcome pf = dse.run_pfclr(options);
  const DseOutcome proposed = dse.run_proposed(options);
  // Proposed spends the pfCLR budget plus a full fcCLR run.
  EXPECT_GT(proposed.evaluations, pf.evaluations);
  EXPECT_FALSE(proposed.front.empty());
}

TEST_F(DseFixture, FlowsAreDeterministicPerSeed) {
  const DseMethodology dse = sobel_dse();
  const DseOutcome a = dse.run_fcclr(small_options(5));
  const DseOutcome b = dse.run_fcclr(small_options(5));
  EXPECT_EQ(a.front, b.front);
  const DseOutcome c = dse.run_fcclr(small_options(6));
  EXPECT_NE(a.front, c.front);
}

TEST_F(DseFixture, FrontHasNoDuplicateObjectiveVectors) {
  const DseMethodology dse = sobel_dse();
  const DseOutcome outcome = dse.run_proposed(small_options(7));
  for (std::size_t i = 0; i < outcome.front.size(); ++i) {
    for (std::size_t j = i + 1; j < outcome.front.size(); ++j) {
      EXPECT_NE(outcome.front[i], outcome.front[j]);
    }
  }
}

TEST(DseCollectTest, NanViolationsAreNotReportedAsFeasible) {
  moea::Nsga2Result<MappingGenome> result;
  result.evaluations = 3;
  for (double x : {1.0, 2.0, 3.0}) {
    result.population.push_back(
        {MappingGenome{}, moea::Evaluation{{x, 4.0 - x}, std::nan("")}});
  }
  result.front = {0, 1, 2};
  const DseOutcome outcome = DseMethodology::collect(result);
  EXPECT_TRUE(outcome.front.empty());
  EXPECT_TRUE(outcome.front_genomes.empty());
  EXPECT_EQ(outcome.evaluations, 3u);

  // The same members with zero violation are all reported.
  for (auto& member : result.population) member.eval.violation = 0.0;
  EXPECT_EQ(DseMethodology::collect(result).front.size(), 3u);
}

TEST_F(DseFixture, ProposedAtLeastMatchesPfclrHypervolume) {
  // The paper's TABLE VII shape: proposed >= pfCLR (usually strictly).
  const DseMethodology dse = sobel_dse();
  const DseOptions options = small_options(8);
  const auto tdse = dse.run_tdse(options);
  const DseOutcome pf = dse.run_pfclr(options, tdse);
  const DseOutcome proposed = dse.run_proposed(options, tdse);

  const auto ref = moea::common_reference({pf.front, proposed.front});
  EXPECT_GE(moea::hypervolume(proposed.front, ref),
            moea::hypervolume(pf.front, ref) * 0.999);
}

TEST_F(DseFixture, HeuristicSeedingNeverHurtsAndHelpsWhenConstrained) {
  const DseMethodology dse = sobel_dse();
  DseOptions options = small_options(13);
  options.ga.generations = 3;  // tiny budget: the seed must matter
  options.spec.min_functional_rel = 0.995;

  DseOptions seeded = options;
  seeded.heuristic_seed = true;
  const DseOutcome with_seed = dse.run_fcclr(seeded);
  // The heuristic seed makes the initial population feasible, so even a
  // 3-generation run reports a non-empty front.
  EXPECT_FALSE(with_seed.front.empty());
}

TEST_F(DseFixture, ReportDescribesEveryTask) {
  const DseMethodology dse = sobel_dse();
  const DseOutcome outcome = dse.run_fcclr(small_options(14));
  ASSERT_FALSE(outcome.front_genomes.empty());

  const ClrMappingProblem problem(
      app::make_sobel_application(), platform::Architecture::paper_default(),
      reliability::TaskAnalyzer::paper_default(), SystemObjectives{},
      sched::QosSpec{});
  const auto report = problem.report(outcome.front_genomes.front());
  ASSERT_EQ(report.size(), 5u);
  for (const auto& choice : report) {
    EXPECT_FALSE(choice.task_name.empty());
    EXPECT_FALSE(choice.impl_name.empty());
    EXPECT_FALSE(choice.pe_type_name.empty());
    EXPECT_NE(choice.config_text.find("HW:"), std::string::npos);
    EXPECT_LT(choice.pe, 6u);
    EXPECT_GT(choice.metrics.avg_exec_time_us, 0.0);
  }
}

// --- Baselines -------------------------------------------------------------------

TEST_F(DseFixture, SingleLayerAxes) {
  EXPECT_EQ(to_string(SingleLayer::kDvfs), "DVFS");
  EXPECT_EQ(to_string(SingleLayer::kHwRel), "HWRel");
  EXPECT_EQ(to_string(SingleLayer::kSswRel), "SSWRel");
  EXPECT_EQ(to_string(SingleLayer::kAswRel), "ASWRel");

  const auto axes = axes_for(SingleLayer::kSswRel);
  EXPECT_TRUE(axes.ssw);
  EXPECT_FALSE(axes.hw);
  EXPECT_FALSE(axes.asw);
  EXPECT_FALSE(axes.dvfs);
}

TEST_F(DseFixture, SingleLayerRunsComplete) {
  const DseMethodology dse = sobel_dse();
  const DseOutcome outcome =
      run_single_layer(dse, small_options(9), SingleLayer::kHwRel);
  EXPECT_FALSE(outcome.front.empty());
}

TEST_F(DseFixture, AgnosticCombinesFourLayers) {
  const DseMethodology dse = sobel_dse();
  const AgnosticOutcome outcome = run_agnostic(dse, small_options(10));
  EXPECT_EQ(outcome.per_layer.size(), 4u);
  EXPECT_FALSE(outcome.combined_front.empty());
  // The union front dominates-or-equals every per-layer point.
  std::size_t total_eval = 0;
  for (const auto& run : outcome.per_layer) total_eval += run.evaluations;
  EXPECT_EQ(outcome.evaluations, total_eval);

  for (const auto& point : outcome.combined_front) {
    for (const auto& other : outcome.combined_front) {
      if (&point == &other) continue;
      EXPECT_FALSE(moea::dominates(other, point));
    }
  }
}

TEST_F(DseFixture, ClrBeatsAgnosticOnSynthetic) {
  // The Fig. 7 headline with a fixed seed: on a 20-task application under
  // the paper's high-fault operating conditions, the cross-layer front's
  // hypervolume beats the agnostic union of single-layer fronts.
  const app::Application syn = app::make_synthetic_application(20, 10, 1020);
  const DseMethodology dse(syn, platform::Architecture::paper_default(),
                           bench_system_analyzer());
  DseOptions options = small_options(11);
  options.ga.population_size = 100;
  options.ga.generations = 60;
  options.spec.min_functional_rel = 0.99;
  const DseOutcome clr = dse.run_proposed(options);
  const AgnosticOutcome agnostic = run_agnostic(dse, options);

  const auto ref =
      moea::common_reference({clr.front, agnostic.combined_front});
  EXPECT_GT(moea::hypervolume(clr.front, ref),
            moea::hypervolume(agnostic.combined_front, ref));
}

// --- Synthetic application integration --------------------------------------------

TEST_F(DseFixture, WorksOnSyntheticApplication) {
  const app::Application syn = app::make_synthetic_application(15, 10, 42);
  const DseMethodology dse(syn, platform::Architecture::paper_default(),
                           reliability::TaskAnalyzer::paper_default());
  const DseOutcome outcome = dse.run_proposed(small_options(12));
  EXPECT_FALSE(outcome.front.empty());
  for (const auto& point : outcome.front) {
    EXPECT_GT(point[0], 0.0);                       // makespan positive
    EXPECT_GE(point[1], 0.0);                       // error prob in [0,1]
    EXPECT_LE(point[1], 1.0);
  }
}

}  // namespace
}  // namespace clrearly::core
