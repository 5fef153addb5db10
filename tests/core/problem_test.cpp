#include "core/problem.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <set>
#include <stdexcept>

#include "app/sobel.hpp"
#include "core/tdse.hpp"
#include "platform/architecture.hpp"

namespace clrearly::core {
namespace {

class ProblemFixture : public ::testing::Test {
 protected:
  app::Application sobel_ = app::make_sobel_application();
  platform::Architecture arch_ = platform::Architecture::paper_default();
  reliability::TaskAnalyzer analyzer_ =
      reliability::TaskAnalyzer::paper_default();

  ClrMappingProblem full_problem() const {
    return ClrMappingProblem(sobel_, arch_, analyzer_, SystemObjectives{},
                             sched::QosSpec{});
  }

  std::vector<std::vector<TaskDesignPoint>> pareto_points() const {
    const Tdse tdse(analyzer_);
    const auto results =
        tdse.run_application(sobel_, arch_, TdseObjectives::tdse_run(1));
    std::vector<std::vector<TaskDesignPoint>> points;
    for (const auto& r : results) points.push_back(r.pareto);
    return points;
  }

  ClrMappingProblem pf_problem() const {
    return ClrMappingProblem(sobel_, arch_, analyzer_, SystemObjectives{},
                             sched::QosSpec{}, pareto_points());
  }
};

// --- SystemObjectives -------------------------------------------------------

TEST(SystemObjectivesTest, DefaultIsMakespanPlusErrorProb) {
  const SystemObjectives obj;
  EXPECT_EQ(obj.count(), 2u);
  sched::QosMetrics m;
  m.makespan_us = 123.0;
  m.error_prob = 0.25;
  const auto v = obj.extract(m);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 123.0);
  EXPECT_EQ(v[1], 0.25);
}

TEST(SystemObjectivesTest, MttfNegatedEnergyPowerAppended) {
  SystemObjectives obj;
  obj.mttf = obj.energy = obj.power = true;
  sched::QosMetrics m;
  m.mttf_hours = 1000.0;
  m.energy_uj = 5.0;
  m.peak_power_w = 2.0;
  const auto v = obj.extract(m);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[2], -1000.0);
  EXPECT_EQ(v[3], 5.0);
  EXPECT_EQ(v[4], 2.0);
}

TEST(SystemObjectivesTest, EmptySelectionThrows) {
  SystemObjectives obj;
  obj.makespan = obj.error_prob = false;
  EXPECT_THROW(obj.extract(sched::QosMetrics{}), std::invalid_argument);
}

// --- fcCLR layout and decode ----------------------------------------------------

TEST_F(ProblemFixture, FullConfigLayoutShape) {
  const ClrMappingProblem problem = full_problem();
  EXPECT_EQ(problem.mode(), ClrMappingProblem::Mode::kFullConfig);
  const GenomeLayout& layout = problem.layout();
  EXPECT_EQ(layout.num_tasks(), 5u);
  EXPECT_EQ(layout.fields_per_task(), ClrMappingProblem::kFullConfigFields);
  // Per-task cardinalities: impl=2, pe=6, hw=3, ssw=5, asw=4, dvfs=3.
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldImpl), 2u);
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldPeSel), 6u);
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldHw), 3u);
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldSsw), 5u);
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldAsw), 4u);
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldDvfs), 3u);
}

TEST_F(ProblemFixture, DecodeAlwaysYieldsCompatibleBindings) {
  const ClrMappingProblem problem = full_problem();
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    const MappingGenome g = problem.layout().random(rng);
    const auto decisions = problem.decode(g);
    ASSERT_EQ(decisions.size(), 5u);
    for (std::size_t t = 0; t < 5; ++t) {
      EXPECT_LT(decisions[t].pe, arch_.num_pes());
      EXPECT_GT(decisions[t].metrics.avg_exec_time_us, 0.0);
      EXPECT_GT(decisions[t].metrics.mttf_hours, 0.0);
    }
  }
}

TEST_F(ProblemFixture, EvaluationIsDeterministic) {
  const ClrMappingProblem problem = full_problem();
  util::Rng rng(2);
  const MappingGenome g = problem.layout().random(rng);
  const auto a = problem.evaluate(g);
  const auto b = problem.evaluate(g);
  EXPECT_EQ(a.objectives, b.objectives);
  EXPECT_EQ(a.violation, b.violation);
}

TEST_F(ProblemFixture, CachedMetricsMatchDirectAnalyzerEvaluation) {
  const ClrMappingProblem problem = full_problem();
  util::Rng rng(3);
  const MappingGenome g = problem.layout().random(rng);
  const auto decisions = problem.decode(g);
  const GenomeLayout& layout = problem.layout();

  for (std::size_t t = 0; t < 5; ++t) {
    const std::size_t type = sobel_.graph.task(t).type;
    const std::size_t impl =
        layout.gene(g, t, ClrMappingProblem::kFieldImpl) %
        sobel_.impls[type].size();
    const auto& pe_type = arch_.type_of(decisions[t].pe);
    reliability::ClrConfig cfg;
    cfg.hw = layout.gene(g, t, ClrMappingProblem::kFieldHw);
    cfg.ssw = layout.gene(g, t, ClrMappingProblem::kFieldSsw);
    cfg.asw = layout.gene(g, t, ClrMappingProblem::kFieldAsw);
    cfg.dvfs =
        layout.gene(g, t, ClrMappingProblem::kFieldDvfs) % pe_type.dvfs.size();
    const auto direct =
        analyzer_.evaluate(sobel_.impls[type][impl], pe_type, cfg);
    EXPECT_DOUBLE_EQ(decisions[t].metrics.avg_exec_time_us,
                     direct.avg_exec_time_us);
    EXPECT_DOUBLE_EQ(decisions[t].metrics.error_prob, direct.error_prob);
    EXPECT_DOUBLE_EQ(decisions[t].metrics.mttf_hours, direct.mttf_hours);
  }
}

TEST_F(ProblemFixture, AxesPinningForcesBaselineConfigs) {
  const ClrMappingProblem problem(sobel_, arch_, analyzer_, SystemObjectives{},
                                  sched::QosSpec{},
                                  reliability::ClrAxes::only_dvfs());
  const GenomeLayout& layout = problem.layout();
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldHw), 1u);
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldSsw), 1u);
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldAsw), 1u);
  EXPECT_EQ(layout.cardinality(0, ClrMappingProblem::kFieldDvfs), 3u);
}

TEST_F(ProblemFixture, QosSpecDrivesViolation) {
  sched::QosSpec spec;
  spec.max_makespan_us = 1.0;  // unsatisfiable
  const ClrMappingProblem problem(sobel_, arch_, analyzer_, SystemObjectives{},
                                  spec);
  util::Rng rng(4);
  const MappingGenome g = problem.layout().random(rng);
  EXPECT_GT(problem.evaluate(g).violation, 0.0);
}

// --- pfCLR ------------------------------------------------------------------------

TEST_F(ProblemFixture, ParetoFilteredLayoutShape) {
  const ClrMappingProblem problem = pf_problem();
  EXPECT_EQ(problem.mode(), ClrMappingProblem::Mode::kParetoFiltered);
  const GenomeLayout& layout = problem.layout();
  EXPECT_EQ(layout.fields_per_task(), ClrMappingProblem::kParetoFields);
  const auto points = pareto_points();
  for (std::size_t t = 0; t < 5; ++t) {
    const std::size_t type = sobel_.graph.task(t).type;
    EXPECT_EQ(layout.cardinality(t, ClrMappingProblem::kFieldPoint),
              points[type].size());
  }
}

TEST_F(ProblemFixture, ParetoFilteredDecodeUsesStoredMetrics) {
  const auto points = pareto_points();
  const ClrMappingProblem problem(sobel_, arch_, analyzer_, SystemObjectives{},
                                  sched::QosSpec{}, points);
  util::Rng rng(5);
  const MappingGenome g = problem.layout().random(rng);
  const auto decisions = problem.decode(g);
  const GenomeLayout& layout = problem.layout();
  for (std::size_t t = 0; t < 5; ++t) {
    const std::size_t type = sobel_.graph.task(t).type;
    const auto& point =
        points[type][layout.gene(g, t, ClrMappingProblem::kFieldPoint)];
    EXPECT_DOUBLE_EQ(decisions[t].metrics.avg_exec_time_us,
                     point.metrics.avg_exec_time_us);
    // The chosen PE instance belongs to the point's PE type.
    EXPECT_EQ(arch_.pe(decisions[t].pe).type_index, point.pe_type);
  }
}

TEST_F(ProblemFixture, EmptyParetoSetRejected) {
  auto points = pareto_points();
  points[2].clear();
  EXPECT_THROW(ClrMappingProblem(sobel_, arch_, analyzer_, SystemObjectives{},
                                 sched::QosSpec{}, points),
               std::invalid_argument);
}

// --- pf -> fc translation (the seeding bridge) --------------------------------------

TEST_F(ProblemFixture, TranslationPreservesQos) {
  const ClrMappingProblem pf = pf_problem();
  const ClrMappingProblem fc = full_problem();
  util::Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const MappingGenome g = pf.layout().random(rng);
    const MappingGenome translated = pf.translate_to(fc, g);
    EXPECT_NO_THROW(fc.layout().validate(translated));

    const sched::QosMetrics qos_pf = pf.qos(g);
    const sched::QosMetrics qos_fc = fc.qos(translated);
    EXPECT_DOUBLE_EQ(qos_fc.makespan_us, qos_pf.makespan_us);
    EXPECT_DOUBLE_EQ(qos_fc.error_prob, qos_pf.error_prob);
    EXPECT_DOUBLE_EQ(qos_fc.mttf_hours, qos_pf.mttf_hours);
    EXPECT_DOUBLE_EQ(qos_fc.energy_uj, qos_pf.energy_uj);
    EXPECT_DOUBLE_EQ(qos_fc.peak_power_w, qos_pf.peak_power_w);
  }
}

TEST_F(ProblemFixture, TranslationRequiresCorrectModes) {
  const ClrMappingProblem pf = pf_problem();
  const ClrMappingProblem fc = full_problem();
  util::Rng rng(7);
  const MappingGenome g_fc = fc.layout().random(rng);
  EXPECT_THROW(fc.translate_to(pf, g_fc), std::invalid_argument);
  const MappingGenome g_pf = pf.layout().random(rng);
  EXPECT_THROW(pf.translate_to(pf, g_pf), std::invalid_argument);
}

// --- Design-space cardinality (Section V-B formulas) --------------------------------

TEST_F(ProblemFixture, DesignSpaceSizeMatchesClosedForm) {
  // Sobel: T = 5 tasks, P = 6 PEs, I_t = 2 impls, |C_t| = 3*5*4*3 = 180.
  //   log10(6^5 * 5! * (2*180)^5)
  const double expected = 5.0 * std::log10(6.0) + std::log10(120.0) +
                          5.0 * std::log10(2.0 * 180.0);
  EXPECT_NEAR(full_problem().log10_design_space_size(), expected, 1e-9);
}

TEST_F(ProblemFixture, PruningShrinksTheDesignSpace) {
  const double full = full_problem().log10_design_space_size();
  const double pruned = pf_problem().log10_design_space_size();
  EXPECT_LT(pruned, full);
  // Single-layer restriction also shrinks the space.
  const ClrMappingProblem dvfs_only(sobel_, arch_, analyzer_,
                                    SystemObjectives{}, sched::QosSpec{},
                                    reliability::ClrAxes::only_dvfs());
  EXPECT_LT(dvfs_only.log10_design_space_size(), full);
}

// --- ops() ---------------------------------------------------------------------------

TEST_F(ProblemFixture, OpsCallbacksAreCoherent) {
  const ClrMappingProblem problem = full_problem();
  const auto ops = problem.ops();
  util::Rng rng(8);
  MappingGenome a = ops.create(rng);
  MappingGenome b = ops.create(rng);
  EXPECT_NO_THROW(problem.layout().validate(a));
  MappingGenome ca;
  MappingGenome cb;
  ops.crossover(a, b, ca, cb, rng);
  EXPECT_NO_THROW(problem.layout().validate(ca));
  ops.mutate(ca, rng);
  EXPECT_NO_THROW(problem.layout().validate(ca));
  const auto eval = ops.evaluate(ca);
  EXPECT_EQ(eval.objectives.size(), 2u);
}

}  // namespace
}  // namespace clrearly::core
