#include "sched/qos.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "platform/architecture.hpp"

namespace clrearly::sched {
namespace {

// A two-task chain application with hand-pickable metrics.
app::Application two_task_app() {
  app::Application a;
  a.name = "two";
  a.graph.add_task(0, "t0", 1.0);
  a.graph.add_task(0, "t1", 3.0);
  a.graph.add_edge(0, 1);
  reliability::BaseImpl impl;
  impl.name = "i";
  impl.base_exec_time_us = 10.0;
  impl.base_power_w = 0.1;
  a.impls = {{impl}};
  a.period_us = 1.0e4;
  return a;
}

reliability::TaskMetrics metrics(double time, double err, double power,
                                 double mttf) {
  reliability::TaskMetrics m;
  m.min_exec_time_us = time;
  m.avg_exec_time_us = time;
  m.error_prob = err;
  m.avg_power_w = power;
  m.energy_uj = time * power;
  m.peak_temp_c = 60.0;
  m.eta_hours = mttf;
  m.mttf_hours = mttf;
  return m;
}

TEST(QosEstimateTest, Table3FormulasHandChecked) {
  const app::Application a = two_task_app();
  const platform::Architecture arch = platform::Architecture::paper_default();

  std::vector<TaskDecision> decisions(2);
  decisions[0] = {0, metrics(100.0, 0.02, 0.5, 1.0e5)};
  decisions[1] = {1, metrics(200.0, 0.10, 0.8, 2.0e5)};

  const QosMetrics qos = estimate_qos(a, arch, decisions, {0, 1});

  // Chain of two tasks: makespan = 300.
  EXPECT_DOUBLE_EQ(qos.makespan_us, 300.0);

  // Functional reliability: zeta = {0.25, 0.75}.
  const double f = 0.25 * 0.98 + 0.75 * 0.90;
  EXPECT_NEAR(qos.functional_rel, f, 1e-12);
  EXPECT_NEAR(qos.error_prob, 1.0 - f, 1e-12);

  // Lifetime (Eq. 2): MTTFp = Papp / (ExT/MTTF) per used PE; min over PEs.
  const double mttf0 = 1.0e4 / (100.0 / 1.0e5);
  const double mttf1 = 1.0e4 / (200.0 / 2.0e5);
  EXPECT_NEAR(qos.mttf_hours, std::min(mttf0, mttf1), 1e-6);

  // Energy: sum of task energies.
  EXPECT_NEAR(qos.energy_uj, 100.0 * 0.5 + 200.0 * 0.8, 1e-9);

  // Sequential tasks: peak power is the larger one.
  EXPECT_DOUBLE_EQ(qos.peak_power_w, 0.8);
}

TEST(QosEstimateTest, ParallelTasksStackPower) {
  app::Application a;
  a.graph.add_task(0, "t0");
  a.graph.add_task(0, "t1");
  reliability::BaseImpl impl;
  impl.name = "i";
  impl.base_exec_time_us = 10.0;
  impl.base_power_w = 0.1;
  a.impls = {{impl}};
  a.period_us = 1e4;

  const platform::Architecture arch = platform::Architecture::paper_default();
  std::vector<TaskDecision> decisions(2);
  decisions[0] = {0, metrics(100.0, 0.0, 0.5, 1e5)};
  decisions[1] = {1, metrics(100.0, 0.0, 0.7, 1e5)};
  const QosMetrics qos = estimate_qos(a, arch, decisions, {0, 1});
  EXPECT_DOUBLE_EQ(qos.peak_power_w, 1.2);
  EXPECT_DOUBLE_EQ(qos.makespan_us, 100.0);
}

TEST(QosEstimateTest, SamePeStackingWorsensLifetime) {
  const app::Application a = two_task_app();
  const platform::Architecture arch = platform::Architecture::paper_default();

  std::vector<TaskDecision> spread(2);
  spread[0] = {0, metrics(100.0, 0.0, 0.5, 1e5)};
  spread[1] = {1, metrics(100.0, 0.0, 0.5, 1e5)};

  std::vector<TaskDecision> stacked = spread;
  stacked[1].pe = 0;

  const double l_spread = estimate_qos(a, arch, spread, {0, 1}).mttf_hours;
  const double l_stacked = estimate_qos(a, arch, stacked, {0, 1}).mttf_hours;
  EXPECT_LT(l_stacked, l_spread);
  EXPECT_NEAR(l_stacked, l_spread / 2.0, 1e-6);
}

TEST(QosEstimateTest, ScheduleOutParameterFilled) {
  const app::Application a = two_task_app();
  const platform::Architecture arch = platform::Architecture::paper_default();
  std::vector<TaskDecision> decisions(2);
  decisions[0] = {0, metrics(100.0, 0.0, 0.5, 1e5)};
  decisions[1] = {1, metrics(50.0, 0.0, 0.5, 1e5)};
  Schedule schedule;
  estimate_qos(a, arch, decisions, {0, 1}, &schedule);
  ASSERT_EQ(schedule.tasks.size(), 2u);
  EXPECT_DOUBLE_EQ(schedule.tasks[1].start_us, 100.0);
}

TEST(QosEstimateTest, ValidationErrors) {
  const app::Application a = two_task_app();
  const platform::Architecture arch = platform::Architecture::paper_default();
  // Decision count mismatch.
  EXPECT_THROW(estimate_qos(a, arch, {}, {0, 1}), std::invalid_argument);
  // Non-positive MTTF.
  std::vector<TaskDecision> decisions(2);
  decisions[0] = {0, metrics(100.0, 0.0, 0.5, 1e5)};
  decisions[1] = {1, metrics(100.0, 0.0, 0.5, 1e5)};
  decisions[1].metrics.mttf_hours = 0.0;
  EXPECT_THROW(estimate_qos(a, arch, decisions, {0, 1}),
               std::invalid_argument);
}

// --- Per-PE MTTF and mission reliability ----------------------------------------

TEST(MissionReliabilityTest, PerPeMttfMatchesEq2) {
  const app::Application a = two_task_app();
  const platform::Architecture arch = platform::Architecture::paper_default();
  std::vector<TaskDecision> decisions(2);
  decisions[0] = {0, metrics(100.0, 0.0, 0.5, 1.0e5)};
  decisions[1] = {2, metrics(200.0, 0.0, 0.5, 2.0e5)};

  const auto mttf = per_pe_mttf(a, arch, decisions);
  ASSERT_EQ(mttf.size(), arch.num_pes());
  EXPECT_NEAR(mttf[0], 1.0e4 / (100.0 / 1.0e5), 1e-6);
  EXPECT_NEAR(mttf[2], 1.0e4 / (200.0 / 2.0e5), 1e-6);
  EXPECT_TRUE(std::isinf(mttf[1]));  // idle PE
}

TEST(MissionReliabilityTest, BoundsAndMonotonicity) {
  const app::Application a = two_task_app();
  const platform::Architecture arch = platform::Architecture::paper_default();
  std::vector<TaskDecision> decisions(2);
  decisions[0] = {0, metrics(100.0, 0.0, 0.5, 1.0e5)};
  decisions[1] = {1, metrics(100.0, 0.0, 0.5, 1.0e5)};

  EXPECT_DOUBLE_EQ(mission_reliability(a, arch, decisions, 0.0), 1.0);
  double prev = 1.0;
  for (double t : {1.0e5, 1.0e6, 1.0e7, 1.0e8}) {
    const double r = mission_reliability(a, arch, decisions, t);
    EXPECT_LT(r, prev);
    EXPECT_GE(r, 0.0);
    prev = r;
  }
  EXPECT_THROW(mission_reliability(a, arch, decisions, -1.0),
               std::invalid_argument);
}

TEST(MissionReliabilityTest, SpreadingLoadImprovesSurvival) {
  const app::Application a = two_task_app();
  const platform::Architecture arch = platform::Architecture::paper_default();
  std::vector<TaskDecision> spread(2);
  spread[0] = {0, metrics(100.0, 0.0, 0.5, 1.0e5)};
  spread[1] = {1, metrics(100.0, 0.0, 0.5, 1.0e5)};
  std::vector<TaskDecision> stacked = spread;
  stacked[1].pe = 0;

  const double mission = 2.0e6;
  EXPECT_GT(mission_reliability(a, arch, spread, mission),
            mission_reliability(a, arch, stacked, mission));
}

TEST(MissionReliabilityTest, AtSinglePeMttfMatchesWeibullSurvival) {
  // One loaded PE: R_sys(t) must equal that PE's Weibull survival directly.
  const app::Application a = two_task_app();
  const platform::Architecture arch = platform::Architecture::paper_default();
  std::vector<TaskDecision> decisions(2);
  decisions[0] = {0, metrics(100.0, 0.0, 0.5, 1.0e5)};
  decisions[1] = {0, metrics(100.0, 0.0, 0.5, 1.0e5)};

  const auto mttf = per_pe_mttf(a, arch, decisions);
  const double beta = arch.type_of(0).weibull_beta;
  const double eta = mttf[0] / std::tgamma(1.0 + 1.0 / beta);
  const double t = mttf[0];  // evaluate at the MTTF itself
  const double expected = reliability::Weibull(eta, beta).reliability(t);
  EXPECT_NEAR(mission_reliability(a, arch, decisions, t), expected, 1e-12);
}

// --- QosSpec -----------------------------------------------------------------

QosMetrics sample_metrics() {
  QosMetrics m;
  m.makespan_us = 1000.0;
  m.functional_rel = 0.95;
  m.error_prob = 0.05;
  m.mttf_hours = 5.0e4;
  m.peak_power_w = 2.0;
  m.energy_uj = 500.0;
  return m;
}

TEST(QosSpecTest, EmptySpecAlwaysFeasible) {
  EXPECT_TRUE(QosSpec{}.feasible(sample_metrics()));
  EXPECT_EQ(QosSpec{}.violation(sample_metrics()), 0.0);
}

TEST(QosSpecTest, UpperLimitsDetectOvershoot) {
  QosSpec spec;
  spec.max_makespan_us = 800.0;
  EXPECT_FALSE(spec.feasible(sample_metrics()));
  EXPECT_NEAR(spec.violation(sample_metrics()), 200.0 / 800.0, 1e-12);
  spec.max_makespan_us = 1000.0;
  EXPECT_TRUE(spec.feasible(sample_metrics()));
}

TEST(QosSpecTest, LowerLimitsDetectShortfall) {
  QosSpec spec;
  spec.min_functional_rel = 0.99;
  EXPECT_FALSE(spec.feasible(sample_metrics()));
  EXPECT_NEAR(spec.violation(sample_metrics()), 0.04 / 0.99, 1e-12);

  QosSpec mttf_spec;
  mttf_spec.min_mttf_hours = 1.0e5;
  EXPECT_FALSE(mttf_spec.feasible(sample_metrics()));
}

TEST(QosSpecTest, ViolationsAccumulateAcrossConstraints) {
  QosSpec spec;
  spec.max_makespan_us = 500.0;     // violated by 1.0
  spec.max_peak_power_w = 1.0;      // violated by 1.0
  spec.max_energy_uj = 1000.0;      // satisfied
  EXPECT_NEAR(spec.violation(sample_metrics()), 2.0, 1e-12);
}

TEST(QosSpecTest, NanMetricViolatesItsLimit) {
  QosSpec spec;
  spec.max_makespan_us = 2000.0;
  spec.min_functional_rel = 0.9;
  spec.max_energy_uj = 1000.0;
  ASSERT_TRUE(spec.feasible(sample_metrics()));

  QosMetrics makespan = sample_metrics();
  makespan.makespan_us = std::nan("");
  QosMetrics reliability = sample_metrics();
  reliability.functional_rel = std::nan("");
  QosMetrics energy = sample_metrics();
  energy.energy_uj = std::nan("");
  for (const QosMetrics& m : {makespan, reliability, energy}) {
    EXPECT_FALSE(spec.feasible(m));
    EXPECT_GT(spec.violation(m), 0.0);
  }
  // A NaN metric without a limit on it is not checked.
  EXPECT_TRUE(QosSpec{}.feasible(makespan));
}

TEST(QosSpecTest, AllSatisfiedGivesZero) {
  QosSpec spec;
  spec.max_makespan_us = 2000.0;
  spec.min_functional_rel = 0.9;
  spec.min_mttf_hours = 1.0e4;
  spec.max_energy_uj = 1000.0;
  spec.max_peak_power_w = 5.0;
  EXPECT_TRUE(spec.feasible(sample_metrics()));
}

}  // namespace
}  // namespace clrearly::sched
