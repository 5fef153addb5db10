// Cross-validation of the analytical Markov models against the semantic
// fault-injection simulator — two independent implementations of the same
// process must agree on timing and functional reliability — plus the
// single-trial TaskSampler that inject_faults() aggregates and the schedule
// simulator draws from.
#include "reliability/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <ostream>
#include <stdexcept>

#include "util/rng.hpp"

namespace clrearly::reliability {
namespace {

ClrChainParams base_params() {
  ClrChainParams p;
  p.exec_time_us = 1000.0;
  p.lambda_per_us = 3.0e-4;
  return p;
}

TEST(FaultInjectionTest, Validation) {
  EXPECT_THROW(inject_faults(base_params(), 0, 1), std::invalid_argument);
  ClrChainParams bad = base_params();
  bad.exec_time_us = 0.0;
  EXPECT_THROW(inject_faults(bad, 100, 1), std::invalid_argument);
}

TEST(FaultInjectionTest, DeterministicPerSeed) {
  const auto a = inject_faults(base_params(), 2000, 7);
  const auto b = inject_faults(base_params(), 2000, 7);
  EXPECT_EQ(a.mean_exec_time_us, b.mean_exec_time_us);
  EXPECT_EQ(a.error_rate, b.error_rate);
  const auto c = inject_faults(base_params(), 2000, 8);
  EXPECT_NE(a.error_rate, c.error_rate);
}

TEST(FaultInjectionTest, NoFaultsMeansExactTimeAndNoErrors) {
  ClrChainParams p = base_params();
  p.lambda_per_us = 0.0;
  p.intervals = 3;
  p.detection_time_us = 10.0;
  p.checkpoint_time_us = 20.0;
  const auto sim = inject_faults(p, 500, 1);
  EXPECT_DOUBLE_EQ(sim.error_rate, 0.0);
  EXPECT_DOUBLE_EQ(sim.mean_faults_injected, 0.0);
  EXPECT_NEAR(sim.mean_exec_time_us, 1000.0 + 3 * 10.0 + 2 * 20.0, 1e-9);
}

TEST(FaultInjectionTest, RollbacksOnlyWithTolerance) {
  ClrChainParams unprotected = base_params();
  const auto a = inject_faults(unprotected, 5000, 2);
  EXPECT_DOUBLE_EQ(a.mean_rollbacks, 0.0);
  EXPECT_GT(a.mean_faults_injected, 0.0);

  ClrChainParams tolerant = base_params();
  tolerant.detection_coverage = 1.0;
  tolerant.tolerance_success = 1.0;
  const auto b = inject_faults(tolerant, 5000, 2);
  EXPECT_GT(b.mean_rollbacks, 0.0);
  EXPECT_DOUBLE_EQ(b.error_rate, 0.0);
}

// --- Agreement with the analytical chains across configurations -------------------

struct InjectionCase {
  const char* label;
  double lambda;
  double hw;
  double impl_ssw;
  double cov;
  double tol;
  double asw;
  std::size_t intervals;
  double chk_err;
};

// ctest names embed the printed parameter. gtest's default byte dump would
// include the label pointer, which address-space randomisation changes from
// run to run, so print the label instead to keep the names stable.
void PrintTo(const InjectionCase& c, std::ostream* os) { *os << c.label; }

class InjectionAgreementTest
    : public ::testing::TestWithParam<InjectionCase> {};

TEST_P(InjectionAgreementTest, MatchesAnalyticalModel) {
  const InjectionCase c = GetParam();
  ClrChainParams p;
  p.exec_time_us = 800.0;
  p.lambda_per_us = c.lambda;
  p.hw_masking = c.hw;
  p.implicit_ssw_masking = c.impl_ssw;
  p.detection_coverage = c.cov;
  p.tolerance_success = c.tol;
  p.asw_masking = c.asw;
  p.intervals = c.intervals;
  p.detection_time_us = 8.0;
  p.tolerance_time_us = 25.0;
  p.checkpoint_time_us = 15.0;
  p.checkpoint_error_prob = c.chk_err;

  const ClrChainAnalysis analytic = analyze_clr_chain(p);
  const InjectionResult sim = inject_faults(p, 150000, 42);

  EXPECT_NEAR(sim.mean_exec_time_us / analytic.avg_exec_time_us, 1.0, 0.01)
      << c.label;
  EXPECT_NEAR(sim.error_rate, analytic.error_prob, 0.004) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, InjectionAgreementTest,
    ::testing::Values(
        InjectionCase{"unprotected", 3e-4, 0, 0, 0, 0, 0, 1, 0},
        InjectionCase{"hw_only", 3e-4, 0.72, 0, 0, 0, 0, 1, 0},
        InjectionCase{"retry", 3e-4, 0, 0, 0.9, 0.95, 0, 1, 0},
        InjectionCase{"asw_only", 3e-4, 0, 0, 0, 0, 0.94, 1, 0},
        InjectionCase{"full_stack", 5e-4, 0.72, 0.1, 0.92, 0.98, 0.6, 3, 0},
        InjectionCase{"chk_err", 3e-4, 0, 0, 1.0, 1.0, 0, 2, 0.2},
        InjectionCase{"high_flux", 2e-3, 0.4, 0.05, 0.9, 0.9, 0.8, 4, 0},
        InjectionCase{"implicit_masking", 3e-4, 0, 0.2, 0, 0, 0, 1, 0}),
    [](const auto& info) { return info.param.label; });

// --- Unequal intervals agree too ----------------------------------------------------

TEST(FaultInjectionTest, UnequalIntervalsMatchAnalytical) {
  ClrChainParams p = base_params();
  p.lambda_per_us = 8e-4;
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  p.intervals = 3;
  p.interval_fractions = {0.5, 0.3, 0.2};
  p.checkpoint_time_us = 10.0;

  const ClrChainAnalysis analytic = analyze_clr_chain(p);
  const InjectionResult sim = inject_faults(p, 100000, 11);
  EXPECT_NEAR(sim.mean_exec_time_us / analytic.avg_exec_time_us, 1.0, 0.01);
  EXPECT_NEAR(sim.error_rate, analytic.error_prob, 0.003);
}

// --- TaskSampler: one draw of the same process -------------------------------

ClrChainParams sampler_params() {
  ClrChainParams p;
  p.exec_time_us = 100.0;
  p.lambda_per_us = 2e-3;
  p.hw_masking = 0.2;
  p.implicit_ssw_masking = 0.1;
  p.detection_coverage = 0.9;
  p.tolerance_success = 0.95;
  p.asw_masking = 0.3;
  p.intervals = 4;
  p.detection_time_us = 1.5;
  p.tolerance_time_us = 4.0;
  p.checkpoint_time_us = 2.0;
  p.checkpoint_error_prob = 1e-4;
  return p;
}

TEST(TaskSamplerTest, ValidatesParamsAtConstruction) {
  ClrChainParams bad = sampler_params();
  bad.exec_time_us = -1.0;
  EXPECT_THROW(TaskSampler sampler(bad), std::invalid_argument);

  bad = sampler_params();
  bad.detection_coverage = 1.5;
  EXPECT_THROW(TaskSampler sampler(bad), std::invalid_argument);

  bad = sampler_params();
  bad.intervals = 0;
  EXPECT_THROW(TaskSampler sampler(bad), std::invalid_argument);
}

TEST(TaskSamplerTest, FaultFreeProcessIsDeterministic) {
  // lambda = 0: every trial is the clean path — exec time plus one
  // detection pass per interval plus the inter-interval checkpoints.
  ClrChainParams p = sampler_params();
  p.lambda_per_us = 0.0;
  p.checkpoint_error_prob = 0.0;
  const TaskSampler sampler(p);

  const double expected =
      p.exec_time_us + 4 * p.detection_time_us + 3 * p.checkpoint_time_us;
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const TaskTrial trial = sampler.sample(rng);
    EXPECT_DOUBLE_EQ(trial.exec_time_us, expected);
    EXPECT_FALSE(trial.corrupted);
    EXPECT_EQ(trial.faults, 0u);
    EXPECT_EQ(trial.rollbacks, 0u);
  }
}

TEST(TaskSamplerTest, DeterministicForSameRngState) {
  const TaskSampler sampler(sampler_params());
  util::Rng a(99), b(99);
  for (int i = 0; i < 200; ++i) {
    const TaskTrial ta = sampler.sample(a);
    const TaskTrial tb = sampler.sample(b);
    EXPECT_DOUBLE_EQ(ta.exec_time_us, tb.exec_time_us);
    EXPECT_EQ(ta.corrupted, tb.corrupted);
    EXPECT_EQ(ta.faults, tb.faults);
    EXPECT_EQ(ta.rollbacks, tb.rollbacks);
  }
}

TEST(TaskSamplerTest, AggregateMatchesAnalyticChains) {
  // The analytic Fig. 3 solution: mean time and error probability of many
  // samples within Monte Carlo tolerance.
  const ClrChainParams p = sampler_params();
  const ClrChainAnalysis chain = analyze_clr_chain(p);

  const TaskSampler sampler(p);
  util::Rng rng(7);
  const std::size_t trials = 60000;
  double total_time = 0.0, errors = 0.0;
  for (std::size_t i = 0; i < trials; ++i) {
    const TaskTrial trial = sampler.sample(rng);
    total_time += trial.exec_time_us;
    if (trial.corrupted) errors += 1.0;
  }
  const double n = static_cast<double>(trials);
  EXPECT_NEAR(total_time / n, chain.avg_exec_time_us,
              0.02 * chain.avg_exec_time_us);
  EXPECT_NEAR(errors / n, chain.error_prob, 0.005);
}

TEST(TaskSamplerTest, RollbacksExtendTimeButPreventCorruption) {
  // Perfect detection + tolerance: errors only escape through checkpoint
  // corruption (disabled here); a high fault rate must show up as rollbacks
  // and longer runs instead.
  ClrChainParams p = sampler_params();
  p.lambda_per_us = 0.05;  // ~5 faults per interval pass
  p.hw_masking = 0.0;
  p.implicit_ssw_masking = 0.0;
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  p.checkpoint_error_prob = 0.0;
  const TaskSampler sampler(p);

  util::Rng rng(3);
  std::size_t rollbacks = 0;
  const double clean_time =
      p.exec_time_us + 4 * p.detection_time_us + 3 * p.checkpoint_time_us;
  double total_time = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const TaskTrial trial = sampler.sample(rng);
    EXPECT_FALSE(trial.corrupted);
    rollbacks += trial.rollbacks;
    total_time += trial.exec_time_us;
  }
  EXPECT_GT(rollbacks, 0u);
  EXPECT_GT(total_time / 2000.0, clean_time);
}

TEST(TaskSamplerTest, ExposesValidatedParams) {
  const ClrChainParams p = sampler_params();
  const TaskSampler sampler(p);
  EXPECT_DOUBLE_EQ(sampler.params().exec_time_us, p.exec_time_us);
  EXPECT_EQ(sampler.params().intervals, p.intervals);
}

}  // namespace
}  // namespace clrearly::reliability
