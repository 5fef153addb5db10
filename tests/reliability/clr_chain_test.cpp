#include "reliability/clr_chain_builder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "oracle/clr_chain_reference.hpp"

namespace clrearly::reliability {
namespace {

ClrChainParams base_params() {
  ClrChainParams p;
  p.exec_time_us = 1000.0;
  p.lambda_per_us = 2.0e-4;  // pne ~ 0.82 over the full task
  return p;
}

// --- Validation ---------------------------------------------------------------

TEST(ClrChainParamsTest, ValidatesRanges) {
  {
    ClrChainParams p = base_params();
    p.exec_time_us = 0.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    ClrChainParams p = base_params();
    p.lambda_per_us = -1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    ClrChainParams p = base_params();
    p.intervals = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    ClrChainParams p = base_params();
    p.hw_masking = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    ClrChainParams p = base_params();
    p.detection_time_us = -1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

TEST(ClrChainParamsTest, PnePerInterval) {
  ClrChainParams p = base_params();
  EXPECT_NEAR(p.pne_for_interval(0), std::exp(-0.2), 1e-12);
  p.intervals = 4;
  EXPECT_NEAR(p.pne_for_interval(0), std::exp(-0.05), 1e-12);
}

// --- Unprotected task: closed forms -------------------------------------------

TEST(ClrChainTest, UnprotectedTimingEqualsExecTime) {
  // With no detection/tolerance, execution time never changes: errors fly
  // through the (inactive) mitigation states with zero residence.
  const ClrChainParams p = base_params();
  const ClrChainAnalysis a = analyze_clr_chain(p);
  EXPECT_NEAR(a.avg_exec_time_us, 1000.0, 1e-9);
  EXPECT_NEAR(a.min_exec_time_us, 1000.0, 1e-9);
  EXPECT_NEAR(a.exec_time_stddev_us, 0.0, 1e-6);
}

TEST(ClrChainTest, UnprotectedErrorProbIsOneMinusPne) {
  const ClrChainParams p = base_params();
  const ClrChainAnalysis a = analyze_clr_chain(p);
  EXPECT_NEAR(a.error_prob, 1.0 - std::exp(-0.2), 1e-12);
}

TEST(ClrChainTest, PureMaskingStacksMultiplicatively) {
  ClrChainParams p = base_params();
  p.hw_masking = 0.7;
  p.implicit_ssw_masking = 0.1;
  p.asw_masking = 0.6;
  const ClrChainAnalysis a = analyze_clr_chain(p);
  const double q = (1.0 - std::exp(-0.2)) * 0.3 * 0.9;
  // Undetected (cov=0) errors hit the ASW stage; 40% escape.
  EXPECT_NEAR(a.error_prob, q * 0.4, 1e-12);
  // Masking never changes the timing.
  EXPECT_NEAR(a.avg_exec_time_us, 1000.0, 1e-9);
}

// --- Retry (1 interval, rollback to start): closed forms -----------------------

TEST(ClrChainTest, PerfectRetryMatchesGeometricTime) {
  ClrChainParams p = base_params();
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  p.detection_time_us = 20.0;
  p.tolerance_time_us = 50.0;
  const double pne = std::exp(-0.2);

  const ClrChainAnalysis a = analyze_clr_chain(p);
  // T = (t + tDet) + (1-pne)(tTol + T)  =>  T = (t + tDet + (1-pne) tTol)/pne
  const double expected = (1000.0 + 20.0 + (1.0 - pne) * 50.0) / pne;
  EXPECT_NEAR(a.avg_exec_time_us, expected, 1e-9);
  // Perfect detection + tolerance leaves no uncorrected errors.
  EXPECT_NEAR(a.error_prob, 0.0, 1e-12);
  EXPECT_NEAR(a.min_exec_time_us, 1020.0, 1e-9);
}

TEST(ClrChainTest, ImperfectRetryErrorClosedForm) {
  ClrChainParams p = base_params();
  p.detection_coverage = 0.9;
  p.tolerance_success = 0.95;
  p.asw_masking = 0.5;
  const double pne = std::exp(-0.2);
  const double q = 1.0 - pne;  // unmasked error mass per pass (no HW/impl mask)

  // Per pass: escape to ASW = q*(1-cov) + q*cov*(1-mTol); retry = q*cov*mTol.
  const double escape = q * (0.1 + 0.9 * 0.05);
  const double retry = q * 0.9 * 0.95;
  const double expected_error = escape * 0.5 / (1.0 - retry);

  const ClrChainAnalysis a = analyze_clr_chain(p);
  EXPECT_NEAR(a.error_prob, expected_error, 1e-12);
}

// --- Checkpointing -------------------------------------------------------------

TEST(ClrChainTest, CheckpointMinTimeIncludesOverheads) {
  ClrChainParams p = base_params();
  p.intervals = 3;
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  p.detection_time_us = 10.0;
  p.checkpoint_time_us = 25.0;
  const ClrChainAnalysis a = analyze_clr_chain(p);
  // 3 detection passes + 2 checkpoints on the error-free path.
  EXPECT_NEAR(a.min_exec_time_us, 1000.0 + 3 * 10.0 + 2 * 25.0, 1e-9);
  EXPECT_GT(a.avg_exec_time_us, a.min_exec_time_us);
}

TEST(ClrChainTest, CheckpointingBeatsRetryAtHighFaultRates) {
  // With expensive re-execution (high lambda), losing only one interval per
  // error beats re-running the whole task.
  ClrChainParams retry = base_params();
  retry.lambda_per_us = 2.0e-3;  // pne ~ 0.135 for the whole task
  retry.detection_coverage = 1.0;
  retry.tolerance_success = 1.0;

  ClrChainParams chk = retry;
  chk.intervals = 4;

  const double t_retry = analyze_clr_chain(retry).avg_exec_time_us;
  const double t_chk = analyze_clr_chain(chk).avg_exec_time_us;
  EXPECT_LT(t_chk, t_retry);
}

TEST(ClrChainTest, PerIntervalRetryClosedFormWithCheckpoints) {
  // Perfect detection/tolerance, free overheads: each interval is an
  // independent geometric with pne_i; total = n * (t/n) / pne_i.
  ClrChainParams p = base_params();
  p.intervals = 4;
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  const double pne_i = std::exp(-0.05);
  const ClrChainAnalysis a = analyze_clr_chain(p);
  EXPECT_NEAR(a.avg_exec_time_us, 4.0 * 250.0 / pne_i, 1e-9);
  EXPECT_NEAR(a.error_prob, 0.0, 1e-12);
}

TEST(ClrChainTest, CheckpointErrorPathFeedsErrorState) {
  ClrChainParams p = base_params();
  p.intervals = 2;
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  p.checkpoint_error_prob = 0.0;
  const double clean = analyze_clr_chain(p).error_prob;
  EXPECT_NEAR(clean, 0.0, 1e-12);

  p.checkpoint_error_prob = 0.3;
  const double with_chk_err = analyze_clr_chain(p).error_prob;
  // Exactly the probability of reaching the (single) checkpoint times 0.3 —
  // and the checkpoint is always reached under perfect tolerance.
  EXPECT_NEAR(with_chk_err, 0.3, 1e-12);
}

// --- Monotonicity properties ----------------------------------------------------

class MaskingSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(MaskingSweepTest, MoreImplicitMaskingLowersErrorProb) {
  ClrChainParams lo = base_params();
  ClrChainParams hi = base_params();
  lo.implicit_ssw_masking = GetParam();
  hi.implicit_ssw_masking = GetParam() + 0.2;
  EXPECT_GT(analyze_clr_chain(lo).error_prob,
            analyze_clr_chain(hi).error_prob);
}

INSTANTIATE_TEST_SUITE_P(Masks, MaskingSweepTest,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.4, 0.6));

TEST(ClrChainTest, HigherLambdaRaisesErrorAndTime) {
  ClrChainParams p = base_params();
  p.detection_coverage = 0.9;
  p.tolerance_success = 0.9;
  p.tolerance_time_us = 30.0;
  double prev_err = -1.0, prev_time = 0.0;
  for (double lambda : {1e-5, 1e-4, 5e-4, 2e-3}) {
    p.lambda_per_us = lambda;
    const ClrChainAnalysis a = analyze_clr_chain(p);
    EXPECT_GT(a.error_prob, prev_err);
    EXPECT_GT(a.avg_exec_time_us, prev_time);
    prev_err = a.error_prob;
    prev_time = a.avg_exec_time_us;
  }
}

TEST(ClrChainTest, ZeroLambdaIsPerfect) {
  ClrChainParams p = base_params();
  p.lambda_per_us = 0.0;
  p.detection_coverage = 0.9;
  p.tolerance_success = 0.9;
  const ClrChainAnalysis a = analyze_clr_chain(p);
  EXPECT_DOUBLE_EQ(a.error_prob, 0.0);
  EXPECT_NEAR(a.avg_exec_time_us, a.min_exec_time_us, 1e-9);
}

// --- Structural checks ------------------------------------------------------------

TEST(ClrChainTest, ChainShapesMatchFig3) {
  ClrChainParams p = base_params();
  p.intervals = 2;
  const oracle::AbsorbingChain timing =
      oracle::build_chain_reference(p, /*functional=*/false);
  const oracle::AbsorbingChain functional =
      oracle::build_chain_reference(p, /*functional=*/true);
  // Per interval: Exec, HWRel, SSWImpl, SSWDet, SSWTol, ASWRel (6) plus one
  // Chkpnt between the two intervals.
  EXPECT_EQ(timing.num_transient(), 13u);
  EXPECT_EQ(timing.num_absorbing(), 1u);
  EXPECT_EQ(functional.num_transient(), 13u);
  EXPECT_EQ(functional.num_absorbing(), 2u);
}

TEST(ClrChainTest, FunctionalAbsorptionProbabilitiesSumToOne) {
  ClrChainParams p = base_params();
  p.detection_coverage = 0.8;
  p.tolerance_success = 0.7;
  p.asw_masking = 0.5;
  p.intervals = 3;
  const oracle::AbsorbingChain chain =
      oracle::build_chain_reference(p, /*functional=*/true);
  const double err = chain.absorption_probability(0, kAbsorbError);
  const double ok = chain.absorption_probability(0, kAbsorbNoError);
  EXPECT_NEAR(err + ok, 1.0, 1e-12);
}

TEST(ClrChainTest, NonAbsorbingConfigurationRejected) {
  // pne underflows to zero and tolerance always retries: the task can never
  // finish, which the chain constructor must detect as a singular I - Q.
  ClrChainParams p = base_params();
  p.lambda_per_us = 10.0;  // pne = exp(-10000) == 0 in double precision
  p.detection_coverage = 1.0;
  p.tolerance_success = 1.0;
  EXPECT_THROW(analyze_clr_chain(p), std::domain_error);
}

// --- Monte-Carlo cross-validation -------------------------------------------------

struct SimCase {
  double lambda;
  double cov;
  double tol;
  double asw;
  std::size_t intervals;
};

class ClrChainSimTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(ClrChainSimTest, AnalyticalMatchesSimulation) {
  const SimCase c = GetParam();
  ClrChainParams p = base_params();
  p.lambda_per_us = c.lambda;
  p.detection_coverage = c.cov;
  p.tolerance_success = c.tol;
  p.asw_masking = c.asw;
  p.intervals = c.intervals;
  p.detection_time_us = 10.0;
  p.tolerance_time_us = 40.0;
  p.checkpoint_time_us = 20.0;

  const ClrChainAnalysis analytic = analyze_clr_chain(p);

  const oracle::AbsorbingChain timing =
      oracle::build_chain_reference(p, /*functional=*/false);
  const auto sim_t = oracle::simulate(timing, 0, 60000, 11);
  EXPECT_NEAR(sim_t.mean_time / analytic.avg_exec_time_us, 1.0, 0.01);

  const oracle::AbsorbingChain functional =
      oracle::build_chain_reference(p, /*functional=*/true);
  const auto sim_f = oracle::simulate(functional, 0, 60000, 13);
  EXPECT_NEAR(sim_f.absorption_frequency[kAbsorbError], analytic.error_prob,
              0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ClrChainSimTest,
    ::testing::Values(SimCase{2e-4, 0.0, 0.0, 0.0, 1},
                      SimCase{2e-4, 0.9, 0.9, 0.0, 1},
                      SimCase{5e-4, 0.95, 0.98, 0.5, 3},
                      SimCase{1e-3, 0.8, 0.9, 0.8, 4},
                      SimCase{1e-4, 1.0, 0.5, 0.2, 2}));

}  // namespace
}  // namespace clrearly::reliability
