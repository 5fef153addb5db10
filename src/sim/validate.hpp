// Side-by-side comparison of analytic QosMetrics against simulated
// SimResults for a set of design points, with explicit agreement criteria —
// the report the `clrearly simulate` subcommand emits and the flow-front
// agreement test (tests/sim/sim_agreement_test.cpp) gates on.
//
// Agreement criteria (rationale in docs/SIMULATION.md):
//  * Makespan — |sim mean - analytic mean| <= sim CI half-width +
//    kJensenSigmaFactor * analytic makespan stddev. The analytic makespan is
//    a list schedule of per-task *means*; at every parallel merge the
//    simulated mean sits above it by Jensen's inequality (E[max] >= max E),
//    an offset of order the execution-time spread. The sigma term is that
//    documented first-order model tolerance; the CI half-width covers the
//    Monte Carlo noise on top.
//  * Error probability — the analytic value must fall inside the simulator's
//    Wilson interval widened by kErrorProbSlack. The weighted per-trial
//    estimator is exactly unbiased for the analytic value, so this is a
//    plain coverage check; the slack absorbs the (conservative) use of a
//    binomial interval for a sub-binomial weighted sum.
#pragma once

#include <string>
#include <vector>

#include "sched/qos.hpp"
#include "sim/schedule_sim.hpp"

namespace clrearly::sim {

/// Model tolerance for the Jensen bias of the analytic makespan, in units of
/// the analytic makespan stddev.
inline constexpr double kJensenSigmaFactor = 1.0;

/// Absolute widening of the Wilson interval in the error-probability check.
inline constexpr double kErrorProbSlack = 5e-4;

struct ValidationRow {
  std::string label;
  sched::QosMetrics analytic;
  SimResult simulated;

  double makespan_delta_us = 0.0;      ///< sim mean - analytic mean
  double makespan_tolerance_us = 0.0;  ///< CI half-width + Jensen term
  bool makespan_agrees = false;

  double error_delta = 0.0;  ///< sim estimate - analytic value
  bool error_agrees = false;

  /// Analytic P[makespan > deadline] (normal approximation) next to the
  /// simulated miss rate; 0 when the simulation ran without a deadline.
  double analytic_deadline_miss = 0.0;

  bool agrees() const noexcept { return makespan_agrees && error_agrees; }
};

/// Score one design point. Applies the agreement criteria above and, when
/// `simulated` carries a deadline, the analytic miss probability.
ValidationRow compare_design_point(std::string label,
                                   const sched::QosMetrics& analytic,
                                   const SimResult& simulated);

struct ValidationReport {
  std::vector<ValidationRow> rows;

  /// Fractions of rows passing each criterion (1.0 for an empty report).
  double makespan_agreement() const noexcept;
  double error_agreement() const noexcept;
  double agreement() const noexcept;  ///< both criteria
};

/// One CSV row per design point (analytic vs simulated values, deltas,
/// agreement flags). Throws std::runtime_error when `path` cannot be opened.
void write_validation_csv(const std::string& path,
                          const ValidationReport& report);

}  // namespace clrearly::sim
