#include "sim/validate.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace clrearly::sim {
namespace {

sched::QosMetrics make_analytic() {
  sched::QosMetrics m;
  m.makespan_us = 100.0;
  m.makespan_stddev_us = 5.0;
  m.error_prob = 0.010;
  m.energy_uj = 250.0;
  return m;
}

SimResult make_simulated() {
  SimResult r;
  r.trials = 10000;
  r.makespan_mean_us = 103.0;
  r.makespan_stddev_us = 5.2;
  r.makespan_ci_us = {102.0, 104.0};  // half-width 1 -> tolerance 1 + 5 = 6
  r.error_prob = 0.011;
  r.error_ci = {0.009, 0.013};
  r.energy_mean_uj = 251.0;
  r.energy_ci_uj = {249.0, 253.0};
  return r;
}

TEST(CompareDesignPointTest, AgreeingPoint) {
  const ValidationRow row =
      compare_design_point("p0", make_analytic(), make_simulated());
  EXPECT_EQ(row.label, "p0");
  EXPECT_DOUBLE_EQ(row.makespan_delta_us, 3.0);
  EXPECT_DOUBLE_EQ(row.makespan_tolerance_us,
                   1.0 + kJensenSigmaFactor * 5.0);
  EXPECT_TRUE(row.makespan_agrees);
  EXPECT_DOUBLE_EQ(row.error_delta, 0.001);
  EXPECT_TRUE(row.error_agrees);
  EXPECT_TRUE(row.agrees());
  EXPECT_DOUBLE_EQ(row.analytic_deadline_miss, 0.0);  // no deadline simulated
}

TEST(CompareDesignPointTest, MakespanBeyondToleranceFails) {
  SimResult sim = make_simulated();
  sim.makespan_mean_us = 107.0;  // delta 7 > tolerance 6
  sim.makespan_ci_us = {106.0, 108.0};
  const ValidationRow row =
      compare_design_point("p1", make_analytic(), sim);
  EXPECT_FALSE(row.makespan_agrees);
  EXPECT_TRUE(row.error_agrees);
  EXPECT_FALSE(row.agrees());
}

TEST(CompareDesignPointTest, ErrorOutsideWidenedWilsonFails) {
  SimResult sim = make_simulated();
  sim.error_ci = {0.02, 0.03};  // analytic 0.01 < 0.02 - kErrorProbSlack
  const ValidationRow row =
      compare_design_point("p2", make_analytic(), sim);
  EXPECT_TRUE(row.makespan_agrees);
  EXPECT_FALSE(row.error_agrees);
  EXPECT_FALSE(row.agrees());
}

TEST(CompareDesignPointTest, SlackRescuesBoundaryError) {
  // Analytic value just outside the raw interval but inside the slack.
  SimResult sim = make_simulated();
  sim.error_ci = {0.0102, 0.013};
  const ValidationRow row =
      compare_design_point("p3", make_analytic(), sim);
  EXPECT_TRUE(row.error_agrees);
}

TEST(CompareDesignPointTest, DeadlineTriggersAnalyticMissProbability) {
  SimResult sim = make_simulated();
  sim.deadline_us = 100.0;  // at the analytic mean -> miss prob 0.5
  const ValidationRow row =
      compare_design_point("p4", make_analytic(), sim);
  EXPECT_NEAR(row.analytic_deadline_miss, 0.5, 1e-9);
}

ValidationReport make_report() {
  ValidationReport report;
  report.rows.push_back(
      compare_design_point("good", make_analytic(), make_simulated()));
  SimResult bad_makespan = make_simulated();
  bad_makespan.makespan_mean_us = 120.0;
  bad_makespan.makespan_ci_us = {119.0, 121.0};
  report.rows.push_back(
      compare_design_point("bad-makespan", make_analytic(), bad_makespan));
  SimResult bad_error = make_simulated();
  bad_error.error_ci = {0.05, 0.06};
  report.rows.push_back(
      compare_design_point("bad-error", make_analytic(), bad_error));
  SimResult bad_both = bad_makespan;
  bad_both.error_ci = {0.05, 0.06};
  report.rows.push_back(
      compare_design_point("bad-both", make_analytic(), bad_both));
  return report;
}

TEST(ValidationReportTest, AgreementFractions) {
  const ValidationReport report = make_report();
  EXPECT_DOUBLE_EQ(report.makespan_agreement(), 0.5);  // good + bad-error
  EXPECT_DOUBLE_EQ(report.error_agreement(), 0.5);     // good + bad-makespan
  EXPECT_DOUBLE_EQ(report.agreement(), 0.25);          // only good
}

TEST(ValidationReportTest, EmptyReportIsVacuouslyAgreeing) {
  const ValidationReport report;
  EXPECT_DOUBLE_EQ(report.makespan_agreement(), 1.0);
  EXPECT_DOUBLE_EQ(report.error_agreement(), 1.0);
  EXPECT_DOUBLE_EQ(report.agreement(), 1.0);
}

TEST(ValidationReportTest, CsvHasHeaderAndOneRowPerPoint) {
  const ValidationReport report = make_report();
  const std::string path = ::testing::TempDir() + "sim_validation_test.csv";
  write_validation_csv(path, report);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("label"), std::string::npos);
  EXPECT_NE(line.find("makespan_agrees"), std::string::npos);
  EXPECT_NE(line.find("sim_error_ci_hi"), std::string::npos);
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, report.rows.size());

  EXPECT_THROW(write_validation_csv("/nonexistent-dir/out.csv", report),
               std::runtime_error);
}

}  // namespace
}  // namespace clrearly::sim
