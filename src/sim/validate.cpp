#include "sim/validate.hpp"

#include <cmath>
#include <utility>

#include "util/csv.hpp"

namespace clrearly::sim {

ValidationRow compare_design_point(std::string label,
                                   const sched::QosMetrics& analytic,
                                   const SimResult& simulated) {
  ValidationRow row;
  row.label = std::move(label);
  row.analytic = analytic;
  row.simulated = simulated;

  row.makespan_delta_us = simulated.makespan_mean_us - analytic.makespan_us;
  row.makespan_tolerance_us =
      simulated.makespan_ci_us.half_width() +
      kJensenSigmaFactor * analytic.makespan_stddev_us;
  row.makespan_agrees =
      std::abs(row.makespan_delta_us) <= row.makespan_tolerance_us;

  row.error_delta = simulated.error_prob - analytic.error_prob;
  row.error_agrees =
      analytic.error_prob >= simulated.error_ci.lo - kErrorProbSlack &&
      analytic.error_prob <= simulated.error_ci.hi + kErrorProbSlack;

  if (simulated.deadline_us > 0.0) {
    row.analytic_deadline_miss =
        sched::deadline_miss_probability(analytic, simulated.deadline_us);
  }
  return row;
}

namespace {

double fraction(const ValidationReport& report,
                bool ValidationRow::* flag) noexcept {
  if (report.rows.empty()) return 1.0;
  std::size_t passing = 0;
  for (const ValidationRow& row : report.rows) {
    if (row.*flag) ++passing;
  }
  return static_cast<double>(passing) /
         static_cast<double>(report.rows.size());
}

}  // namespace

double ValidationReport::makespan_agreement() const noexcept {
  return fraction(*this, &ValidationRow::makespan_agrees);
}

double ValidationReport::error_agreement() const noexcept {
  return fraction(*this, &ValidationRow::error_agrees);
}

double ValidationReport::agreement() const noexcept {
  if (rows.empty()) return 1.0;
  std::size_t passing = 0;
  for (const ValidationRow& row : rows) {
    if (row.agrees()) ++passing;
  }
  return static_cast<double>(passing) / static_cast<double>(rows.size());
}

void write_validation_csv(const std::string& path,
                          const ValidationReport& report) {
  util::CsvWriter csv(path);
  csv.row({"label", "trials",
           "analytic_makespan_us", "sim_makespan_mean_us",
           "sim_makespan_ci_lo_us", "sim_makespan_ci_hi_us",
           "makespan_delta_us", "makespan_tolerance_us", "makespan_agrees",
           "analytic_error_prob", "sim_error_prob",
           "sim_error_ci_lo", "sim_error_ci_hi", "error_delta",
           "error_agrees",
           "analytic_energy_uj", "sim_energy_mean_uj",
           "deadline_us", "analytic_deadline_miss", "sim_deadline_miss_rate",
           "mean_faults", "mean_rollbacks"});
  for (const ValidationRow& row : report.rows) {
    csv.field(row.label)
        .field(row.simulated.trials)
        .field(row.analytic.makespan_us)
        .field(row.simulated.makespan_mean_us)
        .field(row.simulated.makespan_ci_us.lo)
        .field(row.simulated.makespan_ci_us.hi)
        .field(row.makespan_delta_us)
        .field(row.makespan_tolerance_us)
        .field(row.makespan_agrees ? "yes" : "no")
        .field(row.analytic.error_prob)
        .field(row.simulated.error_prob)
        .field(row.simulated.error_ci.lo)
        .field(row.simulated.error_ci.hi)
        .field(row.error_delta)
        .field(row.error_agrees ? "yes" : "no")
        .field(row.analytic.energy_uj)
        .field(row.simulated.energy_mean_uj)
        .field(row.simulated.deadline_us)
        .field(row.analytic_deadline_miss)
        .field(row.simulated.deadline_miss_rate)
        .field(row.simulated.mean_faults)
        .field(row.simulated.mean_rollbacks);
    csv.end_row();
  }
  csv.flush();
}

}  // namespace clrearly::sim
