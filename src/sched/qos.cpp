#include "sched/qos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace clrearly::sched {

namespace {

/// Relative overshoot of `value` past an upper limit (0 when within). A
/// NaN value satisfies no limit: it is the worst violation, +infinity.
double over(double value, double limit) {
  if (std::isnan(value)) return std::numeric_limits<double>::infinity();
  if (limit <= 0.0) return value > 0.0 ? 1.0 : 0.0;
  return std::max(0.0, (value - limit) / limit);
}

/// Relative shortfall of `value` below a lower limit; NaN as in over().
double under(double value, double limit) {
  if (std::isnan(value)) return std::numeric_limits<double>::infinity();
  if (limit <= 0.0) return 0.0;
  return std::max(0.0, (limit - value) / limit);
}

}  // namespace

double QosSpec::violation(const QosMetrics& m) const {
  double v = 0.0;
  if (max_makespan_us) v += over(m.makespan_us, *max_makespan_us);
  if (min_functional_rel) v += under(m.functional_rel, *min_functional_rel);
  if (min_mttf_hours) v += under(m.mttf_hours, *min_mttf_hours);
  if (max_energy_uj) v += over(m.energy_uj, *max_energy_uj);
  if (max_peak_power_w) v += over(m.peak_power_w, *max_peak_power_w);
  v += m.memory_overflow;  // physical constraint, always enforced
  return v;
}

QosMetrics estimate_qos(const app::Application& application,
                        const platform::Architecture& architecture,
                        const std::vector<TaskDecision>& decisions,
                        const std::vector<std::size_t>& priority_order) {
  return estimate_qos(application, architecture, decisions, priority_order,
                      nullptr);
}

QosMetrics estimate_qos(const app::Application& application,
                        const platform::Architecture& architecture,
                        const std::vector<TaskDecision>& decisions,
                        const std::vector<std::size_t>& priority_order,
                        Schedule* schedule_out) {
  const app::TaskGraph& graph = application.graph;
  const std::size_t n = graph.num_tasks();
  if (decisions.size() != n) {
    throw std::invalid_argument("estimate_qos: decision count mismatch");
  }

  // --- Average makespan and peak power from the list schedule.
  std::vector<TaskAssignment> assignments(n);
  for (std::size_t t = 0; t < n; ++t) {
    assignments[t].pe = decisions[t].pe;
    assignments[t].exec_time_us = decisions[t].metrics.avg_exec_time_us;
    assignments[t].power_w = decisions[t].metrics.avg_power_w;
  }
  // The architecture's interconnect model applies automatically: with the
  // default (disabled) model this is the paper's base abstraction.
  const Schedule schedule =
      list_schedule(graph, assignments, priority_order,
                    architecture.num_pes(), architecture.interconnect());

  QosMetrics qos;
  qos.makespan_us = schedule.makespan_us;
  qos.peak_power_w = schedule.peak_power(assignments);

  // --- Functional reliability: criticality-weighted task reliabilities.
  const std::vector<double> zeta = graph.normalized_criticality();
  double f_app = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    f_app += (1.0 - decisions[t].metrics.error_prob) * zeta[t];
  }
  qos.functional_rel = f_app;
  qos.error_prob = 1.0 - f_app;

  // --- Lifetime (Eq. 2): per-PE duty-cycle-weighted MTTF, min over used PEs.
  const std::vector<double> pe_mttf =
      per_pe_mttf(application, architecture, decisions);
  double l_app = std::numeric_limits<double>::infinity();
  for (double mttf : pe_mttf) l_app = std::min(l_app, mttf);
  if (!std::isfinite(l_app)) {
    throw std::invalid_argument("estimate_qos: no task mapped to any PE");
  }
  qos.mttf_hours = l_app;

  // --- Energy (Eq. 4): per-task average power times average execution time.
  double energy = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    energy += decisions[t].metrics.avg_exec_time_us *
              decisions[t].metrics.avg_power_w;
  }
  qos.energy_uj = energy;

  // --- Storage constraint: relative overshoot per capacity-limited PE.
  std::vector<double> memory_used(architecture.num_pes(), 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    memory_used[decisions[t].pe] += decisions[t].metrics.footprint_kb;
  }
  for (std::size_t p = 0; p < architecture.num_pes(); ++p) {
    const double capacity = architecture.type_of(p).memory_kb;
    if (capacity <= 0.0) continue;  // unconstrained PE
    qos.memory_overflow +=
        std::max(0.0, (memory_used[p] - capacity) / capacity);
  }

  // --- Makespan spread: accumulate execution-time variance backwards along
  // the realized critical path (the chain of blocking tasks ending at the
  // makespan-defining task).
  {
    std::size_t current = 0;
    for (std::size_t t = 1; t < n; ++t) {
      if (schedule.tasks[t].end_us > schedule.tasks[current].end_us) {
        current = t;
      }
    }
    const platform::Interconnect& icn = architecture.interconnect();
    double variance = 0.0;
    for (std::size_t hops = 0; hops < n; ++hops) {
      const double s = decisions[current].metrics.exec_time_stddev_us;
      variance += s * s;
      const double start = schedule.tasks[current].start_us;
      if (start <= 1e-12) break;

      constexpr double kTieTol = 1e-6;
      std::size_t blocker = n;
      // Dependency blocker (data arrival defines the start)?
      for (std::size_t p : graph.predecessors(current)) {
        const double arrival = data_arrival_us(
            graph, icn, p, current, schedule.tasks[p].end_us,
            schedule.tasks[p].pe, schedule.tasks[current].pe);
        if (std::abs(arrival - start) < kTieTol) {
          blocker = p;
          break;
        }
      }
      // Otherwise the PE was busy until our start.
      if (blocker == n) {
        for (std::size_t t = 0; t < n; ++t) {
          if (t == current || schedule.tasks[t].pe != schedule.tasks[current].pe) {
            continue;
          }
          if (std::abs(schedule.tasks[t].end_us - start) < kTieTol) {
            blocker = t;
            break;
          }
        }
      }
      if (blocker == n) break;
      current = blocker;
    }
    qos.makespan_stddev_us = std::sqrt(variance);
  }

  if (schedule_out != nullptr) *schedule_out = schedule;
  return qos;
}

double deadline_miss_probability(const QosMetrics& metrics,
                                 double deadline_us) {
  if (deadline_us <= 0.0) {
    throw std::invalid_argument(
        "deadline_miss_probability: deadline must be positive");
  }
  if (metrics.makespan_stddev_us <= 0.0) {
    return deadline_us >= metrics.makespan_us ? 0.0 : 1.0;
  }
  const double z = (deadline_us - metrics.makespan_us) /
                   (metrics.makespan_stddev_us * std::sqrt(2.0));
  return 0.5 * std::erfc(z);
}

std::vector<double> per_pe_mttf(const app::Application& application,
                                const platform::Architecture& architecture,
                                const std::vector<TaskDecision>& decisions) {
  if (decisions.size() != application.graph.num_tasks()) {
    throw std::invalid_argument("per_pe_mttf: decision count mismatch");
  }
  std::vector<double> stress(architecture.num_pes(), 0.0);  // sum ExT/MTTF
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    const reliability::TaskMetrics& m = decisions[t].metrics;
    if (m.mttf_hours <= 0.0) {
      throw std::invalid_argument("per_pe_mttf: non-positive task MTTF");
    }
    if (decisions[t].pe >= architecture.num_pes()) {
      throw std::invalid_argument("per_pe_mttf: PE index out of range");
    }
    stress[decisions[t].pe] += m.avg_exec_time_us / m.mttf_hours;
  }
  std::vector<double> mttf(architecture.num_pes(),
                           std::numeric_limits<double>::infinity());
  for (std::size_t p = 0; p < architecture.num_pes(); ++p) {
    if (stress[p] > 0.0) mttf[p] = application.period_us / stress[p];
  }
  return mttf;
}

double mission_reliability(const app::Application& application,
                           const platform::Architecture& architecture,
                           const std::vector<TaskDecision>& decisions,
                           double mission_hours) {
  if (mission_hours < 0.0) {
    throw std::invalid_argument("mission_reliability: negative mission time");
  }
  const std::vector<double> pe_mttf =
      per_pe_mttf(application, architecture, decisions);
  double reliability = 1.0;
  for (std::size_t p = 0; p < architecture.num_pes(); ++p) {
    if (!std::isfinite(pe_mttf[p])) continue;  // idle PE: survives
    const double beta = architecture.type_of(p).weibull_beta;
    // Scale so the PE's Weibull MTTF equals its Eq. 2 value.
    const double eta = pe_mttf[p] / std::tgamma(1.0 + 1.0 / beta);
    reliability *=
        reliability::Weibull(eta, beta).reliability(mission_hours);
  }
  return reliability;
}

}  // namespace clrearly::sched
