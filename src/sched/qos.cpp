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

QosFieldMask QosSpec::fields_read() const {
  QosFieldMask fields = 0;
  if (min_functional_rel) fields |= kQosFunctionalRel;
  if (max_energy_uj) fields |= kQosEnergy;
  if (max_peak_power_w) fields |= kQosPeakPower;
  return fields;
}

QosWorkspace& QosWorkspace::local() {
  thread_local QosWorkspace workspace;
  return workspace;
}

QosPlan::QosPlan(const app::Application& application,
                 const platform::Architecture& architecture,
                 QosFieldMask fields)
    : graph_(application.graph, architecture.interconnect()),
      zeta_(application.graph.normalized_criticality()),
      period_us_(application.period_us),
      fields_(fields) {
  memory_capacity_kb_.reserve(architecture.num_pes());
  for (std::size_t p = 0; p < architecture.num_pes(); ++p) {
    memory_capacity_kb_.push_back(architecture.type_of(p).memory_kb);
  }
}

QosMetrics QosPlan::evaluate(QosWorkspace& ws,
                             const std::vector<std::size_t>& priority_order,
                             Schedule* schedule_out) const {
  const std::size_t n = graph_.num_tasks();
  const std::size_t num_pes = memory_capacity_kb_.size();
  const std::vector<TaskRef>& tasks = ws.tasks;
  if (tasks.size() != n) {
    throw std::invalid_argument("estimate_qos: decision count mismatch");
  }

  // --- Average makespan from the list schedule. The architecture's
  // interconnect model lives in graph_: with the default (disabled) model
  // this is the paper's base abstraction.
  ScheduleWorkspace& sched = ws.schedule;
  sched.pe.resize(n);
  sched.exec_us.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    sched.pe[t] = tasks[t].pe;
    sched.exec_us[t] = tasks[t].metrics->avg_exec_time_us;
  }
  run_list_schedule(graph_, priority_order, num_pes, sched);

  constexpr double kUnread = std::numeric_limits<double>::quiet_NaN();
  QosMetrics qos;
  qos.makespan_us = sched.makespan_us;
  qos.peak_power_w = kUnread;
  if (fields_ & kQosPeakPower) {
    ws.events.clear();
    for (std::size_t t = 0; t < n; ++t) {
      const double power = tasks[t].metrics->avg_power_w;
      ws.events.push_back({sched.tasks[t].start_us, power});
      ws.events.push_back({sched.tasks[t].end_us, -power});
    }
    qos.peak_power_w = peak_power(ws.events);
  }

  // --- Functional reliability: criticality-weighted task reliabilities.
  qos.functional_rel = qos.error_prob = kUnread;
  if (fields_ & kQosFunctionalRel) {
    double f_app = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      f_app += (1.0 - tasks[t].metrics->error_prob) * zeta_[t];
    }
    qos.functional_rel = f_app;
    qos.error_prob = 1.0 - f_app;
  }

  // --- Lifetime (Eq. 2): per-PE duty-cycle-weighted MTTF, min over used PEs.
  ws.pe_stress.assign(num_pes, 0.0);  // sum ExT/MTTF
  for (std::size_t t = 0; t < n; ++t) {
    const reliability::TaskMetrics& m = *tasks[t].metrics;
    if (m.mttf_hours <= 0.0) {
      throw std::invalid_argument("per_pe_mttf: non-positive task MTTF");
    }
    ws.pe_stress[tasks[t].pe] += m.avg_exec_time_us / m.mttf_hours;
  }
  double l_app = std::numeric_limits<double>::infinity();
  for (double stress : ws.pe_stress) {
    if (stress > 0.0) l_app = std::min(l_app, period_us_ / stress);
  }
  if (!std::isfinite(l_app)) {
    throw std::invalid_argument("estimate_qos: no task mapped to any PE");
  }
  qos.mttf_hours = l_app;

  // --- Energy (Eq. 4): per-task average power times average execution time.
  qos.energy_uj = kUnread;
  if (fields_ & kQosEnergy) {
    double energy = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      energy += tasks[t].metrics->avg_exec_time_us *
                tasks[t].metrics->avg_power_w;
    }
    qos.energy_uj = energy;
  }

  // --- Storage constraint: relative overshoot per capacity-limited PE.
  ws.pe_memory_kb.assign(num_pes, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    ws.pe_memory_kb[tasks[t].pe] += tasks[t].metrics->footprint_kb;
  }
  for (std::size_t p = 0; p < num_pes; ++p) {
    const double capacity = memory_capacity_kb_[p];
    if (capacity <= 0.0) continue;  // unconstrained PE
    qos.memory_overflow +=
        std::max(0.0, (ws.pe_memory_kb[p] - capacity) / capacity);
  }

  qos.makespan_stddev_us =
      fields_ & kQosMakespanStddev ? makespan_stddev(ws) : kUnread;

  if (schedule_out != nullptr) {
    schedule_out->tasks = sched.tasks;
    schedule_out->makespan_us = sched.makespan_us;
    schedule_out->pe_busy_us = sched.pe_busy_us;
  }
  return qos;
}

double QosPlan::makespan_stddev(QosWorkspace& ws) const {
  // Accumulate execution-time variance backwards along the realized
  // critical path: the chain of blocking tasks ending at the first task to
  // finish last.
  const std::vector<ScheduledTask>& placed = ws.schedule.tasks;
  const std::size_t n = placed.size();
  std::size_t current = 0;
  for (std::size_t t = 1; t < n; ++t) {
    if (placed[t].end_us > placed[current].end_us) current = t;
  }

  // Each PE's tasks in placement order. A task starts no earlier than its
  // PE's previous task ends, so end times are non-decreasing along a row
  // (a NaN end, from a NaN execution time, poisons the rest of its row):
  // the tasks ending within the tie tolerance of a start are one run of
  // the row, found by binary search.
  const std::size_t num_pes = memory_capacity_kb_.size();
  ws.pe_begin.assign(num_pes + 1, 0);
  for (std::size_t t = 0; t < n; ++t) ++ws.pe_begin[placed[t].pe + 1];
  for (std::size_t p = 0; p < num_pes; ++p) {
    ws.pe_begin[p + 1] += ws.pe_begin[p];
  }
  ws.by_pe.resize(n);
  for (std::size_t task : ws.schedule.sequence) {
    ws.by_pe[ws.pe_begin[placed[task].pe]++] = task;
  }
  // Filling advanced each row start to the next row's; shift back.
  for (std::size_t p = num_pes; p > 0; --p) ws.pe_begin[p] = ws.pe_begin[p - 1];
  ws.pe_begin[0] = 0;

  constexpr double kTieTol = 1e-6;
  double variance = 0.0;
  for (std::size_t hops = 0; hops < n; ++hops) {
    const double s = ws.tasks[current].metrics->exec_time_stddev_us;
    variance += s * s;
    const double start = placed[current].start_us;
    if (start <= 1e-12) break;

    std::size_t blocker = n;
    // Dependency blocker (data arrival defines the start)?
    for (const ScheduleGraph::Arc& arc : graph_.predecessors(current)) {
      const std::size_t p = arc.task;
      const double arrival = graph_.arrival_us(arc, placed[p].end_us,
                                               placed[p].pe, placed[current].pe);
      if (std::abs(arrival - start) < kTieTol) {
        blocker = p;
        break;
      }
    }
    // Otherwise the PE was busy until our start: the lowest task id on it,
    // other than this one, ending within the tolerance of the start.
    if (blocker == n) {
      const std::size_t pe = placed[current].pe;
      const std::size_t* first = ws.by_pe.data() + ws.pe_begin[pe];
      const std::size_t* last = ws.by_pe.data() + ws.pe_begin[pe + 1];
      for (const std::size_t* it = std::partition_point(
               first, last,
               [&](std::size_t t) {
                 return placed[t].end_us - start <= -kTieTol;
               });
           it != last && placed[*it].end_us - start < kTieTol; ++it) {
        if (*it != current) blocker = std::min(blocker, *it);
      }
    }
    if (blocker == n) break;
    current = blocker;
  }
  return std::sqrt(variance);
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
  const QosPlan plan(application, architecture, kAllQosFields);
  QosWorkspace& ws = QosWorkspace::local();
  ws.tasks.resize(decisions.size());
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    ws.tasks[t] = TaskRef{decisions[t].pe, &decisions[t].metrics};
  }
  return plan.evaluate(ws, priority_order, schedule_out);
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
