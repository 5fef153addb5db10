// Test-only oracle for the QoS evaluation plan: the list scheduler,
// peak-power sweep and estimate_qos that sched::QosPlan replaced, kept
// verbatim (an O(T) ready scan per step, a find_edge per cross-PE
// successor, a critical-path walk that scans every task per hop) as the
// differential reference of tests/sched/qos_plan_test.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/architecture.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/qos.hpp"

namespace clrearly::sched::oracle {

inline double peak_power(const Schedule& schedule,
                         const std::vector<TaskAssignment>& assignments) {
  const std::vector<ScheduledTask>& tasks = schedule.tasks;
  if (tasks.empty()) return 0.0;
  if (assignments.size() != tasks.size()) {
    throw std::invalid_argument("Schedule::peak_power: assignment size mismatch");
  }
  // Sweep start/end events; power changes only at task boundaries.
  struct Event {
    double time;
    double delta;
  };
  std::vector<Event> events;
  events.reserve(tasks.size() * 2);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    events.push_back({tasks[t].start_us, assignments[t].power_w});
    events.push_back({tasks[t].end_us, -assignments[t].power_w});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;  // process releases before acquisitions at ties
  });
  double current = 0.0;
  double peak = 0.0;
  for (const Event& e : events) {
    current += e.delta;
    peak = std::max(peak, current);
  }
  return peak;
}

inline Schedule list_schedule(const app::TaskGraph& graph,
                              const std::vector<TaskAssignment>& assignments,
                              const std::vector<std::size_t>& priority_order,
                              std::size_t num_pes,
                              const platform::Interconnect& interconnect) {
  const std::size_t n = graph.num_tasks();
  if (assignments.size() != n) {
    throw std::invalid_argument("list_schedule: assignment count mismatch");
  }
  if (priority_order.size() != n) {
    throw std::invalid_argument("list_schedule: priority order size mismatch");
  }
  if (num_pes == 0) {
    throw std::invalid_argument("list_schedule: no PEs");
  }

  // Validate the permutation and build rank lookup (lower rank = earlier).
  std::vector<std::size_t> rank(n, n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t task = priority_order[pos];
    if (task >= n || rank[task] != n) {
      throw std::invalid_argument(
          "list_schedule: priority order is not a permutation of task ids");
    }
    rank[task] = pos;
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (assignments[t].pe >= num_pes) {
      throw std::invalid_argument("list_schedule: PE index out of range");
    }
    if (assignments[t].exec_time_us < 0.0) {
      throw std::invalid_argument("list_schedule: negative execution time");
    }
  }

  Schedule schedule;
  schedule.tasks.assign(n, ScheduledTask{});
  schedule.pe_busy_us.assign(num_pes, 0.0);

  std::vector<std::size_t> unscheduled_preds(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    unscheduled_preds[t] = graph.predecessors(t).size();
  }
  std::vector<double> pe_free(num_pes, 0.0);
  std::vector<double> ready_time(n, 0.0);  // latest predecessor finish
  std::vector<bool> done(n, false);

  for (std::size_t scheduled = 0; scheduled < n; ++scheduled) {
    // Highest-priority ready task.
    std::size_t best = n;
    for (std::size_t t = 0; t < n; ++t) {
      if (done[t] || unscheduled_preds[t] != 0) continue;
      if (best == n || rank[t] < rank[best]) best = t;
    }
    if (best == n) {
      throw std::invalid_argument("list_schedule: graph contains a cycle");
    }

    const TaskAssignment& asg = assignments[best];
    const double start = std::max(pe_free[asg.pe], ready_time[best]);
    const double end = start + asg.exec_time_us;
    schedule.tasks[best] = ScheduledTask{start, end, asg.pe};
    pe_free[asg.pe] = end;
    schedule.pe_busy_us[asg.pe] += asg.exec_time_us;
    schedule.makespan_us = std::max(schedule.makespan_us, end);
    done[best] = true;
    for (std::size_t succ : graph.successors(best)) {
      --unscheduled_preds[succ];
      const double arrival = data_arrival_us(graph, interconnect, best, succ,
                                             end, asg.pe,
                                             assignments[succ].pe);
      ready_time[succ] = std::max(ready_time[succ], arrival);
    }
  }
  return schedule;
}

inline QosMetrics estimate_qos(const app::Application& application,
                               const platform::Architecture& architecture,
                               const std::vector<TaskDecision>& decisions,
                               const std::vector<std::size_t>& priority_order,
                               Schedule* schedule_out = nullptr) {
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
      oracle::list_schedule(graph, assignments, priority_order,
                            architecture.num_pes(), architecture.interconnect());

  QosMetrics qos;
  qos.makespan_us = schedule.makespan_us;
  qos.peak_power_w = oracle::peak_power(schedule, assignments);

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

}  // namespace clrearly::sched::oracle
