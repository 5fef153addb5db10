// System-level QoS estimation (TABLE III) and the QoS specification /
// constraint model of the optimization problem (Eq. 5).
//
// One evaluation path computes every QosMetrics: a QosPlan, built once per
// (application, architecture, field mask), scores decisions held in a
// reusable QosWorkspace. The search builds its plan with the fields its
// objectives and spec read; estimate_qos builds one per call with every
// field, for reports.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/architecture.hpp"
#include "reliability/task_metrics.hpp"
#include "sched/list_scheduler.hpp"

namespace clrearly::sched {

/// System-level metrics of one design point.
struct QosMetrics {
  double makespan_us = 0.0;       ///< Sapp (average makespan)
  double functional_rel = 0.0;    ///< Fapp = sum F_t * zeta_t
  double error_prob = 0.0;        ///< 1 - Fapp (the quantity the figures plot)
  double mttf_hours = 0.0;        ///< Lapp = min_p MTTFp
  double peak_power_w = 0.0;      ///< Wapp
  double energy_uj = 0.0;         ///< Japp
  /// Storage-constraint violation (the paper's future-work extension):
  /// sum over capacity-limited PEs of their relative memory overshoot
  /// (0 when every task set fits or no PE declares a capacity).
  double memory_overflow = 0.0;

  /// Spread of the makespan: variances of the Markov execution-time laws
  /// accumulated along the schedule's realized critical path (tasks are
  /// independent, so variances add; other paths are ignored — a first-order
  /// approximation that is exact for chain-structured critical paths).
  double makespan_stddev_us = 0.0;
};

/// QosMetrics fields that cost work of their own, as bits of a
/// QosFieldMask. makespan_us, mttf_hours and memory_overflow have no bit:
/// they are always computed, because the schedule and the lifetime stress
/// sums they come from carry the permutation, cycle and "no task mapped"
/// checks. functional_rel and error_prob share one bit.
enum QosField : unsigned {
  kQosFunctionalRel = 1u << 0,   ///< functional_rel and error_prob
  kQosEnergy = 1u << 1,          ///< energy_uj
  kQosPeakPower = 1u << 2,       ///< peak_power_w (sorts 2T events)
  kQosMakespanStddev = 1u << 3,  ///< makespan_stddev_us (critical-path walk)
};
using QosFieldMask = unsigned;
inline constexpr QosFieldMask kAllQosFields =
    kQosFunctionalRel | kQosEnergy | kQosPeakPower | kQosMakespanStddev;

/// P[makespan > deadline] under a normal approximation of the makespan law
/// (mean makespan_us, stddev makespan_stddev_us). Degenerates to a step
/// function when the stddev is zero. Throws for non-positive deadlines.
double deadline_miss_probability(const QosMetrics& metrics,
                                 double deadline_us);

/// Application-specific QoS requirements (the *SPEC terms of Eq. 5). Each
/// limit is optional — an unset constraint never contributes violation.
struct QosSpec {
  std::optional<double> max_makespan_us;
  std::optional<double> min_functional_rel;
  std::optional<double> min_mttf_hours;
  std::optional<double> max_energy_uj;
  std::optional<double> max_peak_power_w;

  /// Total relative constraint violation of `m` (0 when feasible). Each
  /// violated constraint contributes its normalized overshoot, so degrees of
  /// infeasibility are comparable across metrics. Memory overflow (a
  /// physical placement constraint, not an optional limit) always
  /// contributes.
  double violation(const QosMetrics& m) const;

  bool feasible(const QosMetrics& m) const { return violation(m) == 0.0; }

  /// The optional QosMetrics fields violation() reads under this spec.
  QosFieldMask fields_read() const;

  bool operator==(const QosSpec&) const = default;
};


/// One fully resolved task decision: where the task runs and what its
/// task-level metrics are under the chosen implementation + CLR config.
struct TaskDecision {
  std::size_t pe = 0;
  reliability::TaskMetrics metrics;
};

/// One task's decision by reference: where it runs and its task-level
/// metrics, owned by the caller (a metric table entry or a TaskDecision).
struct TaskRef {
  std::size_t pe = 0;
  const reliability::TaskMetrics* metrics = nullptr;
};

/// Per-call buffers of QosPlan::evaluate, reused across calls: once grown to
/// the task and PE counts, an evaluation allocates nothing. `tasks` is the
/// input, one entry per task id; the rest is scratch.
struct QosWorkspace {
  std::vector<TaskRef> tasks;
  ScheduleWorkspace schedule;
  std::vector<double> pe_stress;      ///< sum of ExT/MTTF per PE
  std::vector<double> pe_memory_kb;   ///< footprint per PE
  std::vector<PowerEvent> events;     ///< peak-power sweep
  std::vector<std::size_t> pe_begin;  ///< critical-path walk: per-PE rows
  std::vector<std::size_t> by_pe;     ///< of task ids in placement order

  /// The calling thread's workspace (thread_local, so the parallel
  /// evaluation engine's workers never share one).
  static QosWorkspace& local();
};

/// Everything about an (application, architecture) pair that QoS
/// estimation reads and no decision changes, computed once: the
/// scheduling graph, the criticality weights zeta_t, the period, per-PE
/// memory capacities, and the fields to compute.
class QosPlan {
 public:
  QosPlan(const app::Application& application,
          const platform::Architecture& architecture, QosFieldMask fields);

  /// TABLE III metrics of the decisions in `ws.tasks` under
  /// `priority_order`: makespan_us, mttf_hours, memory_overflow and the
  /// plan's `fields`; every other field reads NaN. Each value is bit-equal
  /// to what estimate_qos computes for it. `schedule_out`, when set,
  /// receives the realized schedule. Throws std::invalid_argument like
  /// estimate_qos: decision count mismatch, the list-scheduling checks,
  /// a non-positive task MTTF, no task mapped to any PE.
  QosMetrics evaluate(QosWorkspace& ws,
                      const std::vector<std::size_t>& priority_order,
                      Schedule* schedule_out = nullptr) const;

 private:
  double makespan_stddev(QosWorkspace& ws) const;

  ScheduleGraph graph_;
  std::vector<double> zeta_;
  std::vector<double> memory_capacity_kb_;  ///< per PE; <= 0: unconstrained
  double period_us_;
  QosFieldMask fields_;
};

/// Estimate all TABLE III metrics for an application under per-task
/// decisions and a schedule priority order (a QosPlan with every field).
///
/// Lifetime: MTTF(t,i,p) already lives in metrics.mttf_hours; per PE,
/// MTTFp = Papp / sum_{t on p}(AvgExT_t / MTTF_t) and Lapp = min over PEs
/// that execute at least one task (idle PEs do not wear).
QosMetrics estimate_qos(const app::Application& application,
                        const platform::Architecture& architecture,
                        const std::vector<TaskDecision>& decisions,
                        const std::vector<std::size_t>& priority_order);

/// The same, but also returns the realized schedule (for reporting/examples).
QosMetrics estimate_qos(const app::Application& application,
                        const platform::Architecture& architecture,
                        const std::vector<TaskDecision>& decisions,
                        const std::vector<std::size_t>& priority_order,
                        Schedule* schedule_out);

/// Duty-cycle-weighted MTTF of every PE under `decisions` (Eq. 2). Idle PEs
/// report +infinity (they do not wear under load).
std::vector<double> per_pe_mttf(const app::Application& application,
                                const platform::Architecture& architecture,
                                const std::vector<TaskDecision>& decisions);

/// Mission reliability: probability that *every* PE survives
/// `mission_hours` of operation — R_sys(t) = prod_p R_p(t) with R_p the
/// Weibull survival of PE p (shape beta_p, scale chosen so the PE's MTTF
/// matches Eq. 2). Extends the paper's single-number lifetime metric to a
/// mission-time curve. Throws std::invalid_argument for negative times.
double mission_reliability(const app::Application& application,
                           const platform::Architecture& architecture,
                           const std::vector<TaskDecision>& decisions,
                           double mission_hours);

}  // namespace clrearly::sched
