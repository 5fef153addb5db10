// Priority-list scheduling of a task graph onto a fixed task-to-PE binding.
//
// The GA chromosome encodes the schedule implicitly as the ordering of task
// sub-sequences (Section V-C); the scheduler realizes it: among ready tasks
// (all predecessors finished) the one earliest in the priority order starts
// next on its bound PE, at max(PE-free time, latest data arrival). Data
// arrives when its producer finishes under the paper's base abstraction (a
// disabled interconnect); the communication-aware variant delays every
// cross-PE dependency by the interconnect's transfer time for its data.
//
// One loop computes every schedule (run_list_schedule). Its ready set is a
// min-heap of priority ranks, so a schedule costs O((T + E) log T). Ranks
// form a permutation and cannot tie, so the heap pops exactly the ready task
// a scan for the lowest rank would, and every start and end time matches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/interconnect.hpp"

namespace clrearly::sched {

/// Per-task inputs to the scheduler: the binding and the (already
/// CLR-adjusted) expected execution time and average power.
struct TaskAssignment {
  std::size_t pe = 0;
  double exec_time_us = 0.0;
  double power_w = 0.0;
};

/// Start/end of one task in the computed schedule (SST_t / SET_t).
struct ScheduledTask {
  double start_us = 0.0;
  double end_us = 0.0;
  std::size_t pe = 0;
};

struct Schedule {
  std::vector<ScheduledTask> tasks;  ///< indexed by task id
  double makespan_us = 0.0;          ///< Sapp = max SET_t
  std::vector<double> pe_busy_us;    ///< accumulated busy time per PE

  /// Peak instantaneous power: max over time of the summed power of
  /// concurrently executing tasks (TABLE III, Eq. 4).
  double peak_power(const std::vector<TaskAssignment>& assignments) const;
};

/// One power step of a peak-power sweep: a task adds its power at its start
/// and removes it at its end.
struct PowerEvent {
  double time_us = 0.0;
  double delta_w = 0.0;
};

/// Peak of the running power sum over `events`, which this sorts in place
/// by time (releases before acquisitions at equal times). 0 when empty.
double peak_power(std::vector<PowerEvent>& events);

/// Compute the schedule. `priority_order` must be a permutation of all task
/// ids; `assignments` must bind every task to a PE < num_pes. Throws
/// std::invalid_argument on malformed input.
Schedule list_schedule(const app::TaskGraph& graph,
                       const std::vector<TaskAssignment>& assignments,
                       const std::vector<std::size_t>& priority_order,
                       std::size_t num_pes);

/// Communication-aware variant (the paper's future-work extension): a
/// dependency whose producer and consumer sit on *different* PEs delays the
/// consumer's ready time by the interconnect's transfer time for the edge's
/// data volume; co-located tasks communicate through local memory for free.
Schedule list_schedule(const app::TaskGraph& graph,
                       const std::vector<TaskAssignment>& assignments,
                       const std::vector<std::size_t>& priority_order,
                       std::size_t num_pes,
                       const platform::Interconnect& interconnect);

/// Arrival time at task `dst` of the data produced by task `src` finishing
/// at `src_end_us`: co-located tasks communicate for free, cross-PE
/// dependencies pay the interconnect's transfer time for the edge's data
/// volume (nothing when the model is disabled). The Monte Carlo schedule
/// simulator prices communication with it; ScheduleGraph stores the same
/// transfer time per edge, so the list scheduler and the QoS critical-path
/// walk price it identically.
double data_arrival_us(const app::TaskGraph& graph,
                       const platform::Interconnect& interconnect,
                       std::size_t src, std::size_t dst, double src_end_us,
                       std::size_t src_pe, std::size_t dst_pe);

/// The task graph as the scheduling loop reads it, built once per graph and
/// interconnect: successor and predecessor lists in CSR form (in the graph's
/// own order), each edge carrying its cross-PE transfer time, so no
/// scheduling step searches the edge list. Owns its data.
class ScheduleGraph {
 public:
  /// One dependency as seen from one of its endpoints.
  struct Arc {
    std::size_t task = 0;   ///< the other endpoint
    double delay_us = 0.0;  ///< transfer time when the endpoints' PEs differ
  };

  ScheduleGraph(const app::TaskGraph& graph,
                const platform::Interconnect& interconnect);

  std::size_t num_tasks() const noexcept { return succ_begin_.size() - 1; }

  std::span<const Arc> successors(std::size_t task) const noexcept {
    return {succ_.data() + succ_begin_[task],
            succ_.data() + succ_begin_[task + 1]};
  }
  std::span<const Arc> predecessors(std::size_t task) const noexcept {
    return {pred_.data() + pred_begin_[task],
            pred_.data() + pred_begin_[task + 1]};
  }

  /// Arrival at a consumer on `dst_pe` of data over `arc` from a producer on
  /// `src_pe` finishing at `src_end_us` (data_arrival_us, precomputed): the
  /// producer's finish when the PEs match or the interconnect is disabled.
  double arrival_us(const Arc& arc, double src_end_us, std::size_t src_pe,
                    std::size_t dst_pe) const noexcept {
    return communication_ && src_pe != dst_pe ? src_end_us + arc.delay_us
                                              : src_end_us;
  }

 private:
  std::vector<std::size_t> succ_begin_;  ///< num_tasks + 1 offsets
  std::vector<Arc> succ_;
  std::vector<std::size_t> pred_begin_;  ///< num_tasks + 1 offsets
  std::vector<Arc> pred_;
  bool communication_ = false;  ///< the interconnect models communication
};

/// Buffers of run_list_schedule, reused across calls: once they have grown
/// to the task and PE counts, a call allocates nothing.
struct ScheduleWorkspace {
  // Inputs, one entry per task id.
  std::vector<std::size_t> pe;
  std::vector<double> exec_us;

  // Outputs.
  std::vector<ScheduledTask> tasks;   ///< indexed by task id
  std::vector<std::size_t> sequence;  ///< task ids in placement order
  std::vector<double> pe_busy_us;     ///< accumulated busy time per PE
  double makespan_us = 0.0;

  // Scratch.
  std::vector<std::size_t> rank;     ///< priority position of each task
  std::vector<std::size_t> pending;  ///< unscheduled predecessors per task
  std::vector<std::size_t> heap;     ///< ranks of the ready tasks
  std::vector<double> ready_us;      ///< latest data arrival per task
  std::vector<double> pe_free_us;
};

/// The list-scheduling loop behind every schedule: reads `ws.pe` and
/// `ws.exec_us` (one entry per task of `graph`) and fills the outputs of
/// `ws`. Throws std::invalid_argument like list_schedule: priority order of
/// the wrong size, no PEs, an order that is not a permutation (checked while
/// ranking it), a PE index out of range, a negative execution time, a cycle.
void run_list_schedule(const ScheduleGraph& graph,
                       const std::vector<std::size_t>& priority_order,
                       std::size_t num_pes, ScheduleWorkspace& ws);

}  // namespace clrearly::sched
