#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace clrearly::sched {

double peak_power(std::vector<PowerEvent>& events) {
  // Power changes only at task boundaries.
  std::sort(events.begin(), events.end(),
            [](const PowerEvent& a, const PowerEvent& b) {
              if (a.time_us != b.time_us) return a.time_us < b.time_us;
              return a.delta_w < b.delta_w;  // releases before acquisitions
            });
  double current = 0.0;
  double peak = 0.0;
  for (const PowerEvent& e : events) {
    current += e.delta_w;
    peak = std::max(peak, current);
  }
  return peak;
}

double Schedule::peak_power(
    const std::vector<TaskAssignment>& assignments) const {
  if (tasks.empty()) return 0.0;
  if (assignments.size() != tasks.size()) {
    throw std::invalid_argument("Schedule::peak_power: assignment size mismatch");
  }
  std::vector<PowerEvent> events;
  events.reserve(tasks.size() * 2);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    events.push_back({tasks[t].start_us, assignments[t].power_w});
    events.push_back({tasks[t].end_us, -assignments[t].power_w});
  }
  return sched::peak_power(events);
}

double data_arrival_us(const app::TaskGraph& graph,
                       const platform::Interconnect& interconnect,
                       std::size_t src, std::size_t dst, double src_end_us,
                       std::size_t src_pe, std::size_t dst_pe) {
  if (!interconnect.models_communication() || src_pe == dst_pe) {
    return src_end_us;
  }
  const app::Edge* edge = graph.find_edge(src, dst);
  return src_end_us + interconnect.transfer_time_us(edge ? edge->data_kb : 0.0);
}

ScheduleGraph::ScheduleGraph(const app::TaskGraph& graph,
                             const platform::Interconnect& interconnect)
    : communication_(interconnect.models_communication()) {
  const std::size_t n = graph.num_tasks();
  const std::vector<app::Edge>& edges = graph.edges();
  // Bucket the edge list by endpoint. Edges are stored in insertion order,
  // as are TaskGraph's own successor/predecessor lists, so every CSR row
  // keeps the graph's order: count each row, turn the counts into row ends,
  // then fill backwards, which leaves each entry at its row's start.
  succ_begin_.assign(n + 1, 0);
  pred_begin_.assign(n + 1, 0);
  for (const app::Edge& e : edges) {
    ++succ_begin_[e.src];
    ++pred_begin_[e.dst];
  }
  for (std::size_t t = 1; t < n; ++t) {
    succ_begin_[t] += succ_begin_[t - 1];
    pred_begin_[t] += pred_begin_[t - 1];
  }
  succ_.resize(edges.size());
  pred_.resize(edges.size());
  for (auto e = edges.rbegin(); e != edges.rend(); ++e) {
    const double delay = interconnect.transfer_time_us(e->data_kb);
    succ_[--succ_begin_[e->src]] = Arc{e->dst, delay};
    pred_[--pred_begin_[e->dst]] = Arc{e->src, delay};
  }
  succ_begin_[n] = pred_begin_[n] = edges.size();
}

void run_list_schedule(const ScheduleGraph& graph,
                       const std::vector<std::size_t>& priority_order,
                       std::size_t num_pes, ScheduleWorkspace& ws) {
  const std::size_t n = graph.num_tasks();
  if (priority_order.size() != n) {
    throw std::invalid_argument("list_schedule: priority order size mismatch");
  }
  if (num_pes == 0) {
    throw std::invalid_argument("list_schedule: no PEs");
  }

  // Validate the permutation and build rank lookup (lower rank = earlier).
  ws.rank.assign(n, n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t task = priority_order[pos];
    if (task >= n || ws.rank[task] != n) {
      throw std::invalid_argument(
          "list_schedule: priority order is not a permutation of task ids");
    }
    ws.rank[task] = pos;
  }
  for (std::size_t t = 0; t < n; ++t) {
    if (ws.pe[t] >= num_pes) {
      throw std::invalid_argument("list_schedule: PE index out of range");
    }
    if (ws.exec_us[t] < 0.0) {
      throw std::invalid_argument("list_schedule: negative execution time");
    }
  }

  ws.tasks.resize(n);
  ws.sequence.clear();
  ws.pe_busy_us.assign(num_pes, 0.0);
  ws.pe_free_us.assign(num_pes, 0.0);
  ws.ready_us.assign(n, 0.0);
  ws.pending.resize(n);
  ws.heap.clear();
  ws.makespan_us = 0.0;
  // Min-heap of the ready tasks' ranks; task = priority_order[rank].
  const std::greater<std::size_t> later;
  for (std::size_t t = 0; t < n; ++t) {
    ws.pending[t] = graph.predecessors(t).size();
    if (ws.pending[t] == 0) ws.heap.push_back(ws.rank[t]);
  }
  std::make_heap(ws.heap.begin(), ws.heap.end(), later);

  while (!ws.heap.empty()) {
    std::pop_heap(ws.heap.begin(), ws.heap.end(), later);
    const std::size_t best = priority_order[ws.heap.back()];
    ws.heap.pop_back();

    const std::size_t pe = ws.pe[best];
    const double start = std::max(ws.pe_free_us[pe], ws.ready_us[best]);
    const double end = start + ws.exec_us[best];
    ws.tasks[best] = ScheduledTask{start, end, pe};
    ws.sequence.push_back(best);
    ws.pe_free_us[pe] = end;
    ws.pe_busy_us[pe] += ws.exec_us[best];
    ws.makespan_us = std::max(ws.makespan_us, end);
    for (const ScheduleGraph::Arc& arc : graph.successors(best)) {
      const std::size_t succ = arc.task;
      const double arrival = graph.arrival_us(arc, end, pe, ws.pe[succ]);
      ws.ready_us[succ] = std::max(ws.ready_us[succ], arrival);
      if (--ws.pending[succ] == 0) {
        ws.heap.push_back(ws.rank[succ]);
        std::push_heap(ws.heap.begin(), ws.heap.end(), later);
      }
    }
  }
  if (ws.sequence.size() != n) {
    throw std::invalid_argument("list_schedule: graph contains a cycle");
  }
}

Schedule list_schedule(const app::TaskGraph& graph,
                       const std::vector<TaskAssignment>& assignments,
                       const std::vector<std::size_t>& priority_order,
                       std::size_t num_pes) {
  return list_schedule(graph, assignments, priority_order, num_pes,
                       platform::Interconnect{});
}

Schedule list_schedule(const app::TaskGraph& graph,
                       const std::vector<TaskAssignment>& assignments,
                       const std::vector<std::size_t>& priority_order,
                       std::size_t num_pes,
                       const platform::Interconnect& interconnect) {
  if (assignments.size() != graph.num_tasks()) {
    throw std::invalid_argument("list_schedule: assignment count mismatch");
  }
  thread_local ScheduleWorkspace ws;
  ws.pe.clear();
  ws.exec_us.clear();
  for (const TaskAssignment& a : assignments) {
    ws.pe.push_back(a.pe);
    ws.exec_us.push_back(a.exec_time_us);
  }
  run_list_schedule(ScheduleGraph(graph, interconnect), priority_order,
                    num_pes, ws);
  Schedule schedule;
  schedule.tasks = ws.tasks;
  schedule.makespan_us = ws.makespan_us;
  schedule.pe_busy_us = ws.pe_busy_us;
  return schedule;
}

}  // namespace clrearly::sched
