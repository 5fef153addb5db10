#include "sim/schedule_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "reliability/fault_injection.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace clrearly::sim {

namespace {

/// Everything one trial contributes to the aggregate — written to slot
/// `trial` of a pre-sized vector, so parallel execution is bit-identical to
/// serial (the ThreadPool per-index contract).
struct TrialOutcome {
  /// False when a failure-injection trial drew a failure set no variant
  /// covers: nothing ran, and every other field is meaningless.
  bool ran = false;
  std::size_t variant = 0;  ///< the executed variant (failure injection)
  double makespan_us = 0.0;
  double error_weight = 0.0;  ///< sum of zeta_t over corrupted tasks
  double energy_uj = 0.0;
  double faults = 0.0;
  double rollbacks = 0.0;
  bool deadline_miss = false;
};

/// One validated executable configuration: the tasks, each task's rank in
/// the priority order and its fault sampler.
struct Variant {
  const std::vector<SimTask>* tasks = nullptr;
  std::vector<std::size_t> rank;
  std::vector<reliability::TaskSampler> samplers;
};

/// Validates `tasks` and `priority_order` for an `n`-task graph on
/// `num_pes` PEs; every message starts with `who`.
Variant prepare_variant(const std::string& who, std::size_t n,
                        std::size_t num_pes, const std::vector<SimTask>& tasks,
                        const std::vector<std::size_t>& priority_order) {
  if (tasks.size() != n) {
    throw std::invalid_argument(who + " task count mismatch");
  }
  if (priority_order.size() != n) {
    throw std::invalid_argument(who + " priority order size mismatch");
  }
  Variant variant;
  variant.tasks = &tasks;
  variant.rank.assign(n, n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::size_t task = priority_order[pos];
    if (task >= n || variant.rank[task] != n) {
      throw std::invalid_argument(
          who + " priority order is not a permutation of task ids");
    }
    variant.rank[task] = pos;
  }
  variant.samplers.reserve(n);
  for (const SimTask& task : tasks) {
    if (task.pe >= num_pes) {
      throw std::invalid_argument(who + " PE index out of range");
    }
    variant.samplers.emplace_back(task.chain);  // validates the chain
  }
  return variant;
}

/// One full application run: sample every task's trial, then execute the
/// graph event-by-event.
TrialOutcome run_trial(const app::TaskGraph& graph,
                       const platform::Interconnect& interconnect,
                       const Variant& variant, const std::vector<double>& zeta,
                       std::size_t num_pes, double deadline_us,
                       util::Rng& rng) {
  const std::vector<SimTask>& tasks = *variant.tasks;
  const std::size_t n = tasks.size();

  // The fault process of a task is independent of when it runs, so all task
  // trials are drawn up front in task-id order — one fixed draw order per
  // stream, regardless of how the schedule unfolds.
  std::vector<reliability::TaskTrial> draws(n);
  for (std::size_t t = 0; t < n; ++t) {
    draws[t] = variant.samplers[t].sample(rng);
  }

  TrialOutcome out;
  out.ran = true;
  for (std::size_t t = 0; t < n; ++t) {
    out.energy_uj += draws[t].exec_time_us * tasks[t].power_w;
    out.faults += static_cast<double>(draws[t].faults);
    out.rollbacks += static_cast<double>(draws[t].rollbacks);
    if (draws[t].corrupted) out.error_weight += zeta[t];
  }

  // Self-timed execution: tasks dispatch when their data has arrived and
  // their PE is free, lowest priority rank first.
  EventQueue queue;
  std::vector<std::size_t> pending(n);
  std::vector<double> arrival(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    pending[t] = graph.predecessors(t).size();
    if (pending[t] == 0) queue.push({0.0, EventKind::kDataReady, t});
  }
  std::vector<bool> pe_idle(num_pes, true);
  std::vector<std::vector<std::size_t>> ready(num_pes);
  const std::vector<std::size_t>& rank = variant.rank;

  while (!queue.empty()) {
    const double now = queue.next_time_us();
    // Drain every event at this timestamp before dispatching, so the set of
    // ready tasks a PE chooses from never depends on event pop order.
    while (!queue.empty() && queue.next_time_us() == now) {
      const Event event = queue.pop();
      if (event.kind == EventKind::kComplete) {
        pe_idle[tasks[event.task].pe] = true;
        out.makespan_us = std::max(out.makespan_us, now);
        for (std::size_t succ : graph.successors(event.task)) {
          arrival[succ] = std::max(
              arrival[succ],
              sched::data_arrival_us(graph, interconnect, event.task, succ,
                                     now, tasks[event.task].pe,
                                     tasks[succ].pe));
          if (--pending[succ] == 0) {
            queue.push({arrival[succ], EventKind::kDataReady, succ});
          }
        }
      } else {
        ready[tasks[event.task].pe].push_back(event.task);
      }
    }
    for (std::size_t p = 0; p < num_pes; ++p) {
      if (!pe_idle[p] || ready[p].empty()) continue;
      std::size_t best = 0;
      for (std::size_t i = 1; i < ready[p].size(); ++i) {
        if (rank[ready[p][i]] < rank[ready[p][best]]) best = i;
      }
      const std::size_t task = ready[p][best];
      ready[p][best] = ready[p].back();
      ready[p].pop_back();
      pe_idle[p] = false;
      queue.push({now + draws[task].exec_time_us, EventKind::kComplete, task});
    }
  }

  if (deadline_us > 0.0) out.deadline_miss = out.makespan_us > deadline_us;
  return out;
}

/// Trial i of `trials` runs `trial` on the i-th child stream of `seed`,
/// over the global pool. The streams are split off serially, so stream i is
/// the same object no matter which thread later consumes it. Sets
/// `elapsed_s` to the wall time of the parallel loop.
template <typename Trial>
std::vector<TrialOutcome> run_trials(std::size_t trials, std::uint64_t seed,
                                     const char* span_name, double& elapsed_s,
                                     const Trial& trial) {
  util::Rng root(seed);
  std::vector<util::Rng> streams;
  streams.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i) streams.push_back(root.split());

  std::vector<TrialOutcome> outcomes(trials);
  const auto t0 = std::chrono::steady_clock::now();
  {
    const util::TraceSpan span(span_name);
    util::parallel_for(trials,
                       [&](std::size_t i) { outcomes[i] = trial(streams[i]); });
  }
  elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return outcomes;
}

/// The statistics both results carry, over the `ran` trials that ran:
/// makespan and energy mean, sample stddev and normal 95% CI, and the
/// criticality-weighted error probability with its Wilson interval.
/// Accumulated serially in trial order, so identical at any thread count.
template <typename Result>
void aggregate_ran_trials(const std::vector<TrialOutcome>& outcomes,
                          std::size_t ran, Result& result) {
  if (ran == 0) return;
  const double inv_n = 1.0 / static_cast<double>(ran);
  double error_weight = 0.0;
  for (const TrialOutcome& o : outcomes) {
    if (!o.ran) continue;
    result.makespan_mean_us += o.makespan_us * inv_n;
    result.energy_mean_uj += o.energy_uj * inv_n;
    error_weight += o.error_weight;
  }
  if (ran > 1) {
    double makespan_m2 = 0.0;
    double energy_m2 = 0.0;
    for (const TrialOutcome& o : outcomes) {
      if (!o.ran) continue;
      const double dm = o.makespan_us - result.makespan_mean_us;
      const double de = o.energy_uj - result.energy_mean_uj;
      makespan_m2 += dm * dm;
      energy_m2 += de * de;
    }
    const double inv_n1 = 1.0 / static_cast<double>(ran - 1);
    result.makespan_stddev_us = std::sqrt(makespan_m2 * inv_n1);
    result.energy_stddev_uj = std::sqrt(energy_m2 * inv_n1);
  }
  result.makespan_ci_us = util::confidence_interval_95(
      result.makespan_mean_us, result.makespan_stddev_us, ran);
  result.energy_ci_uj = util::confidence_interval_95(
      result.energy_mean_uj, result.energy_stddev_uj, ran);
  // Per-trial error weights are zeta-normalized into [0, 1], so the sum is
  // mathematically <= ran — but the serial accumulation can land an ulp
  // above it, which wilson_interval_95 rejects. Clamp the rounding noise,
  // not real accounting bugs (those exceed ran by whole weights).
  error_weight = std::min(error_weight, static_cast<double>(ran));
  result.error_prob = error_weight * inv_n;
  result.error_ci = util::wilson_interval_95(error_weight, ran);
}

double per_second(std::size_t trials, double elapsed_s) {
  return elapsed_s > 0.0 ? static_cast<double>(trials) / elapsed_s : 0.0;
}

}  // namespace

bool sim_results_identical(const SimResult& a, const SimResult& b) noexcept {
  return a.trials == b.trials &&                               //
         a.makespan_mean_us == b.makespan_mean_us &&           //
         a.makespan_stddev_us == b.makespan_stddev_us &&       //
         a.makespan_min_us == b.makespan_min_us &&             //
         a.makespan_max_us == b.makespan_max_us &&             //
         a.makespan_ci_us == b.makespan_ci_us &&               //
         a.error_prob == b.error_prob &&                       //
         a.error_ci == b.error_ci &&                           //
         a.energy_mean_uj == b.energy_mean_uj &&               //
         a.energy_stddev_uj == b.energy_stddev_uj &&           //
         a.energy_ci_uj == b.energy_ci_uj &&                   //
         a.deadline_us == b.deadline_us &&                     //
         a.deadline_miss_rate == b.deadline_miss_rate &&       //
         a.deadline_miss_ci == b.deadline_miss_ci &&           //
         a.mean_faults == b.mean_faults &&                     //
         a.mean_rollbacks == b.mean_rollbacks;
}

SimResult simulate_schedule(const app::TaskGraph& graph,
                            const platform::Architecture& architecture,
                            const std::vector<SimTask>& tasks,
                            const std::vector<std::size_t>& priority_order,
                            const SimOptions& options) {
  const std::size_t num_pes = architecture.num_pes();
  if (options.trials == 0) {
    throw std::invalid_argument("simulate_schedule: trials must be positive");
  }
  const Variant variant = prepare_variant(
      "simulate_schedule:", graph.num_tasks(), num_pes, tasks, priority_order);
  // Reject cyclic graphs up front (invalid_argument) instead of stalling
  // trials.
  (void)graph.topological_order();
  const std::vector<double> zeta = graph.normalized_criticality();

  double elapsed_s = 0.0;
  const std::vector<TrialOutcome> outcomes = run_trials(
      options.trials, options.seed, "sim.trial_batch", elapsed_s,
      [&](util::Rng& rng) {
        return run_trial(graph, architecture.interconnect(), variant, zeta,
                         num_pes, options.deadline_us, rng);
      });

  std::uint64_t miss_count = 0;
  for (const TrialOutcome& o : outcomes) miss_count += o.deadline_miss;
  {
    static util::Counter& runs_metric = util::metric_counter("sim.runs");
    static util::Counter& trials_metric = util::metric_counter("sim.trials");
    static util::Counter& misses_metric =
        util::metric_counter("sim.deadline_misses");
    runs_metric.add();
    trials_metric.add(options.trials);
    misses_metric.add(miss_count);
    util::observe_seconds("sim.batch_seconds", elapsed_s);
  }

  SimResult result;
  result.trials = options.trials;
  result.deadline_us = options.deadline_us;
  aggregate_ran_trials(outcomes, options.trials, result);
  const double inv_n = 1.0 / static_cast<double>(options.trials);
  result.makespan_min_us = outcomes.front().makespan_us;
  result.makespan_max_us = outcomes.front().makespan_us;
  for (const TrialOutcome& o : outcomes) {
    result.mean_faults += o.faults * inv_n;
    result.mean_rollbacks += o.rollbacks * inv_n;
    result.makespan_min_us = std::min(result.makespan_min_us, o.makespan_us);
    result.makespan_max_us = std::max(result.makespan_max_us, o.makespan_us);
  }
  if (options.deadline_us > 0.0) {
    const double misses = static_cast<double>(miss_count);
    result.deadline_miss_rate = misses * inv_n;
    result.deadline_miss_ci = util::wilson_interval_95(misses, options.trials);
  }
  result.trials_per_sec = per_second(options.trials, elapsed_s);
  return result;
}

// ------------------------------------------- permanent-fault injection

bool failure_sim_results_identical(const FailureSimResult& a,
                                   const FailureSimResult& b) noexcept {
  return a.trials == b.trials &&                          //
         a.available_trials == b.available_trials &&      //
         a.availability == b.availability &&              //
         a.availability_ci == b.availability_ci &&        //
         a.makespan_mean_us == b.makespan_mean_us &&      //
         a.makespan_stddev_us == b.makespan_stddev_us &&  //
         a.makespan_ci_us == b.makespan_ci_us &&          //
         a.error_prob == b.error_prob &&                  //
         a.error_ci == b.error_ci &&                      //
         a.energy_mean_uj == b.energy_mean_uj &&          //
         a.energy_stddev_uj == b.energy_stddev_uj &&      //
         a.energy_ci_uj == b.energy_ci_uj &&              //
         a.variant_trials == b.variant_trials;
}

FailureSimResult simulate_with_failures(
    const app::TaskGraph& graph, const platform::Architecture& architecture,
    const std::vector<SimVariant>& variants,
    const std::vector<std::vector<char>>& variant_failures,
    const FailureSimOptions& options) {
  const std::size_t num_pes = architecture.num_pes();
  if (variants.empty()) {
    throw std::invalid_argument("simulate_with_failures: no variants");
  }
  if (variant_failures.size() != variants.size()) {
    throw std::invalid_argument(
        "simulate_with_failures: variant/failure-mask count mismatch");
  }
  if (options.trials == 0) {
    throw std::invalid_argument(
        "simulate_with_failures: trials must be positive");
  }
  if (options.pe_failure_prob.size() != num_pes) {
    throw std::invalid_argument(
        "simulate_with_failures: PE failure probability count mismatch");
  }
  for (double q : options.pe_failure_prob) {
    if (!(q >= 0.0 && q <= 1.0)) {
      throw std::invalid_argument(
          "simulate_with_failures: PE failure probability outside [0, 1]");
    }
  }

  // Per-variant validation plus the mask table the trial loop dispatches on.
  std::map<std::vector<char>, std::size_t> variant_of_mask;
  std::vector<Variant> prepared;
  prepared.reserve(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::vector<char>& mask = variant_failures[v];
    if (mask.size() != num_pes) {
      throw std::invalid_argument(
          "simulate_with_failures: failure mask size mismatch");
    }
    if (v == 0 &&
        std::any_of(mask.begin(), mask.end(), [](char f) { return f != 0; })) {
      throw std::invalid_argument(
          "simulate_with_failures: variant 0 must carry the no-failure mask");
    }
    if (!variant_of_mask.emplace(mask, v).second) {
      throw std::invalid_argument(
          "simulate_with_failures: duplicate failure mask");
    }
    prepared.push_back(prepare_variant("simulate_with_failures: variant",
                                       graph.num_tasks(), num_pes,
                                       variants[v].tasks,
                                       variants[v].priority_order));
    for (const SimTask& task : variants[v].tasks) {
      if (mask[task.pe]) {
        throw std::invalid_argument(
            "simulate_with_failures: variant maps a task onto a PE its own "
            "failure mask kills");
      }
    }
  }
  // Reject cyclic graphs once — the graph is shared by every variant.
  (void)graph.topological_order();
  const std::vector<double> zeta = graph.normalized_criticality();

  // Inside each trial's stream the draw order is fixed: first one uniform
  // per PE in PE-id order (the mission survival draws), then — only if the
  // drawn failure set is covered — the executed variant's task trials.
  double elapsed_s = 0.0;
  const std::vector<TrialOutcome> outcomes = run_trials(
      options.trials, options.seed, "sim.failure_trial_batch", elapsed_s,
      [&](util::Rng& rng) {
        std::vector<char> mask(num_pes, 0);
        for (std::size_t p = 0; p < num_pes; ++p) {
          mask[p] = rng.uniform() < options.pe_failure_prob[p] ? 1 : 0;
        }
        const auto it = variant_of_mask.find(mask);
        if (it == variant_of_mask.end()) return TrialOutcome{};  // unavailable
        TrialOutcome out =
            run_trial(graph, architecture.interconnect(), prepared[it->second],
                      zeta, num_pes, /*deadline_us=*/0.0, rng);
        out.variant = it->second;
        return out;
      });

  FailureSimResult result;
  result.trials = options.trials;
  result.variant_trials.assign(variants.size(), 0);
  for (const TrialOutcome& o : outcomes) {
    if (!o.ran) continue;
    ++result.available_trials;
    ++result.variant_trials[o.variant];
  }
  {
    static util::Counter& runs_metric =
        util::metric_counter("sim.failure_runs");
    static util::Counter& trials_metric =
        util::metric_counter("sim.failure_trials");
    static util::Counter& lost_metric =
        util::metric_counter("sim.unavailable_trials");
    runs_metric.add();
    trials_metric.add(options.trials);
    lost_metric.add(options.trials - result.available_trials);
    util::observe_seconds("sim.failure_batch_seconds", elapsed_s);
  }
  result.availability = static_cast<double>(result.available_trials) /
                        static_cast<double>(options.trials);
  result.availability_ci = util::wilson_interval_95(
      static_cast<double>(result.available_trials), options.trials);
  aggregate_ran_trials(outcomes, result.available_trials, result);
  result.trials_per_sec = per_second(options.trials, elapsed_s);
  return result;
}

}  // namespace clrearly::sim
