#include "sim/schedule_sim.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "app/task_graph.hpp"
#include "platform/architecture.hpp"
#include "platform/interconnect.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::sim {
namespace {

platform::Architecture make_arch(std::size_t num_pes) {
  platform::Architecture arch;
  platform::PeType type;
  type.name = "core";
  type.masking_factor = 0.2;
  type.dvfs = platform::DvfsTable::paper_default();
  const std::size_t t = arch.add_type(type);
  for (std::size_t i = 0; i < num_pes; ++i) arch.add_pe(t);
  return arch;
}

/// Fault-free chain parameters: every trial executes in exactly `exec_us`.
SimTask fixed_task(double exec_us, std::size_t pe, double power_w = 1.0) {
  SimTask task;
  task.chain.exec_time_us = exec_us;
  task.pe = pe;
  task.power_w = power_w;
  return task;
}

/// A task that corrupts on every single trial (p_fault rounds to exactly 1
/// in double precision, and nothing masks, detects or tolerates).
SimTask always_corrupted_task(double exec_us, std::size_t pe) {
  SimTask task = fixed_task(exec_us, pe);
  task.chain.lambda_per_us = 10.0;  // 1 - exp(-10 * exec) == 1.0 exactly
  return task;
}

/// A task whose execution time and outcome are genuinely random: faults are
/// frequent and detected faults roll the interval back.
SimTask stochastic_task(double exec_us, std::size_t pe) {
  SimTask task = fixed_task(exec_us, pe);
  task.chain.lambda_per_us = 0.02;
  task.chain.detection_coverage = 0.9;
  task.chain.tolerance_success = 0.9;
  task.chain.asw_masking = 0.2;
  task.chain.intervals = 2;
  task.chain.detection_time_us = 0.5;
  task.chain.tolerance_time_us = 1.0;
  task.chain.checkpoint_time_us = 0.5;
  return task;
}

TEST(ScheduleSimTest, ValidatesInputs) {
  app::TaskGraph graph;
  graph.add_task(0, "a");
  graph.add_task(0, "b");
  graph.add_edge(0, 1);
  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{fixed_task(1.0, 0), fixed_task(1.0, 1)};
  const std::vector<std::size_t> order{0, 1};
  SimOptions options;
  options.trials = 10;

  // Task count mismatch.
  EXPECT_THROW(simulate_schedule(graph, arch, {fixed_task(1.0, 0)}, order,
                                 options),
               std::invalid_argument);
  // Priority order size mismatch.
  EXPECT_THROW(simulate_schedule(graph, arch, tasks, {0}, options),
               std::invalid_argument);
  // Priority order not a permutation.
  EXPECT_THROW(simulate_schedule(graph, arch, tasks, {0, 0}, options),
               std::invalid_argument);
  EXPECT_THROW(simulate_schedule(graph, arch, tasks, {0, 5}, options),
               std::invalid_argument);
  // PE index out of range.
  EXPECT_THROW(simulate_schedule(graph, arch,
                                 {fixed_task(1.0, 0), fixed_task(1.0, 2)},
                                 order, options),
               std::invalid_argument);
  // Zero trials.
  SimOptions no_trials;
  no_trials.trials = 0;
  EXPECT_THROW(simulate_schedule(graph, arch, tasks, order, no_trials),
               std::invalid_argument);
  // Bad chain parameters surface through the sampler's validation.
  std::vector<SimTask> bad_chain = tasks;
  bad_chain[0].chain.exec_time_us = -1.0;
  EXPECT_THROW(simulate_schedule(graph, arch, bad_chain, order, options),
               std::invalid_argument);
}

TEST(ScheduleSimTest, BothSimulatorsRejectCyclicGraphs) {
  // The same inputs run on a chain a -> b -> c; closing it into a cycle
  // must make both entry points throw before any trial runs.
  app::TaskGraph chain;
  chain.add_task(0, "a");
  chain.add_task(0, "b");
  chain.add_task(0, "c");
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  app::TaskGraph cyclic = chain;
  cyclic.add_edge(2, 0);

  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{fixed_task(1.0, 0), fixed_task(1.0, 1),
                                   fixed_task(1.0, 0)};
  const std::vector<std::size_t> order{0, 1, 2};
  SimOptions options;
  options.trials = 10;
  const std::vector<SimVariant> variants{SimVariant{tasks, order}};
  const std::vector<std::vector<char>> masks{std::vector<char>(2, 0)};
  FailureSimOptions failure_options;
  failure_options.trials = 10;
  failure_options.pe_failure_prob = {0.0, 0.0};

  EXPECT_NO_THROW(simulate_schedule(chain, arch, tasks, order, options));
  EXPECT_NO_THROW(
      simulate_with_failures(chain, arch, variants, masks, failure_options));
  EXPECT_THROW(simulate_schedule(cyclic, arch, tasks, order, options),
               std::invalid_argument);
  EXPECT_THROW(
      simulate_with_failures(cyclic, arch, variants, masks, failure_options),
      std::invalid_argument);
}

TEST(ScheduleSimTest, FaultFreeChainMatchesHandComputation) {
  // t0(10us, PE0) -> t1(20us, PE0) -> t2(5us, PE1), no communication model:
  // a fully deterministic makespan of 35us and energy of 10*2 + 20*1 + 5*4.
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  graph.add_task(0, "t1");
  graph.add_task(0, "t2");
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{fixed_task(10.0, 0, 2.0),
                                   fixed_task(20.0, 0, 1.0),
                                   fixed_task(5.0, 1, 4.0)};
  SimOptions options;
  options.trials = 64;
  options.seed = 3;

  const SimResult r = simulate_schedule(graph, arch, tasks, {0, 1, 2}, options);
  EXPECT_EQ(r.trials, 64u);
  EXPECT_DOUBLE_EQ(r.makespan_mean_us, 35.0);
  EXPECT_DOUBLE_EQ(r.makespan_min_us, 35.0);
  EXPECT_DOUBLE_EQ(r.makespan_max_us, 35.0);
  EXPECT_DOUBLE_EQ(r.makespan_stddev_us, 0.0);
  EXPECT_EQ(r.makespan_ci_us, (util::Interval{35.0, 35.0}));
  EXPECT_DOUBLE_EQ(r.energy_mean_uj, 60.0);
  EXPECT_DOUBLE_EQ(r.energy_stddev_uj, 0.0);
  EXPECT_DOUBLE_EQ(r.error_prob, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_faults, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_rollbacks, 0.0);
  EXPECT_GT(r.trials_per_sec, 0.0);
}

TEST(ScheduleSimTest, PeContentionSerializesCoLocatedTasks) {
  // Fork t0 -> {t1, t2}: on one PE the branches serialize (10+20+5); with t2
  // moved to its own PE they overlap (10 + max(20, 5)).
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  graph.add_task(0, "t1");
  graph.add_task(0, "t2");
  graph.add_edge(0, 1);
  graph.add_edge(0, 2);
  SimOptions options;
  options.trials = 8;

  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> serial{fixed_task(10.0, 0), fixed_task(20.0, 0),
                                    fixed_task(5.0, 0)};
  EXPECT_DOUBLE_EQ(
      simulate_schedule(graph, arch, serial, {0, 1, 2}, options)
          .makespan_mean_us,
      35.0);

  const std::vector<SimTask> spread{fixed_task(10.0, 0), fixed_task(20.0, 0),
                                    fixed_task(5.0, 1)};
  EXPECT_DOUBLE_EQ(
      simulate_schedule(graph, arch, spread, {0, 1, 2}, options)
          .makespan_mean_us,
      30.0);
}

TEST(ScheduleSimTest, PriorityOrderDecidesDispatch) {
  // a(10us) and b(1us) compete for PE0; c(1us, PE1) waits on b. Running a
  // first pushes b and then c past it (10 + 1 + 1 = 12); running b first
  // hides both behind a (1 + 10 = 11).
  app::TaskGraph graph;
  graph.add_task(0, "a");
  graph.add_task(0, "b");
  graph.add_task(0, "c");
  graph.add_edge(1, 2);
  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{fixed_task(10.0, 0), fixed_task(1.0, 0),
                                   fixed_task(1.0, 1)};
  SimOptions options;
  options.trials = 8;

  EXPECT_DOUBLE_EQ(
      simulate_schedule(graph, arch, tasks, {0, 1, 2}, options)
          .makespan_mean_us,
      12.0);
  EXPECT_DOUBLE_EQ(
      simulate_schedule(graph, arch, tasks, {1, 0, 2}, options)
          .makespan_mean_us,
      11.0);
}

TEST(ScheduleSimTest, CrossPeEdgesPayTheInterconnect) {
  // 4 KB over a 1 KB/us link with 2us setup: +6us when producer and
  // consumer sit on different PEs, free when co-located.
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  graph.add_task(0, "t1");
  graph.add_edge(0, 1, 4.0);
  platform::Architecture arch = make_arch(2);
  platform::Interconnect link;
  link.bandwidth_kb_per_us = 1.0;
  link.latency_us = 2.0;
  arch.set_interconnect(link);
  SimOptions options;
  options.trials = 8;

  const std::vector<SimTask> split{fixed_task(10.0, 0), fixed_task(5.0, 1)};
  EXPECT_DOUBLE_EQ(
      simulate_schedule(graph, arch, split, {0, 1}, options).makespan_mean_us,
      21.0);
  const std::vector<SimTask> local{fixed_task(10.0, 0), fixed_task(5.0, 0)};
  EXPECT_DOUBLE_EQ(
      simulate_schedule(graph, arch, local, {0, 1}, options).makespan_mean_us,
      15.0);
}

TEST(ScheduleSimTest, ErrorProbabilityIsCriticalityWeighted) {
  // Task 0 (criticality 1) corrupts every trial, task 1 (criticality 3)
  // never does: the weighted error probability is exactly zeta_0 = 0.25.
  app::TaskGraph graph;
  graph.add_task(0, "fragile", 1.0);
  graph.add_task(0, "safe", 3.0);
  const platform::Architecture arch = make_arch(1);
  const std::vector<SimTask> tasks{always_corrupted_task(10.0, 0),
                                   fixed_task(10.0, 0)};
  SimOptions options;
  options.trials = 256;

  const SimResult r = simulate_schedule(graph, arch, tasks, {0, 1}, options);
  EXPECT_DOUBLE_EQ(r.error_prob, 0.25);
  EXPECT_TRUE(r.error_ci.contains(0.25));
  // The fragile task takes exactly one (unmasked, untolerated) fault per
  // trial; the safe task none.
  EXPECT_DOUBLE_EQ(r.mean_faults, 1.0);
}

TEST(ScheduleSimTest, DeadlineAccounting) {
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  const platform::Architecture arch = make_arch(1);
  const std::vector<SimTask> tasks{fixed_task(10.0, 0)};
  SimOptions options;
  options.trials = 32;

  // No deadline: accounting disabled.
  SimResult r = simulate_schedule(graph, arch, tasks, {0}, options);
  EXPECT_DOUBLE_EQ(r.deadline_us, 0.0);
  EXPECT_DOUBLE_EQ(r.deadline_miss_rate, 0.0);
  EXPECT_EQ(r.deadline_miss_ci, (util::Interval{0.0, 0.0}));

  // Generous deadline: never missed.
  options.deadline_us = 20.0;
  r = simulate_schedule(graph, arch, tasks, {0}, options);
  EXPECT_DOUBLE_EQ(r.deadline_us, 20.0);
  EXPECT_DOUBLE_EQ(r.deadline_miss_rate, 0.0);
  EXPECT_GT(r.deadline_miss_ci.hi, 0.0);  // Wilson never collapses at p = 0

  // Impossible deadline: always missed.
  options.deadline_us = 5.0;
  r = simulate_schedule(graph, arch, tasks, {0}, options);
  EXPECT_DOUBLE_EQ(r.deadline_miss_rate, 1.0);
  EXPECT_TRUE(r.deadline_miss_ci.contains(1.0));
}

TEST(ScheduleSimTest, SimResultsIdenticalIgnoresThroughputOnly) {
  app::TaskGraph graph;
  graph.add_task(0, "t0");
  const platform::Architecture arch = make_arch(1);
  const std::vector<SimTask> tasks{stochastic_task(50.0, 0)};
  SimOptions options;
  options.trials = 500;
  options.seed = 17;

  const SimResult a = simulate_schedule(graph, arch, tasks, {0}, options);
  SimResult b = a;
  b.trials_per_sec = a.trials_per_sec * 3.0 + 1.0;
  EXPECT_TRUE(sim_results_identical(a, b));
  b.makespan_mean_us += 1e-12;
  EXPECT_FALSE(sim_results_identical(a, b));

  SimOptions reseeded = options;
  reseeded.seed = 18;
  const SimResult c = simulate_schedule(graph, arch, tasks, {0}, reseeded);
  EXPECT_FALSE(sim_results_identical(a, c));
}

TEST(ScheduleSimTest, BitIdenticalAcrossThreadCounts) {
  // The determinism contract: per-trial split streams + per-index outcome
  // slots + serial aggregation make the result independent of the thread
  // count that executed the trial loop.
  app::TaskGraph graph;
  graph.add_task(0, "t0", 2.0);
  graph.add_task(0, "t1", 1.0);
  graph.add_task(0, "t2", 1.0);
  graph.add_task(0, "t3", 3.0);
  graph.add_edge(0, 1, 2.0);
  graph.add_edge(0, 2, 1.0);
  graph.add_edge(1, 3);
  graph.add_edge(2, 3);
  const platform::Architecture arch = make_arch(2);
  const std::vector<SimTask> tasks{
      stochastic_task(40.0, 0), stochastic_task(60.0, 0),
      stochastic_task(55.0, 1), stochastic_task(30.0, 1)};
  SimOptions options;
  options.trials = 2000;
  options.seed = 23;
  options.deadline_us = 200.0;

  util::set_thread_count(1);
  const SimResult serial =
      simulate_schedule(graph, arch, tasks, {0, 2, 1, 3}, options);
  util::set_thread_count(4);
  const SimResult parallel =
      simulate_schedule(graph, arch, tasks, {0, 2, 1, 3}, options);
  util::set_thread_count(0);

  EXPECT_TRUE(sim_results_identical(serial, parallel));
  EXPECT_GT(serial.makespan_stddev_us, 0.0);  // the scenario is stochastic
  EXPECT_GT(serial.mean_faults, 0.0);
}

}  // namespace
}  // namespace clrearly::sim
