// Determinism guarantee of the parallel evaluation engine: because the RNG
// is consumed only in the serial variation phase and evaluation is pure,
// every DSE flow must produce bit-identical fronts and evaluation counts at
// any thread count. These tests pin serial (1 thread) against
// parallel (4 threads) runs of all three flows on the paper's Sobel
// application (the models/sobel.json system model).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "app/mjpeg.hpp"
#include "app/sobel.hpp"
#include "core/dse.hpp"
#include "core/heuristics.hpp"
#include "moea/nsga2.hpp"
#include "core/sim_bridge.hpp"
#include "platform/architecture.hpp"
#include "sim/schedule_sim.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace clrearly {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { util::set_log_level(util::LogLevel::Warn); }
  void TearDown() override { util::set_thread_count(0); }

  static core::DseOptions options() {
    core::DseOptions o;
    o.ga.population_size = 24;
    o.ga.generations = 8;
    o.seed = 7;
    return o;
  }

  static core::DseMethodology methodology() {
    return core::DseMethodology(app::make_sobel_application(),
                                platform::Architecture::paper_default(),
                                reliability::TaskAnalyzer::paper_default());
  }

  static void expect_identical(const core::DseOutcome& serial,
                               const core::DseOutcome& parallel) {
    EXPECT_EQ(serial.evaluations, parallel.evaluations);
    ASSERT_EQ(serial.front.size(), parallel.front.size());
    for (std::size_t i = 0; i < serial.front.size(); ++i) {
      EXPECT_EQ(serial.front[i], parallel.front[i]) << "front point " << i;
    }
    ASSERT_EQ(serial.front_genomes.size(), parallel.front_genomes.size());
    for (std::size_t i = 0; i < serial.front_genomes.size(); ++i) {
      EXPECT_EQ(serial.front_genomes[i], parallel.front_genomes[i])
          << "front genome " << i;
    }
  }
};

TEST_F(DeterminismTest, FcClrFlowIsThreadCountInvariant) {
  const core::DseMethodology dse = methodology();
  util::set_thread_count(1);
  const core::DseOutcome serial = dse.run_fcclr(options());
  util::set_thread_count(4);
  const core::DseOutcome parallel = dse.run_fcclr(options());
  ASSERT_FALSE(serial.front.empty());
  expect_identical(serial, parallel);
}

TEST_F(DeterminismTest, PfClrFlowIsThreadCountInvariant) {
  const core::DseMethodology dse = methodology();
  util::set_thread_count(1);
  const core::DseOutcome serial = dse.run_pfclr(options());
  util::set_thread_count(4);
  const core::DseOutcome parallel = dse.run_pfclr(options());
  ASSERT_FALSE(serial.front.empty());
  expect_identical(serial, parallel);
}

TEST_F(DeterminismTest, ProposedFlowIsThreadCountInvariant) {
  const core::DseMethodology dse = methodology();
  util::set_thread_count(1);
  const core::DseOutcome serial = dse.run_proposed(options());
  util::set_thread_count(4);
  const core::DseOutcome parallel = dse.run_proposed(options());
  ASSERT_FALSE(serial.front.empty());
  expect_identical(serial, parallel);
}

TEST_F(DeterminismTest, KResilientFlowIsThreadCountInvariant) {
  // The permanent-fault flow wraps fcCLR evaluation in the k-resilience
  // certification (repair + degraded scoring per failure set) — all pure
  // functions of the genome, so the guarantee must carry over unchanged.
  const core::DseMethodology dse = methodology();
  core::DseOptions o = options();
  o.resilience.max_failures = 1;
  util::set_thread_count(1);
  const core::DseOutcome serial = dse.run_kresilient(o);
  util::set_thread_count(4);
  const core::DseOutcome parallel = dse.run_kresilient(o);
  ASSERT_FALSE(serial.front.empty());
  expect_identical(serial, parallel);
}

TEST_F(DeterminismTest, FailureInjectionIsThreadCountInvariant) {
  // Permanent-fault Monte Carlo: PE-loss draws are a fixed prefix of each
  // trial's split stream, so injection runs are bit-identical at any thread
  // count just like the plain simulator.
  const core::DseMethodology dse = methodology();
  core::DseOptions o = options();
  o.resilience.max_failures = 1;
  util::set_thread_count(1);
  const core::DseOutcome outcome = dse.run_kresilient(o);
  ASSERT_FALSE(outcome.front_genomes.empty());
  const core::ResilientProblem problem = dse.build_resilient_problem(o);
  const core::MappingGenome& genome = outcome.front_genomes.front();

  const sim::FailureSimResult serial =
      core::simulate_resilient_design_point(problem, genome, 4000, 7);
  util::set_thread_count(4);
  const sim::FailureSimResult parallel =
      core::simulate_resilient_design_point(problem, genome, 4000, 7);

  EXPECT_TRUE(sim::failure_sim_results_identical(serial, parallel));
  EXPECT_GT(serial.available_trials, 0u);
}

TEST_F(DeterminismTest, TdseResultsAreThreadCountInvariant) {
  const core::DseMethodology dse = methodology();
  util::set_thread_count(1);
  const auto serial = dse.run_tdse(options());
  util::set_thread_count(4);
  const auto parallel = dse.run_tdse(options());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t type = 0; type < serial.size(); ++type) {
    ASSERT_EQ(serial[type].enumerated.size(), parallel[type].enumerated.size());
    ASSERT_EQ(serial[type].pareto.size(), parallel[type].pareto.size());
    for (std::size_t i = 0; i < serial[type].pareto.size(); ++i) {
      const core::TaskDesignPoint& a = serial[type].pareto[i];
      const core::TaskDesignPoint& b = parallel[type].pareto[i];
      EXPECT_EQ(a.impl_index, b.impl_index);
      EXPECT_EQ(a.pe_type, b.pe_type);
      EXPECT_EQ(a.config.hw, b.config.hw);
      EXPECT_EQ(a.config.ssw, b.config.ssw);
      EXPECT_EQ(a.config.asw, b.config.asw);
      EXPECT_EQ(a.config.dvfs, b.config.dvfs);
      EXPECT_EQ(a.metrics.avg_exec_time_us, b.metrics.avg_exec_time_us);
      EXPECT_EQ(a.metrics.error_prob, b.metrics.error_prob);
      EXPECT_EQ(a.metrics.mttf_hours, b.metrics.mttf_hours);
    }
  }
}

TEST_F(DeterminismTest, ScheduleSimulatorIsThreadCountInvariant) {
  // The Monte Carlo schedule simulator carries the same guarantee as the
  // evaluation engine: per-trial split RNG streams and per-index outcome
  // slots make a (seed, trials) run bit-identical at any thread count.
  const app::Application sobel = app::make_sobel_application();
  const platform::Architecture arch = platform::Architecture::paper_default();
  const core::ClrMappingProblem problem(
      sobel, arch, reliability::TaskAnalyzer::paper_default(),
      core::SystemObjectives{}, sched::QosSpec{});

  const core::DseMethodology dse = methodology();
  util::set_thread_count(1);
  const core::DseOutcome outcome = dse.run_fcclr(options());
  ASSERT_FALSE(outcome.front_genomes.empty());
  const core::MappingGenome& genome = outcome.front_genomes.front();

  sim::SimOptions sim_options;
  sim_options.trials = 4000;
  sim_options.seed = 7;
  const sim::SimResult serial =
      core::simulate_design_point(problem, genome, sim_options);
  util::set_thread_count(4);
  const sim::SimResult parallel =
      core::simulate_design_point(problem, genome, sim_options);

  EXPECT_TRUE(sim::sim_results_identical(serial, parallel));
  EXPECT_GT(serial.makespan_mean_us, 0.0);
}

TEST_F(DeterminismTest, FcclrMatchesHandRolledNsga2) {
  // run_fcclr must reproduce the engine loop spelled out by hand bit for
  // bit: same heuristic seeding, same RNG stream, same front. Pinned on both
  // paper applications.
  for (const app::Application& application :
       {app::make_sobel_application(), app::make_mjpeg_application()}) {
    const core::DseMethodology dse(application,
                                   platform::Architecture::paper_default(),
                                   reliability::TaskAnalyzer::paper_default());
    core::DseOptions o = options();
    o.heuristic_seed = true;  // run_fcclr only seeds with HEFT when asked to
    const core::ClrMappingProblem problem = dse.build_fcclr_problem(o);

    // The single-population search spelled out on the engine.
    util::Rng rng(o.seed);
    std::vector<core::MappingGenome> seeds{core::heft_clr_mapping(problem).genome};
    const auto ops = problem.ops(o.ga.mutation_indpb);
    moea::Nsga2Engine<core::MappingGenome> engine(o.ga, ops, rng,
                                                  std::move(seeds));
    while (!engine.done()) engine.advance();
    const auto direct = engine.finish();

    // Mirror DseMethodology::collect: feasible front members, each distinct
    // objective vector reported once, in front order.
    std::vector<moea::Objectives> expected_front;
    std::vector<core::MappingGenome> expected_genomes;
    for (std::size_t i : direct.front) {
      if (direct.population[i].eval.violation > 0.0) continue;
      const moea::Objectives& obj = direct.population[i].eval.objectives;
      if (std::find(expected_front.begin(), expected_front.end(), obj) !=
          expected_front.end()) {
        continue;
      }
      expected_front.push_back(obj);
      expected_genomes.push_back(direct.population[i].genome);
    }

    const core::DseOutcome via_dse = dse.run_fcclr(o, problem);
    EXPECT_EQ(via_dse.evaluations, direct.evaluations);
    EXPECT_EQ(via_dse.front, expected_front);
    EXPECT_EQ(via_dse.front_genomes, expected_genomes);
  }
}

TEST_F(DeterminismTest, GaPopulationIsThreadCountInvariant) {
  // Below the DseOutcome surface: the GA's final population — every
  // genome, objective vector and violation — must match member for member
  // between serial and parallel runs.
  const app::Application sobel = app::make_sobel_application();
  const platform::Architecture arch = platform::Architecture::paper_default();
  const core::ClrMappingProblem problem(
      sobel, arch, reliability::TaskAnalyzer::paper_default(),
      core::SystemObjectives{}, sched::QosSpec{});

  moea::Nsga2Params params;
  params.population_size = 24;
  params.generations = 8;

  util::set_thread_count(1);
  util::Rng rng_serial(7);
  const auto serial = moea::run_nsga2(params, problem.ops(), rng_serial);

  util::set_thread_count(4);
  util::Rng rng_parallel(7);
  const auto parallel = moea::run_nsga2(params, problem.ops(), rng_parallel);

  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  ASSERT_EQ(serial.population.size(), parallel.population.size());
  for (std::size_t i = 0; i < serial.population.size(); ++i) {
    EXPECT_EQ(serial.population[i].genome, parallel.population[i].genome);
    EXPECT_EQ(serial.population[i].eval.objectives,
              parallel.population[i].eval.objectives);
    EXPECT_EQ(serial.population[i].eval.violation,
              parallel.population[i].eval.violation);
  }
  ASSERT_EQ(serial.front.size(), parallel.front.size());
  for (std::size_t i = 0; i < serial.front.size(); ++i) {
    EXPECT_EQ(serial.population[serial.front[i]].eval.objectives,
              parallel.population[parallel.front[i]].eval.objectives);
  }
}

TEST_F(DeterminismTest, ProgressReportsAreThreadCountInvariant) {
  // Every progress report — each GenerationProgress field — must match
  // between serial and parallel runs, where variation is pipelined with
  // evaluation.
  const core::ClrMappingProblem problem(
      app::make_sobel_application(), platform::Architecture::paper_default(),
      reliability::TaskAnalyzer::paper_default(), core::SystemObjectives{},
      sched::QosSpec{});
  struct Report {
    std::size_t generation = 0;
    std::size_t generations = 0;
    std::size_t evaluations = 0;
    std::size_t front_size = 0;
    double hv_proxy = 0.0;
  };
  const auto record = [&](std::size_t threads) {
    util::set_thread_count(threads);
    std::vector<Report> reports;
    moea::Nsga2Params params;
    params.population_size = 24;
    params.generations = 8;
    params.on_generation = [&](const moea::GenerationProgress& progress) {
      reports.push_back({progress.generation, progress.generations,
                         progress.evaluations, progress.front_size,
                         progress.hv_proxy});
    };
    util::Rng rng(7);
    moea::run_nsga2(params, problem.ops(), rng);
    return reports;
  };

  const std::vector<Report> serial = record(1);
  const std::vector<Report> parallel = record(4);
  ASSERT_EQ(serial.size(), 9u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].generation, parallel[r].generation) << "report " << r;
    EXPECT_EQ(serial[r].generations, parallel[r].generations)
        << "report " << r;
    EXPECT_EQ(serial[r].evaluations, parallel[r].evaluations)
        << "report " << r;
    EXPECT_EQ(serial[r].front_size, parallel[r].front_size) << "report " << r;
    EXPECT_EQ(serial[r].hv_proxy, parallel[r].hv_proxy) << "report " << r;
  }
}

}  // namespace
}  // namespace clrearly
