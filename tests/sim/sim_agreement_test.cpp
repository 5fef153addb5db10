// Satellite oracle check: on a chain-structured scenario the analytic QoS
// pipeline is exact (no parallel merges, so no Jensen bias — the makespan
// expectation is the sum of the per-task Markov expectations and the
// variances add along the single path). The Monte Carlo simulator must
// therefore reproduce every analytic QosMetrics figure within its own
// reported confidence intervals. Both sides are fed the *same*
// ClrChainParams, so this pins the whole stack: sampler vs chains, DES vs
// list schedule, weighted error estimator vs TABLE III aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "app/sobel.hpp"
#include "app/task_graph.hpp"
#include "core/dse.hpp"
#include "core/experiment.hpp"
#include "core/sim_bridge.hpp"
#include "platform/architecture.hpp"
#include "platform/interconnect.hpp"
#include "reliability/clr_chain_builder.hpp"
#include "sched/qos.hpp"
#include "sim/schedule_sim.hpp"
#include "sim/validate.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::sim {
namespace {

struct Scenario {
  app::Application application;
  platform::Architecture arch;
  std::vector<sched::TaskDecision> decisions;
  std::vector<SimTask> tasks;
  std::vector<std::size_t> order{0, 1, 2};
};

reliability::ClrChainParams chain_params(double exec_us, double lambda) {
  reliability::ClrChainParams p;
  p.exec_time_us = exec_us;
  p.lambda_per_us = lambda;
  p.hw_masking = 0.2;
  p.implicit_ssw_masking = 0.05;
  p.detection_coverage = 0.85;
  p.tolerance_success = 0.9;
  p.asw_masking = 0.1;
  p.intervals = 3;
  p.detection_time_us = 0.02 * exec_us;
  p.tolerance_time_us = 0.05 * exec_us;
  p.checkpoint_time_us = 0.01 * exec_us;
  p.checkpoint_error_prob = 5e-4;
  return p;
}

/// Chain t0(PE0) -> t1(PE1) -> t2(PE0) with the communication model on, so
/// the cross-PE transfers exercise sched::data_arrival_us in both paths.
Scenario make_chain_scenario() {
  Scenario s;
  s.application.name = "chain3";
  app::TaskGraph& graph = s.application.graph;
  graph.add_task(0, "t0", 1.0);
  graph.add_task(1, "t1", 2.0);
  graph.add_task(2, "t2", 1.5);
  graph.add_edge(0, 1, 8.0);
  graph.add_edge(1, 2, 4.0);

  platform::PeType type;
  type.name = "core";
  type.masking_factor = 0.3;
  type.dvfs = platform::DvfsTable::paper_default();
  const std::size_t t = s.arch.add_type(type);
  s.arch.add_pe(t);
  s.arch.add_pe(t);
  platform::Interconnect link;
  link.bandwidth_kb_per_us = 2.0;
  link.latency_us = 1.0;
  s.arch.set_interconnect(link);

  const double execs[3] = {120.0, 200.0, 80.0};
  const double lambdas[3] = {2e-3, 1.5e-3, 3e-3};
  const double powers[3] = {0.8, 1.2, 0.6};
  const std::size_t pes[3] = {0, 1, 0};
  for (std::size_t i = 0; i < 3; ++i) {
    const reliability::ClrChainParams params =
        chain_params(execs[i], lambdas[i]);
    const reliability::ClrChainAnalysis chain =
        reliability::analyze_clr_chain(params);

    sched::TaskDecision decision;
    decision.pe = pes[i];
    decision.metrics.min_exec_time_us = chain.min_exec_time_us;
    decision.metrics.avg_exec_time_us = chain.avg_exec_time_us;
    decision.metrics.exec_time_stddev_us = chain.exec_time_stddev_us;
    decision.metrics.error_prob = chain.error_prob;
    decision.metrics.avg_power_w = powers[i];
    decision.metrics.energy_uj = chain.avg_exec_time_us * powers[i];
    decision.metrics.mttf_hours = 1e5;
    s.decisions.push_back(decision);

    s.tasks.push_back(SimTask{params, pes[i], powers[i]});
  }
  return s;
}

class SimAgreementTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(make_chain_scenario());
    analytic_ = sched::estimate_qos(scenario_->application, scenario_->arch,
                                    scenario_->decisions, scenario_->order);
    SimOptions options;
    options.trials = 20000;
    options.seed = 5;
    options.deadline_us = analytic_->makespan_us;
    simulated_ = simulate_schedule(scenario_->application.graph,
                                   scenario_->arch, scenario_->tasks,
                                   scenario_->order, options);
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
    analytic_.reset();
    simulated_.reset();
  }

  static Scenario* scenario_;
  static std::optional<sched::QosMetrics> analytic_;
  static std::optional<SimResult> simulated_;
};

Scenario* SimAgreementTest::scenario_ = nullptr;
std::optional<sched::QosMetrics> SimAgreementTest::analytic_;
std::optional<SimResult> SimAgreementTest::simulated_;

TEST_F(SimAgreementTest, MakespanMeanWithinConfidenceInterval) {
  // Chain structure: the analytic makespan is the exact expectation, so the
  // simulator's 95% CI must cover it (deterministic for the fixed seed).
  EXPECT_TRUE(simulated_->makespan_ci_us.contains(analytic_->makespan_us))
      << "analytic " << analytic_->makespan_us << " vs CI ["
      << simulated_->makespan_ci_us.lo << ", " << simulated_->makespan_ci_us.hi
      << "]";
}

TEST_F(SimAgreementTest, MakespanSpreadMatchesAnalyticStddev) {
  // Variances add along the (single) critical path, so the analytic stddev
  // is exact too; 20k trials estimate it to a few percent.
  EXPECT_NEAR(simulated_->makespan_stddev_us, analytic_->makespan_stddev_us,
              0.10 * analytic_->makespan_stddev_us);
  EXPECT_GT(analytic_->makespan_stddev_us, 0.0);
}

TEST_F(SimAgreementTest, ErrorProbabilityWithinWilsonInterval) {
  // The weighted per-trial estimator is unbiased for sum_t zeta_t ErrProb_t
  // = analytic error_prob; the Wilson interval (conservative for weighted
  // outcomes) must cover it.
  EXPECT_TRUE(simulated_->error_ci.contains(analytic_->error_prob))
      << "analytic " << analytic_->error_prob << " vs Wilson ["
      << simulated_->error_ci.lo << ", " << simulated_->error_ci.hi << "]";
  EXPECT_GT(analytic_->error_prob, 0.0);
}

TEST_F(SimAgreementTest, EnergyWithinConfidenceInterval) {
  // Energy is a sum of independent per-task terms — unbiased on both sides.
  EXPECT_TRUE(simulated_->energy_ci_uj.contains(analytic_->energy_uj))
      << "analytic " << analytic_->energy_uj << " vs CI ["
      << simulated_->energy_ci_uj.lo << ", " << simulated_->energy_ci_uj.hi
      << "]";
}

TEST_F(SimAgreementTest, DeadlineMissRateBracketsNormalApproximation) {
  // The deadline sits at the analytic mean, where the normal approximation
  // says 0.5. The rollback-inflated time law is right-skewed (median below
  // mean), so the simulated miss rate lands *under* 0.5 — by a bounded
  // margin that measures exactly the error the normal approximation makes.
  const double analytic_miss = sched::deadline_miss_probability(
      *analytic_, simulated_->deadline_us);
  EXPECT_DOUBLE_EQ(analytic_miss, 0.5);
  EXPECT_LT(simulated_->deadline_miss_rate, 0.5);
  EXPECT_NEAR(simulated_->deadline_miss_rate, analytic_miss, 0.25);
  EXPECT_GT(simulated_->deadline_miss_rate, 0.1);
}

TEST_F(SimAgreementTest, CompareDesignPointAgreesOnBothCriteria) {
  // The bench's agreement scoring must accept this exact-by-construction
  // scenario outright.
  const ValidationRow row =
      compare_design_point("chain3", *analytic_, *simulated_);
  EXPECT_TRUE(row.makespan_agrees);
  EXPECT_TRUE(row.error_agrees);
  EXPECT_TRUE(row.agrees());
  EXPECT_LE(std::abs(row.makespan_delta_us), row.makespan_tolerance_us);
}

// ------------------------------------------- permanent-fault injection

/// Degraded chain3 variant with every task forced onto `pe` (the repaired
/// mapping after the other PE is lost). Same chain params and powers, so the
/// analytic QoS of the variant is exact on the chain structure too.
Scenario make_degraded_scenario(std::size_t pe) {
  Scenario s = make_chain_scenario();
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    s.tasks[i].pe = pe;
    s.decisions[i].pe = pe;
  }
  return s;
}

/// Chain fixture under permanent PE loss with deliberately large loss
/// probabilities (q0=0.3, q1=0.2): both single-failure sets are covered by a
/// degraded variant, only the double failure is mission loss, so
///   availability = 1 - q0*q1 = 0.94
/// and every conditional statistic is the exact probability mixture of the
/// three per-variant analytic QosMetrics — all chain-exact.
class PermanentFaultAgreementTest : public ::testing::Test {
 protected:
  static constexpr double kQ0 = 0.3;
  static constexpr double kQ1 = 0.2;

  static void SetUpTestSuite() {
    nominal_ = new Scenario(make_chain_scenario());
    pe0_down_ = new Scenario(make_degraded_scenario(1));
    pe1_down_ = new Scenario(make_degraded_scenario(0));

    const std::vector<SimVariant> variants = {
        {nominal_->tasks, nominal_->order},
        {pe0_down_->tasks, pe0_down_->order},
        {pe1_down_->tasks, pe1_down_->order}};
    const std::vector<std::vector<char>> failures = {{0, 0}, {1, 0}, {0, 1}};

    FailureSimOptions options;
    options.trials = 20000;
    options.seed = 5;
    options.pe_failure_prob = {kQ0, kQ1};
    result_.emplace(simulate_with_failures(nominal_->application.graph,
                                           nominal_->arch, variants, failures,
                                           options));

    // The exact conditional mixture the estimates must cover.
    const double weights[3] = {(1.0 - kQ0) * (1.0 - kQ1), kQ0 * (1.0 - kQ1),
                               (1.0 - kQ0) * kQ1};
    availability_ = weights[0] + weights[1] + weights[2];
    const Scenario* scenarios[3] = {nominal_, pe0_down_, pe1_down_};
    expected_makespan_us_ = expected_error_ = expected_energy_uj_ = 0.0;
    for (int v = 0; v < 3; ++v) {
      const sched::QosMetrics qos =
          sched::estimate_qos(scenarios[v]->application, scenarios[v]->arch,
                              scenarios[v]->decisions, scenarios[v]->order);
      expected_makespan_us_ += weights[v] * qos.makespan_us;
      expected_error_ += weights[v] * qos.error_prob;
      expected_energy_uj_ += weights[v] * qos.energy_uj;
    }
    expected_makespan_us_ /= availability_;
    expected_error_ /= availability_;
    expected_energy_uj_ /= availability_;
  }
  static void TearDownTestSuite() {
    delete nominal_;
    delete pe0_down_;
    delete pe1_down_;
    nominal_ = pe0_down_ = pe1_down_ = nullptr;
    result_.reset();
  }

  static Scenario* nominal_;
  static Scenario* pe0_down_;
  static Scenario* pe1_down_;
  static std::optional<FailureSimResult> result_;
  static double availability_;
  static double expected_makespan_us_;
  static double expected_error_;
  static double expected_energy_uj_;
};

Scenario* PermanentFaultAgreementTest::nominal_ = nullptr;
Scenario* PermanentFaultAgreementTest::pe0_down_ = nullptr;
Scenario* PermanentFaultAgreementTest::pe1_down_ = nullptr;
std::optional<FailureSimResult> PermanentFaultAgreementTest::result_;
double PermanentFaultAgreementTest::availability_ = 0.0;
double PermanentFaultAgreementTest::expected_makespan_us_ = 0.0;
double PermanentFaultAgreementTest::expected_error_ = 0.0;
double PermanentFaultAgreementTest::expected_energy_uj_ = 0.0;

TEST_F(PermanentFaultAgreementTest, AvailabilityWithinWilsonInterval) {
  EXPECT_DOUBLE_EQ(availability_, 1.0 - kQ0 * kQ1);
  EXPECT_TRUE(result_->availability_ci.contains(availability_))
      << "analytic " << availability_ << " vs Wilson ["
      << result_->availability_ci.lo << ", " << result_->availability_ci.hi
      << "]";
}

TEST_F(PermanentFaultAgreementTest, ConditionalMakespanWithinInterval) {
  EXPECT_TRUE(result_->makespan_ci_us.contains(expected_makespan_us_))
      << "analytic " << expected_makespan_us_ << " vs CI ["
      << result_->makespan_ci_us.lo << ", " << result_->makespan_ci_us.hi
      << "]";
}

TEST_F(PermanentFaultAgreementTest, ConditionalErrorWithinWilsonInterval) {
  EXPECT_TRUE(result_->error_ci.contains(expected_error_))
      << "analytic " << expected_error_ << " vs Wilson ["
      << result_->error_ci.lo << ", " << result_->error_ci.hi << "]";
}

TEST_F(PermanentFaultAgreementTest, ConditionalEnergyWithinInterval) {
  EXPECT_TRUE(result_->energy_ci_uj.contains(expected_energy_uj_))
      << "analytic " << expected_energy_uj_ << " vs CI ["
      << result_->energy_ci_uj.lo << ", " << result_->energy_ci_uj.hi << "]";
}

TEST_F(PermanentFaultAgreementTest, VariantTrialCountsAreConsistent) {
  ASSERT_EQ(result_->variant_trials.size(), 3u);
  std::size_t sum = 0;
  for (std::size_t n : result_->variant_trials) sum += n;
  EXPECT_EQ(sum, result_->available_trials);
  EXPECT_EQ(result_->trials, 20000u);
  // With q as large as 0.2-0.3 every variant must actually execute.
  for (std::size_t n : result_->variant_trials) EXPECT_GT(n, 0u);
}

TEST_F(PermanentFaultAgreementTest, UncoveredFailureSetsCountAsUnavailable) {
  // Drop the PE0-failure fallback: only {} and {PE1} remain covered, so
  // availability falls to (1-q0) = 0.7 exactly.
  const std::vector<SimVariant> variants = {{nominal_->tasks, nominal_->order},
                                            {pe1_down_->tasks,
                                             pe1_down_->order}};
  const std::vector<std::vector<char>> failures = {{0, 0}, {0, 1}};
  FailureSimOptions options;
  options.trials = 20000;
  options.seed = 5;
  options.pe_failure_prob = {kQ0, kQ1};
  const FailureSimResult partial = simulate_with_failures(
      nominal_->application.graph, nominal_->arch, variants, failures,
      options);
  EXPECT_TRUE(partial.availability_ci.contains(1.0 - kQ0));
  EXPECT_LT(partial.availability, result_->availability);
}

TEST_F(PermanentFaultAgreementTest, InjectionIsBitIdenticalAcrossThreadCounts) {
  const std::vector<SimVariant> variants = {
      {nominal_->tasks, nominal_->order},
      {pe0_down_->tasks, pe0_down_->order},
      {pe1_down_->tasks, pe1_down_->order}};
  const std::vector<std::vector<char>> failures = {{0, 0}, {1, 0}, {0, 1}};
  FailureSimOptions options;
  options.trials = 5000;
  options.seed = 17;
  options.pe_failure_prob = {kQ0, kQ1};

  util::set_thread_count(1);
  const FailureSimResult serial = simulate_with_failures(
      nominal_->application.graph, nominal_->arch, variants, failures,
      options);
  util::set_thread_count(4);
  const FailureSimResult parallel = simulate_with_failures(
      nominal_->application.graph, nominal_->arch, variants, failures,
      options);
  util::set_thread_count(0);

  EXPECT_TRUE(failure_sim_results_identical(serial, parallel));
}

TEST_F(PermanentFaultAgreementTest, RejectsMalformedInjectionInputs) {
  const std::vector<SimVariant> variants = {{nominal_->tasks, nominal_->order}};
  FailureSimOptions options;
  options.trials = 100;
  options.pe_failure_prob = {kQ0, kQ1};

  // Variant 0 must carry the all-healthy mask.
  EXPECT_THROW(simulate_with_failures(nominal_->application.graph,
                                      nominal_->arch, variants, {{1, 0}},
                                      options),
               std::invalid_argument);
  // Mask size must match the PE count.
  EXPECT_THROW(simulate_with_failures(nominal_->application.graph,
                                      nominal_->arch, variants, {{0, 0, 0}},
                                      options),
               std::invalid_argument);
  // Duplicate masks.
  const std::vector<SimVariant> dup = {{nominal_->tasks, nominal_->order},
                                       {nominal_->tasks, nominal_->order}};
  EXPECT_THROW(simulate_with_failures(nominal_->application.graph,
                                      nominal_->arch, dup, {{0, 0}, {0, 0}},
                                      options),
               std::invalid_argument);
  // A variant must not run tasks on a PE its own mask kills.
  const std::vector<SimVariant> bad = {{nominal_->tasks, nominal_->order},
                                       {nominal_->tasks, nominal_->order}};
  EXPECT_THROW(simulate_with_failures(nominal_->application.graph,
                                      nominal_->arch, bad, {{0, 0}, {0, 1}},
                                      options),
               std::invalid_argument);
  // Probabilities outside [0, 1].
  options.pe_failure_prob = {1.5, 0.0};
  EXPECT_THROW(simulate_with_failures(nominal_->application.graph,
                                      nominal_->arch, variants, {{0, 0}},
                                      options),
               std::invalid_argument);
}

// ------------------------------------------------ the flows' own fronts

// The analytic QoS the search optimizes, checked on the fronts it returns:
// run fcCLR, pfCLR and the proposed flow on Sobel at the paper experiments'
// budget and fault environment (core/experiment), then simulate every front
// point at 10k trials with the deadline one analytic sigma past the mean.
// Parallel merges make the analytic makespan a Jensen-biased estimate on a
// general graph, so the gate is full agreement (compare_design_point) on at
// least 90% of the points, not on every one.
TEST(FlowFrontSimAgreementTest, SobelFrontsAgreeWithAnalyticQosAtTenThousandTrials) {
  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 core::bench_system_analyzer());
  const core::DseOptions options = core::bench_options(11);
  const core::ClrMappingProblem fc = dse.build_fcclr_problem(options);
  const core::ClrMappingProblem pf =
      dse.build_pfclr_problem(options, dse.run_tdse(options));
  // Each front decodes against the problem in its own genome encoding.
  const std::pair<const core::ClrMappingProblem*, core::DseOutcome> flows[] = {
      {&fc, dse.run_fcclr(options, fc)},
      {&pf, dse.run_pfclr(options, pf)},
      {&fc, dse.run_proposed(options, pf, fc)}};

  ValidationReport report;
  for (const auto& [problem, outcome] : flows) {
    ASSERT_FALSE(outcome.front_genomes.empty());
    for (const core::MappingGenome& genome : outcome.front_genomes) {
      const sched::QosMetrics analytic = problem->qos(genome);
      SimOptions sim_options;
      sim_options.trials = 10000;
      sim_options.seed = 7;
      sim_options.deadline_us =
          analytic.makespan_us + analytic.makespan_stddev_us;
      report.rows.push_back(compare_design_point(
          "front point", analytic,
          core::simulate_design_point(*problem, genome, sim_options)));
    }
  }
  EXPECT_GE(report.agreement(), 0.9)
      << report.rows.size() << " front points: makespan agreement "
      << report.makespan_agreement() << ", error agreement "
      << report.error_agreement();
}

// The end-to-end acceptance criterion of the resilience axis: run the
// k-resilient DSE on the paper's Sobel system, then fault-inject EVERY
// point of the k=1 front at 10k trials and require the Monte Carlo Wilson
// intervals to cover the analytic degraded-mode prediction. Availability
// and the criticality-weighted error probability are exactly what the
// injection estimates (per-trial indicator proportions / expectations), so
// agreement here certifies the whole chain: failure enumeration, repair,
// degraded QoS scoring, mixture arithmetic, and the injector itself.
void expect_kresilient_front_agrees(const core::DseOptions& options,
                                    reliability::TaskAnalyzer analyzer) {
  const core::DseMethodology dse(app::make_sobel_application(),
                                 platform::Architecture::paper_default(),
                                 std::move(analyzer));
  const core::DseOutcome outcome = dse.run_kresilient(options);
  ASSERT_FALSE(outcome.front_genomes.empty());
  const core::ResilientProblem problem = dse.build_resilient_problem(options);

  for (std::size_t i = 0; i < outcome.front_genomes.size(); ++i) {
    const core::MappingGenome& genome = outcome.front_genomes[i];
    const core::ResilientProblem::AnalyticPrediction pred =
        problem.analytic_prediction(genome);
    const FailureSimResult injected =
        core::simulate_resilient_design_point(problem, genome, 10000, 23);
    SCOPED_TRACE(::testing::Message() << "front point " << i);

    EXPECT_TRUE(injected.availability_ci.contains(pred.availability))
        << "analytic availability " << pred.availability << " vs Wilson ["
        << injected.availability_ci.lo << ", " << injected.availability_ci.hi
        << "]";
    EXPECT_TRUE(injected.error_ci.contains(pred.expected_error_prob))
        << "analytic error " << pred.expected_error_prob << " vs Wilson ["
        << injected.error_ci.lo << ", " << injected.error_ci.hi << "]";
    // A k=1-resilient point covers every single-PE loss, so availability is
    // exactly P(at most one PE fails) — strictly above the all-survive
    // probability and strictly below certainty.
    double all_survive = 1.0;
    for (const double q : problem.failure_probabilities()) {
      all_survive *= 1.0 - q;
    }
    EXPECT_GT(pred.availability, all_survive);
    EXPECT_LT(pred.availability, 1.0);
    EXPECT_GT(injected.available_trials, 9000u);
  }
}

TEST(KResilientOracleTest, FrontAgreesWithAnalyticPredictionAtTenThousandTrials) {
  core::DseOptions options;
  options.ga.population_size = 16;
  options.ga.generations = 6;
  options.seed = 9;
  options.resilience.max_failures = 1;
  expect_kresilient_front_agrees(options,
                                 reliability::TaskAnalyzer::paper_default());
}

// The same oracle on the front the paper experiments' budget and fault
// environment produce: a larger front, from a longer search.
TEST(KResilientOracleTest, PaperBudgetFrontAgreesWithAnalyticPrediction) {
  core::DseOptions options = core::bench_options(9);
  options.resilience.max_failures = 1;
  options.resilience.mission_hours = 20000.0;
  options.resilience.degraded_spec = options.spec;
  expect_kresilient_front_agrees(options, core::bench_system_analyzer());
}

}  // namespace
}  // namespace clrearly::sim
