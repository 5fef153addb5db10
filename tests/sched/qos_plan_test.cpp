// Differential tests of the QoS evaluation plan against the scheduler and
// estimate_qos it replaced (tests/sched/qos_oracle.hpp):
//  * seeded DAGs of 1-2000 tasks, with the interconnect on and off, a
//    single PE, equal and zero execution times (start/end ties), capped PE
//    memories: every field a mask selects is bit-equal to the oracle's, the
//    rest read NaN, and the full-mask estimate_qos also returns a
//    bit-identical Schedule; list_schedule and Schedule::peak_power match
//    their oracles too;
//  * every mask the wire format can produce (any objective set x any spec
//    limits): the fitness built from the plan's metrics equals the one
//    built from the oracle's;
//  * every throw of the oracle fires, with the same message, on both paths;
//  * ClrMappingProblem::evaluate equals the oracle fitness of decode(),
//    also when pool threads evaluate concurrently (each on its own
//    thread-local workspace, all on the problem's one plan).
#include "sched/qos.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/characterizer.hpp"
#include "core/experiment.hpp"
#include "core/problem.hpp"
#include "moea/operators.hpp"
#include "platform/architecture.hpp"
#include "qos_oracle.hpp"
#include "util/memo_cache.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::sched {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

#define EXPECT_BITS_EQ(a, b) EXPECT_EQ(bits(a), bits(b)) << #a << " = " << (a)

/// A random DAG on `n` tasks: each task draws up to three predecessors
/// among the tasks before it in a hidden random topological order (so ids
/// are not topologically sorted), carrying 0 KB or a random volume.
app::Application random_application(std::size_t n, util::Rng& rng) {
  app::Application application;
  application.name = "random";
  application.period_us = rng.uniform(1e4, 1e6);
  const moea::Permutation topo = moea::random_permutation(n, rng);
  for (std::size_t t = 0; t < n; ++t) {
    application.graph.add_task(rng.index(3), std::to_string(t),
                               rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.5, 3.0));
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t preds = rng.index(4);
    for (std::size_t k = 0; k < preds; ++k) {
      const double kb = rng.bernoulli(0.3) ? 0.0 : rng.uniform(1.0, 64.0);
      application.graph.add_edge(topo[rng.index(i)], topo[i], kb);
    }
  }
  return application;
}

/// `pes` PEs cycling over the paper's PE types; type 0 gets a memory cap.
platform::Architecture make_architecture(std::size_t pes, bool interconnect) {
  const platform::Architecture paper = platform::Architecture::paper_default();
  platform::Architecture arch;
  for (platform::PeType type : paper.types()) {
    if (arch.num_types() == 0) type.memory_kb = 900.0;
    arch.add_type(std::move(type));
  }
  for (std::size_t p = 0; p < pes; ++p) arch.add_pe(p % arch.num_types());
  if (interconnect) arch.set_interconnect(platform::Interconnect{0.5, 2.0});
  return arch;
}

/// Random decisions. With `ties`, execution times come from {0, 10, 10, 25}
/// so starts and ends coincide often and zero-length tasks occur.
std::vector<TaskDecision> random_decisions(std::size_t n, std::size_t pes,
                                           bool ties, util::Rng& rng) {
  const double tied[] = {0.0, 10.0, 10.0, 25.0};
  std::vector<TaskDecision> decisions(n);
  for (TaskDecision& d : decisions) {
    d.pe = rng.index(pes);
    reliability::TaskMetrics& m = d.metrics;
    m.avg_exec_time_us = ties ? tied[rng.index(4)] : rng.uniform(1.0, 1000.0);
    m.exec_time_stddev_us = rng.uniform(0.0, 50.0);
    m.error_prob = rng.uniform(0.0, 0.1);
    m.avg_power_w = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.1, 3.0);
    m.mttf_hours = rng.uniform(1e3, 1e6);
    m.footprint_kb = rng.uniform(0.0, 200.0);
  }
  // At least one task must run for a while, or no PE wears.
  decisions[rng.index(n)].metrics.avg_exec_time_us = 40.0;
  return decisions;
}

/// Every (objectives, spec) pair the wire format can produce: any non-empty
/// objective set, any subset of the five spec limits.
struct Fitness {
  core::SystemObjectives objectives;
  QosSpec spec;
};
std::vector<Fitness> every_wire_fitness(const QosMetrics& reference) {
  std::vector<Fitness> out;
  for (unsigned obj = 1; obj < 32; ++obj) {
    for (unsigned limits = 0; limits < 32; ++limits) {
      Fitness f;
      f.objectives.makespan = obj & 1u;
      f.objectives.error_prob = obj & 2u;
      f.objectives.mttf = obj & 4u;
      f.objectives.energy = obj & 8u;
      f.objectives.power = obj & 16u;
      // Limits near the reference values, so some are violated.
      if (limits & 1u) f.spec.max_makespan_us = 0.9 * reference.makespan_us;
      if (limits & 2u) f.spec.min_functional_rel = 0.99;
      if (limits & 4u) f.spec.min_mttf_hours = 1.1 * reference.mttf_hours;
      if (limits & 8u) f.spec.max_energy_uj = 0.9 * reference.energy_uj;
      if (limits & 16u) f.spec.max_peak_power_w = 0.9 * reference.peak_power_w;
      out.push_back(f);
    }
  }
  return out;
}

QosWorkspace& workspace_for(const std::vector<TaskDecision>& decisions) {
  QosWorkspace& ws = QosWorkspace::local();
  ws.tasks.resize(decisions.size());
  for (std::size_t t = 0; t < decisions.size(); ++t) {
    ws.tasks[t] = TaskRef{decisions[t].pe, &decisions[t].metrics};
  }
  return ws;
}

void expect_same_schedule(const Schedule& got, const Schedule& want) {
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t t = 0; t < want.tasks.size(); ++t) {
    EXPECT_BITS_EQ(got.tasks[t].start_us, want.tasks[t].start_us);
    EXPECT_BITS_EQ(got.tasks[t].end_us, want.tasks[t].end_us);
    EXPECT_EQ(got.tasks[t].pe, want.tasks[t].pe);
  }
  EXPECT_BITS_EQ(got.makespan_us, want.makespan_us);
  ASSERT_EQ(got.pe_busy_us.size(), want.pe_busy_us.size());
  for (std::size_t p = 0; p < want.pe_busy_us.size(); ++p) {
    EXPECT_BITS_EQ(got.pe_busy_us[p], want.pe_busy_us[p]);
  }
}

/// The plan's metrics under `fields`: selected fields bit-equal to the
/// oracle's, the others NaN.
void expect_masked_metrics(const QosMetrics& got, const QosMetrics& want,
                           QosFieldMask fields) {
  EXPECT_BITS_EQ(got.makespan_us, want.makespan_us);
  EXPECT_BITS_EQ(got.mttf_hours, want.mttf_hours);
  EXPECT_BITS_EQ(got.memory_overflow, want.memory_overflow);
  auto check = [&](QosField field, double g, double w) {
    if (fields & field) {
      EXPECT_BITS_EQ(g, w);
    } else {
      EXPECT_TRUE(std::isnan(g)) << "unread field computed: " << g;
    }
  };
  check(kQosFunctionalRel, got.functional_rel, want.functional_rel);
  check(kQosFunctionalRel, got.error_prob, want.error_prob);
  check(kQosEnergy, got.energy_uj, want.energy_uj);
  check(kQosPeakPower, got.peak_power_w, want.peak_power_w);
  check(kQosMakespanStddev, got.makespan_stddev_us, want.makespan_stddev_us);
}

class QosPlanDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QosPlanDifferentialTest, EveryMaskMatchesTheOracle) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  const app::Application application = random_application(n, rng);
  for (std::size_t pes : {std::size_t{1}, std::size_t{5}}) {
    for (bool interconnect : {false, true}) {
      for (bool ties : {false, true}) {
        SCOPED_TRACE(testing::Message() << "pes " << pes << " interconnect "
                                        << interconnect << " ties " << ties);
        const platform::Architecture arch =
            make_architecture(pes, interconnect);
        const std::vector<TaskDecision> decisions =
            random_decisions(n, pes, ties, rng);
        const moea::Permutation order = moea::random_permutation(n, rng);

        Schedule want_schedule;
        const QosMetrics want = oracle::estimate_qos(
            application, arch, decisions, order, &want_schedule);

        // Full mask: every field, and the schedule.
        Schedule got_schedule;
        const QosMetrics got =
            estimate_qos(application, arch, decisions, order, &got_schedule);
        expect_masked_metrics(got, want, kAllQosFields);
        expect_same_schedule(got_schedule, want_schedule);

        // The scheduler alone, and the peak-power sweep.
        std::vector<TaskAssignment> assignments(n);
        for (std::size_t t = 0; t < n; ++t) {
          assignments[t] = {decisions[t].pe,
                            decisions[t].metrics.avg_exec_time_us,
                            decisions[t].metrics.avg_power_w};
        }
        const Schedule scheduled = list_schedule(
            application.graph, assignments, order, pes, arch.interconnect());
        expect_same_schedule(scheduled, want_schedule);
        EXPECT_BITS_EQ(scheduled.peak_power(assignments),
                       oracle::peak_power(want_schedule, assignments));

        // Every mask, and every wire-format fitness built on it.
        std::vector<QosMetrics> by_mask(kAllQosFields + 1);
        for (QosFieldMask fields = 0; fields <= kAllQosFields; ++fields) {
          const QosPlan plan(application, arch, fields);
          by_mask[fields] = plan.evaluate(workspace_for(decisions), order);
          expect_masked_metrics(by_mask[fields], want, fields);
        }
        for (const Fitness& f : every_wire_fitness(want)) {
          const QosMetrics& masked =
              by_mask[f.objectives.fields_read() | f.spec.fields_read()];
          const std::vector<double> got_objectives =
              f.objectives.extract(masked);
          const std::vector<double> want_objectives =
              f.objectives.extract(want);
          ASSERT_EQ(got_objectives.size(), want_objectives.size());
          for (std::size_t k = 0; k < want_objectives.size(); ++k) {
            EXPECT_BITS_EQ(got_objectives[k], want_objectives[k]);
          }
          EXPECT_BITS_EQ(f.spec.violation(masked), f.spec.violation(want));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QosPlanDifferentialTest,
                         ::testing::Values(1, 2, 10, 100, 500, 2000),
                         [](const auto& info) {
                           return "Tasks" + std::to_string(info.param);
                         });

/// Both paths must throw std::invalid_argument with the same message.
void expect_same_throw(const std::function<void()>& oracle_call,
                       const std::function<void()>& plan_call) {
  std::string want;
  try {
    oracle_call();
  } catch (const std::invalid_argument& e) {
    want = e.what();
  }
  ASSERT_FALSE(want.empty()) << "the oracle did not throw";
  try {
    plan_call();
    ADD_FAILURE() << "the plan did not throw: " << want;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
}

TEST(QosPlanThrowTest, EveryOracleThrowFiresOnBothPaths) {
  util::Rng rng(7);
  app::Application chain;
  for (std::size_t t = 0; t < 4; ++t) chain.graph.add_task(0, "t");
  for (std::size_t t = 1; t < 4; ++t) chain.graph.add_edge(t - 1, t, 8.0);
  app::Application cyclic = chain;
  cyclic.graph.add_edge(3, 1);
  const platform::Architecture arch = make_architecture(3, true);
  const platform::Architecture no_pes;
  const std::vector<TaskDecision> good = random_decisions(4, 3, false, rng);
  const moea::Permutation order = {0, 1, 2, 3};

  struct Case {
    const char* what;
    const app::Application* application;
    const platform::Architecture* arch;
    std::vector<TaskDecision> decisions;
    moea::Permutation order;
  };
  std::vector<Case> cases;
  auto with = [&](const char* what, auto edit) {
    Case c{what, &chain, &arch, good, order};
    edit(c);
    cases.push_back(std::move(c));
  };
  with("decision count", [](Case& c) { c.decisions.pop_back(); });
  with("order size", [](Case& c) { c.order.pop_back(); });
  with("no PEs", [&](Case& c) { c.arch = &no_pes; });
  with("repeated id", [](Case& c) { c.order = {0, 1, 1, 3}; });
  with("id out of range", [](Case& c) { c.order = {0, 1, 2, 4}; });
  with("PE out of range", [](Case& c) { c.decisions[2].pe = 3; });
  with("negative time",
       [](Case& c) { c.decisions[1].metrics.avg_exec_time_us = -1.0; });
  with("cycle", [&](Case& c) { c.application = &cyclic; });
  with("zero MTTF", [](Case& c) { c.decisions[3].metrics.mttf_hours = 0.0; });
  with("negative MTTF",
       [](Case& c) { c.decisions[0].metrics.mttf_hours = -5.0; });
  with("no task mapped", [](Case& c) {
    for (TaskDecision& d : c.decisions) d.metrics.avg_exec_time_us = 0.0;
  });

  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    auto oracle_call = [&] {
      oracle::estimate_qos(*c.application, *c.arch, c.decisions, c.order);
    };
    expect_same_throw(oracle_call, [&] {
      estimate_qos(*c.application, *c.arch, c.decisions, c.order);
    });
    // The narrowest plan keeps every check.
    expect_same_throw(oracle_call, [&] {
      const QosPlan plan(*c.application, *c.arch, 0);
      plan.evaluate(workspace_for(c.decisions), c.order);
    });
  }
}

TEST(QosPlanTest, ProblemFitnessMatchesTheOracle) {
  // ClrMappingProblem::evaluate runs its plan; its fitness must equal the
  // oracle's QoS of decode() under the same objectives and spec.
  util::Rng rng(11);
  for (bool interconnect : {false, true}) {
    platform::Architecture arch = platform::Architecture::paper_default();
    if (interconnect) arch.set_interconnect(platform::Interconnect{0.5, 2.0});
    const app::Application application =
        app::make_synthetic_application(60, 6, 5);
    core::SystemObjectives objectives = core::SystemObjectives::all();
    sched::QosSpec spec;
    spec.min_functional_rel = 0.99;
    spec.max_peak_power_w = 4.0;
    const core::ClrMappingProblem problem(application, arch,
                                          core::bench_system_analyzer(),
                                          objectives, spec);
    for (int i = 0; i < 16; ++i) {
      const core::MappingGenome genome = problem.layout().random(rng);
      const QosMetrics want = oracle::estimate_qos(
          application, arch, problem.decode(genome), genome.order);
      const moea::Evaluation got = problem.evaluate(genome);
      const std::vector<double> want_objectives = objectives.extract(want);
      ASSERT_EQ(got.objectives.size(), want_objectives.size());
      for (std::size_t k = 0; k < want_objectives.size(); ++k) {
        EXPECT_BITS_EQ(got.objectives[k], want_objectives[k]);
      }
      EXPECT_BITS_EQ(got.violation, spec.violation(want));
    }
  }
}

TEST(QosPlanTest, ConcurrentEvaluationsMatchSerialOnes) {
  util::set_cache_capacity(0);  // every evaluate() computes
  const core::ClrMappingProblem problem(
      app::make_synthetic_application(100, 8, 3),
      platform::Architecture::paper_default(), core::bench_system_analyzer(),
      core::SystemObjectives::all(), QosSpec{});
  util::reset_cache_capacity();
  util::Rng rng(13);
  std::vector<core::MappingGenome> genomes;
  for (int i = 0; i < 64; ++i) genomes.push_back(problem.layout().random(rng));

  std::vector<moea::Evaluation> serial;
  for (const core::MappingGenome& g : genomes) {
    serial.push_back(problem.evaluate(g));
  }
  std::vector<moea::Evaluation> parallel(genomes.size());
  util::set_thread_count(4);
  util::parallel_for(genomes.size(), [&](std::size_t i) {
    parallel[i] = problem.evaluate(genomes[i]);
  });
  util::set_thread_count(0);
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    ASSERT_EQ(parallel[i].objectives.size(), serial[i].objectives.size());
    for (std::size_t k = 0; k < serial[i].objectives.size(); ++k) {
      EXPECT_BITS_EQ(parallel[i].objectives[k], serial[i].objectives[k]);
    }
    EXPECT_BITS_EQ(parallel[i].violation, serial[i].violation);
  }
}

}  // namespace
}  // namespace clrearly::sched
