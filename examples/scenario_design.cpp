// Operating-condition-robust design: the avionics scenario the paper's
// introduction motivates.
//
// A UAV image pipeline spends 85% of its mission at ground level (1x SEU
// flux) and 15% at high altitude (50x). This example contrasts three
// designs for the Sobel pipeline under a 99% functional-reliability floor:
//
//   * "ground specialist"   — optimized for the ground environment only,
//   * "altitude specialist" — optimized for altitude only,
//   * "robust"              — optimized over the mission profile with the
//                             scenario-aware problem (spec enforced in both
//                             conditions).
//
// The output shows the classic result: each specialist is best in its own
// condition, the ground specialist violates the reliability floor at
// altitude, and the robust design is the only one feasible everywhere.
#include <cstdio>

#include "app/sobel.hpp"
#include "core/scenario.hpp"
#include "moea/nsga2.hpp"
#include "platform/architecture.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace {

using namespace clrearly;

constexpr double kFrelFloor = 0.99;

/// Fastest feasible genome of a single-environment run, or nullptr-like
/// empty result when nothing is feasible.
core::MappingGenome optimize_single(const core::ClrMappingProblem& problem,
                                    std::uint64_t seed, bool* found) {
  moea::Nsga2Params ga;
  ga.population_size = 60;
  ga.generations = 40;
  util::Rng rng(seed);
  const auto result = moea::run_nsga2(ga, problem.ops(), rng);
  const core::MappingGenome* best = nullptr;
  double best_makespan = 0.0;
  for (std::size_t i : result.front) {
    if (result.population[i].eval.violation > 0.0) continue;
    const double makespan = result.population[i].eval.objectives[0];
    if (best == nullptr || makespan < best_makespan) {
      best = &result.population[i].genome;
      best_makespan = makespan;
    }
  }
  *found = best != nullptr;
  return best != nullptr ? *best : core::MappingGenome{};
}

}  // namespace

int main(int argc, char** argv) {
  clrearly::util::ArgParser args("scenario_design", "operating-condition-robust design for the UAV mission profile");
  if (!clrearly::util::parse_standard_args(args, argc, argv,
                                          clrearly::util::LogLevel::Warn)) {
    return 0;
  }

  const app::Application sobel = app::make_sobel_application();
  const platform::Architecture arch = platform::Architecture::paper_default();
  const reliability::TaskAnalyzer base =
      reliability::TaskAnalyzer::paper_default();
  const core::ScenarioSet mission = core::ScenarioSet::ground_and_altitude();

  sched::QosSpec spec;
  spec.min_functional_rel = kFrelFloor;

  // Scenario-aware problem (also provides the per-scenario evaluators).
  const core::ScenarioProblem robust_problem(
      sobel, arch, base, mission, core::SystemObjectives{}, spec,
      core::ScenarioAggregation::kWeighted);

  // --- Specialists: optimize against one condition at a time.
  bool ground_ok = false, altitude_ok = false;
  const core::MappingGenome ground_design =
      optimize_single(robust_problem.problem(0), 11, &ground_ok);
  const core::MappingGenome altitude_design =
      optimize_single(robust_problem.problem(1), 12, &altitude_ok);

  // --- Robust: optimize the mission profile, spec enforced everywhere.
  moea::Nsga2Params ga;
  ga.population_size = 60;
  ga.generations = 40;
  util::Rng rng(13);
  const auto robust_run = moea::run_nsga2(ga, robust_problem.ops(), rng);
  const core::MappingGenome* robust_design = nullptr;
  double robust_makespan = 0.0;
  for (std::size_t i : robust_run.front) {
    if (robust_run.population[i].eval.violation > 0.0) continue;
    const double makespan = robust_run.population[i].eval.objectives[0];
    if (robust_design == nullptr || makespan < robust_makespan) {
      robust_design = &robust_run.population[i].genome;
      robust_makespan = makespan;
    }
  }

  // --- Report every design under every condition.
  std::printf("mission: 85%% ground (1x flux), 15%% altitude (50x flux); "
              "QoS floor Fapp >= %.2f\n\n",
              kFrelFloor);
  std::printf("%-20s %-10s %14s %12s %10s\n", "design", "condition",
              "makespan (us)", "Fapp", "meets spec");

  const struct {
    const char* name;
    const core::MappingGenome* genome;
    bool available;
  } designs[] = {
      {"ground specialist", &ground_design, ground_ok},
      {"altitude specialist", &altitude_design, altitude_ok},
      {"robust (mission)", robust_design, robust_design != nullptr},
  };

  for (const auto& design : designs) {
    if (!design.available) {
      std::printf("%-20s (no feasible design found)\n", design.name);
      continue;
    }
    const auto qos = robust_problem.per_scenario_qos(*design.genome);
    for (std::size_t s = 0; s < mission.size(); ++s) {
      std::printf("%-20s %-10s %14.1f %12.5f %10s\n", design.name,
                  mission.scenario(s).name.c_str(), qos[s].makespan_us,
                  qos[s].functional_rel,
                  qos[s].functional_rel >= kFrelFloor ? "yes" : "NO");
    }
  }

  std::printf(
      "\nExpected pattern: the ground specialist fails the floor at "
      "altitude;\nthe altitude specialist over-protects (slower) at ground; "
      "the robust\ndesign holds the floor in both conditions.\n");
  return 0;
}
