// Scaling benchmark for the island-model NSGA-II layer (docs/SCALING.md):
// fcCLR on synthetic TGFF graphs at 500/1000/2000 tasks, single population
// vs 4 islands at the *same* logical evaluation budget (pop x gens; island
// migration copies evaluated individuals, it never re-evaluates). For each
// configuration the per-generation/per-epoch progress hook records true
// hypervolume-vs-evaluations (and vs wall-clock) curves under a reference
// point shared by both runs, so the JSON answers the two questions that
// matter at scale:
//   * throughput — total wall-clock at equal budget (wall_ratio_equal_budget)
//   * convergence — wall-clock for the island run to first match the
//     single-population run's final hypervolume (speedup_wall_to_single_hv),
//     the Quan & Pimentel bias-elitist effect the island model exists for.
// Emits BENCH_scale.json (scripts/plot_results.py renders the curves) and
// exits 1 when a size ran unequal budgets or a curve does not end at its
// run's evaluation count.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "app/characterizer.hpp"
#include "core/dse.hpp"
#include "core/experiment.hpp"
#include "moea/hypervolume.hpp"
#include "moea/island.hpp"
#include "platform/architecture.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace {

using namespace clrearly;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kAppSeedBase = 900;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CurvePoint {
  std::size_t evaluations = 0;
  double wall_seconds = 0.0;
  std::vector<moea::Objectives> front;  ///< feasible first front at snapshot
  double hypervolume = 0.0;             ///< filled once the reference is known
};

struct ScaleRun {
  double wall_seconds = 0.0;
  std::size_t evaluations = 0;
  std::vector<CurvePoint> curve;
};

/// One timed fcCLR search. The problem (Markov-table construction) is built
/// outside the timed region — construction cost is identical for both
/// configurations and is reported separately by bench_e2e
/// (core.problem_build_s) — so the clock measures the search itself.
ScaleRun timed_run(const core::DseMethodology& methodology,
                   core::DseOptions options, std::size_t islands) {
  options.island.islands = islands;
  const core::ClrMappingProblem problem =
      methodology.build_fcclr_problem(options);
  ScaleRun run;
  Clock::time_point start;  // set immediately before the search below
  options.ga.on_generation = [&](const moea::GenerationProgress& progress) {
    CurvePoint point;
    point.evaluations = progress.evaluations;
    point.wall_seconds = seconds_since(start);
    if (progress.front_points) point.front = *progress.front_points;
    run.curve.push_back(std::move(point));
  };
  start = Clock::now();
  const core::DseOutcome outcome = methodology.run_fcclr(options, problem);
  run.wall_seconds = seconds_since(start);
  run.evaluations = outcome.evaluations;
  return run;
}

/// True when `run`'s curve ends at the run's evaluation count; otherwise
/// says so on stderr.
bool curve_ends_at_budget(const ScaleRun& run, std::size_t tasks,
                          const char* label) {
  if (!run.curve.empty() && run.curve.back().evaluations == run.evaluations) {
    return true;
  }
  std::fprintf(stderr,
               "bench_scale: FAIL: %zu-task %s curve does not end at its "
               "%zu evaluations\n",
               tasks, label, run.evaluations);
  return false;
}

util::JsonValue curve_json(const std::vector<CurvePoint>& curve) {
  util::JsonArray out;
  for (const CurvePoint& point : curve) {
    out.push_back(util::JsonValue(
        util::JsonObject{{"evaluations", point.evaluations},
                         {"wall_seconds", point.wall_seconds},
                         {"front_size", point.front.size()},
                         {"hypervolume", point.hypervolume}}));
  }
  return util::JsonValue(std::move(out));
}

util::JsonValue run_json(const ScaleRun& run, double final_hv) {
  return util::JsonValue(
      util::JsonObject{{"wall_seconds", run.wall_seconds},
                       {"evaluations", run.evaluations},
                       {"hypervolume", final_hv},
                       {"curve", curve_json(run.curve)}});
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_scale",
                       "island-model NSGA-II scaling on 500/1000/2000-task "
                       "TGFF graphs (emits BENCH_scale.json)");
  args.option("population", "GA population size (shared by both configs)",
              "256")
      .option("generations", "GA generations (shared by both configs)", "60")
      .option("compare-islands", "island count of the sharded configuration",
              "4")
      .option("tasks", "comma-separated TGFF graph sizes", "500,1000,2000")
      .option("seed", "GA seed", "11")
      .flag("no-heuristic-seed",
            "start from random populations instead of the HEFT design")
      .option("out", "output JSON path", "BENCH_scale.json");
  if (!util::parse_standard_args(args, argc, argv, util::LogLevel::Warn)) {
    return 0;
  }

  moea::Nsga2Params ga;
  ga.population_size = args.get_uint("population");
  ga.generations = args.get_uint("generations");
  std::vector<std::size_t> sizes;
  {
    const std::string& csv = args.get("tasks");
    std::size_t begin = 0;
    while (begin <= csv.size()) {
      const std::size_t comma = std::min(csv.find(',', begin), csv.size());
      if (comma > begin) {
        sizes.push_back(std::stoul(csv.substr(begin, comma - begin)));
      }
      begin = comma + 1;
    }
    if (sizes.empty()) {
      std::fprintf(stderr, "bench_scale: --tasks lists no sizes\n");
      return 2;
    }
  }
  if (core::fast_mode()) {
    // CI smoke: one 500-task graph with a budget small enough for seconds.
    sizes = {500};
    ga.population_size = std::min<std::size_t>(ga.population_size, 24);
    ga.generations = std::min<std::size_t>(ga.generations, 10);
  }
  const std::size_t compare_islands = args.get_uint("compare-islands");
  // The island run migrates at the interval/size set by the standard
  // --migration-interval/--migration-size options; the bench defaults to a
  // denser exchange than the CLI (every 5 generations, 16 emigrants) — the
  // best convergence-per-wall configuration from the docs/SCALING.md scan —
  // which also gives the epoch curves enough points.
  moea::IslandParams migration = moea::island_params_from_args(args);
  if (!args.has("migration-interval")) migration.migration_interval = 5;
  if (!args.has("migration-size")) migration.migration_size = 16;

  core::DseOptions options;
  options.ga = ga;
  options.island = migration;
  options.seed = args.get_uint("seed");
  // Both configs start from the HEFT design unless disabled.
  options.heuristic_seed = !args.has("no-heuristic-seed");

  const platform::Architecture arch = platform::Architecture::paper_default();
  const reliability::TaskAnalyzer analyzer =
      reliability::TaskAnalyzer::paper_default();

  std::printf(
      "=== scale: fcCLR, pop %zu x %zu generations, 1 vs %zu islands "
      "(migration every %zu gens, %zu emigrants) ===\n",
      ga.population_size, ga.generations, compare_islands,
      migration.migration_interval, migration.migration_size);

  util::JsonArray size_reports;
  bool ok = true;
  for (std::size_t tasks : sizes) {
    const app::Application application =
        app::make_synthetic_application(tasks, 10, kAppSeedBase + tasks);
    const core::DseMethodology methodology(application, arch, analyzer);

    const ScaleRun single = timed_run(methodology, options, 1);
    const ScaleRun sharded = timed_run(methodology, options, compare_islands);
    const bool equal_budget = single.evaluations == sharded.evaluations;
    if (!equal_budget) {
      std::fprintf(stderr,
                   "bench_scale: FAIL: %zu tasks ran unequal budgets (%zu "
                   "single vs %zu island evaluations)\n",
                   tasks, single.evaluations, sharded.evaluations);
      ok = false;
    }
    bool curves_end = curve_ends_at_budget(single, tasks, "single");
    curves_end = curve_ends_at_budget(sharded, tasks, "islands") && curves_end;
    if (!curves_end) {
      ok = false;
      continue;
    }

    // Hypervolume under one reference shared by every snapshot of both
    // runs, so curve points and final fronts are directly comparable.
    std::vector<std::vector<moea::Objectives>> fronts;
    for (const ScaleRun* run : {&single, &sharded}) {
      for (const CurvePoint& point : run->curve) {
        if (!point.front.empty()) fronts.push_back(point.front);
      }
    }
    const moea::Objectives reference = moea::common_reference(fronts);
    auto fill_hv = [&](ScaleRun& run) {
      for (CurvePoint& point : run.curve) {
        if (!point.front.empty()) {
          point.hypervolume = moea::hypervolume(point.front, reference);
        }
      }
    };
    ScaleRun single_hv = single;
    ScaleRun sharded_hv = sharded;
    fill_hv(single_hv);
    fill_hv(sharded_hv);
    const double hv_single = single_hv.curve.back().hypervolume;
    const double hv_sharded = sharded_hv.curve.back().hypervolume;

    // Convergence speedup: first island-run snapshot whose hypervolume
    // matches the single-population run's final front.
    double time_to_single_hv = -1.0;
    std::size_t evals_to_single_hv = 0;
    for (const CurvePoint& point : sharded_hv.curve) {
      if (point.hypervolume >= hv_single) {
        time_to_single_hv = point.wall_seconds;
        evals_to_single_hv = point.evaluations;
        break;
      }
    }
    const double wall_ratio = single.wall_seconds / sharded.wall_seconds;
    const double speedup = time_to_single_hv > 0.0
                               ? single.wall_seconds / time_to_single_hv
                               : 0.0;
    const double hv_ratio = hv_single > 0.0 ? hv_sharded / hv_single : 0.0;

    std::printf(
        "%zu tasks: single %.2fs (%zu evals, hv %.4g) | %zu islands %.2fs "
        "(hv %.4g, ratio %.3f) | matched single's hv at %s | speedup %.2fx, "
        "budget %s\n",
        tasks, single.wall_seconds, single.evaluations, hv_single,
        compare_islands, sharded.wall_seconds, hv_sharded, hv_ratio,
        time_to_single_hv > 0.0
            ? (std::to_string(time_to_single_hv) + "s").c_str()
            : "never",
        speedup, equal_budget ? "equal" : "UNEQUAL");

    size_reports.push_back(util::JsonValue(util::JsonObject{
        {"tasks", tasks},
        {"single", run_json(single_hv, hv_single)},
        {"islands", run_json(sharded_hv, hv_sharded)},
        {"equal_budget", equal_budget},
        {"wall_ratio_equal_budget", wall_ratio},
        {"hv_ratio", hv_ratio},
        {"time_to_single_hv_seconds", time_to_single_hv},
        {"evaluations_to_single_hv", evals_to_single_hv},
        {"speedup_wall_to_single_hv", speedup}}));
  }

  util::JsonObject report;
  report["benchmark"] = "scale";
  report["flow"] = "fcCLR";
  report["population"] = ga.population_size;
  report["generations"] = ga.generations;
  report["islands"] = compare_islands;
  report["migration_interval"] = migration.migration_interval;
  report["migration_size"] = migration.migration_size;
  report["seed"] = options.seed;
  report["fast_mode"] = core::fast_mode();
  report["sizes"] = std::move(size_reports);

  const std::string out = args.get("out");
  std::ofstream stream(out);
  stream << util::json_serialize(util::JsonValue(std::move(report))) << "\n";
  std::printf("[wrote %s]\n", out.c_str());
  return ok ? 0 : 1;
}
