#include "moea/nsga2.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "moea/hypervolume.hpp"
#include "moea/island.hpp"

namespace clrearly::moea {
namespace {

// Test genome: a vector of doubles in [0, 1].
using RealGenome = std::vector<double>;

Nsga2Ops<RealGenome> real_ops(
    std::size_t dims, std::function<Evaluation(const RealGenome&)> eval) {
  Nsga2Ops<RealGenome> ops;
  ops.create = [dims](util::Rng& rng) {
    RealGenome g(dims);
    for (double& x : g) x = rng.uniform();
    return g;
  };
  ops.crossover = [](const RealGenome& a, const RealGenome& b, util::Rng& rng) {
    RealGenome ca = a, cb = b;
    const std::size_t cut = rng.index(a.size() + 1);
    for (std::size_t i = cut; i < a.size(); ++i) std::swap(ca[i], cb[i]);
    return std::make_pair(ca, cb);
  };
  ops.mutate = [](RealGenome& g, util::Rng& rng) {
    g[rng.index(g.size())] = rng.uniform();
  };
  ops.evaluate = std::move(eval);
  return ops;
}

// --- Parameter validation -------------------------------------------------------

TEST(Nsga2ParamsTest, Validation) {
  Nsga2Params p;
  EXPECT_NO_THROW(p.validate());
  p.population_size = 1;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Nsga2Params{};
  p.tournament_k = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = Nsga2Params{};
  p.crossover_prob = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Nsga2Test, MissingCallbacksRejected) {
  Nsga2Params params;
  Nsga2Ops<RealGenome> ops;  // all empty
  util::Rng rng(1);
  EXPECT_THROW(run_island_nsga2(params, {}, ops, rng), std::invalid_argument);
}

// --- Convergence on ZDT1-style bi-objective problem ------------------------------
// f1 = x0; f2 = g * (1 - sqrt(x0/g)), g = 1 + 9 * mean(x1..). True front:
// x1.. = 0, f2 = 1 - sqrt(f1).

Evaluation zdt1(const RealGenome& x) {
  double tail = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) tail += x[i];
  const double g = 1.0 + 9.0 * tail / static_cast<double>(x.size() - 1);
  Evaluation e;
  const double f1 = x[0];
  e.objectives = {f1, g * (1.0 - std::sqrt(f1 / g))};
  return e;
}

TEST(Nsga2Test, ConvergesTowardZdt1Front) {
  Nsga2Params params;
  params.population_size = 60;
  params.generations = 80;
  params.mutation_prob = 0.3;
  util::Rng rng(7);
  const auto result = run_island_nsga2(params, {}, real_ops(6, zdt1), rng);

  ASSERT_FALSE(result.front.empty());
  // Every front point should be close to the analytical front
  // f2 = 1 - sqrt(f1) (within a modest slack for a small run).
  double worst_gap = 0.0;
  for (const Objectives& p : result.front_objectives()) {
    const double ideal_f2 = 1.0 - std::sqrt(p[0]);
    worst_gap = std::max(worst_gap, p[1] - ideal_f2);
  }
  EXPECT_LT(worst_gap, 0.35);

  // Decent spread across f1.
  double min_f1 = 1.0, max_f1 = 0.0;
  for (const Objectives& p : result.front_objectives()) {
    min_f1 = std::min(min_f1, p[0]);
    max_f1 = std::max(max_f1, p[0]);
  }
  EXPECT_LT(min_f1, 0.15);
  EXPECT_GT(max_f1, 0.6);
}

TEST(Nsga2Test, MoreGenerationsImproveHypervolume) {
  Nsga2Params short_run;
  short_run.population_size = 40;
  short_run.generations = 5;
  Nsga2Params long_run = short_run;
  long_run.generations = 60;

  util::Rng rng_a(3), rng_b(3);
  const auto quick =
      run_island_nsga2(short_run, {}, real_ops(8, zdt1), rng_a);
  const auto deep = run_island_nsga2(long_run, {}, real_ops(8, zdt1), rng_b);

  const Objectives ref{1.1, 11.0};
  EXPECT_GT(hypervolume(deep.front_objectives(), ref),
            hypervolume(quick.front_objectives(), ref));
}

TEST(Nsga2Test, DeterministicForSeed) {
  Nsga2Params params;
  params.population_size = 20;
  params.generations = 10;
  util::Rng rng_a(9), rng_b(9);
  const auto a = run_island_nsga2(params, {}, real_ops(4, zdt1), rng_a);
  const auto b = run_island_nsga2(params, {}, real_ops(4, zdt1), rng_b);
  ASSERT_EQ(a.front.size(), b.front.size());
  EXPECT_EQ(a.front_objectives(), b.front_objectives());
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Nsga2Test, EvaluationCountMatchesSchedule) {
  Nsga2Params params;
  params.population_size = 20;
  params.generations = 10;
  util::Rng rng(2);
  const auto result = run_island_nsga2(params, {}, real_ops(3, zdt1), rng);
  // init + generations * offspring.
  EXPECT_EQ(result.evaluations, 20u + 10u * 20u);
  EXPECT_EQ(result.population.size(), 20u);
}

// --- Constraint handling -----------------------------------------------------------

TEST(Nsga2Test, ConstraintsSteerToFeasibleRegion) {
  // Minimize (x0, x1) subject to x0 + x1 >= 1 (violation when below).
  auto eval = [](const RealGenome& x) {
    Evaluation e;
    e.objectives = {x[0], x[1]};
    e.violation = std::max(0.0, 1.0 - (x[0] + x[1]));
    return e;
  };
  Nsga2Params params;
  params.population_size = 50;
  params.generations = 60;
  params.mutation_prob = 0.3;
  util::Rng rng(5);
  const auto result = run_island_nsga2(params, {}, real_ops(2, eval), rng);

  ASSERT_FALSE(result.front.empty());
  for (std::size_t i : result.front) {
    EXPECT_LE(result.population[i].eval.violation, 1e-9);
    const auto& obj = result.population[i].eval.objectives;
    // The feasible optimum is the line x0 + x1 = 1.
    EXPECT_NEAR(obj[0] + obj[1], 1.0, 0.15);
  }
}

// --- Seeding -----------------------------------------------------------------------

TEST(Nsga2Test, SeedsSurviveWhenOptimal) {
  // Single-objective-ish: minimize sum. Seed with the global optimum; it
  // must remain in the final front.
  auto eval = [](const RealGenome& x) {
    Evaluation e;
    double sum = 0.0;
    for (double v : x) sum += v;
    e.objectives = {sum, sum};
    return e;
  };
  Nsga2Params params;
  params.population_size = 20;
  params.generations = 5;
  util::Rng rng(6);
  std::vector<RealGenome> seeds{RealGenome(4, 0.0)};
  const auto result =
      run_island_nsga2(params, {}, real_ops(4, eval), rng, seeds);
  double best = 1e9;
  for (const Objectives& p : result.front_objectives()) {
    best = std::min(best, p[0]);
  }
  EXPECT_EQ(best, 0.0);
}

TEST(Nsga2Test, SeedingAcceleratesConvergence) {
  Nsga2Params params;
  params.population_size = 30;
  params.generations = 6;  // deliberately short: seeding must matter

  // Near-optimal ZDT1 seeds.
  std::vector<RealGenome> seeds;
  for (int i = 0; i < 10; ++i) {
    RealGenome g(8, 0.0);
    g[0] = static_cast<double>(i) / 9.0;
    seeds.push_back(g);
  }
  util::Rng rng_seeded(4), rng_cold(4);
  const auto seeded =
      run_island_nsga2(params, {}, real_ops(8, zdt1), rng_seeded, seeds);
  const auto cold = run_island_nsga2(params, {}, real_ops(8, zdt1), rng_cold);

  const Objectives ref{1.1, 11.0};
  EXPECT_GT(hypervolume(seeded.front_objectives(), ref),
            hypervolume(cold.front_objectives(), ref));
}

// --- Survivor selection / ranking helpers -------------------------------------------

TEST(RankCrowdingTest, RanksMatchFronts) {
  const std::vector<Objectives> points{{1.0, 1.0}, {2.0, 2.0}, {0.5, 3.0}};
  const auto rc = rank_and_crowding(points, {0.0, 0.0, 0.0});
  EXPECT_EQ(rc.rank[0], 0u);
  EXPECT_EQ(rc.rank[1], 1u);
  EXPECT_EQ(rc.rank[2], 0u);
}

TEST(SurvivorSelectionTest, KeepsWholeBetterFronts) {
  const std::vector<Objectives> points{
      {1.0, 1.0}, {5.0, 5.0}, {0.5, 2.0}, {6.0, 6.0}};
  const auto keep = survivor_selection(points, {0, 0, 0, 0}, 2);
  ASSERT_EQ(keep.size(), 2u);
  EXPECT_TRUE((keep[0] == 0 && keep[1] == 2) || (keep[0] == 2 && keep[1] == 0));
}

TEST(SurvivorSelectionTest, PartialFrontPrefersSpread) {
  // Front of 4 incomparable points; keep 3. Index 1 sits between close
  // neighbors on both sides (smallest crowding distance) and must be the
  // one dropped; the boundary points (0, 3) are infinite-distance keepers.
  const std::vector<Objectives> points{
      {0.0, 10.0}, {1.0, 9.0}, {1.1, 8.9}, {10.0, 0.0}};
  const auto keep = survivor_selection(points, {0, 0, 0, 0}, 3);
  ASSERT_EQ(keep.size(), 3u);
  for (std::size_t i : keep) {
    EXPECT_NE(i, 1u);
  }
}

TEST(SurvivorSelectionTest, TargetLargerThanPoolThrows) {
  EXPECT_THROW(survivor_selection({{1.0}}, {0.0}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace clrearly::moea
