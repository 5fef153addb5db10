#include "moea/nsga2.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <vector>

#include "moea/hypervolume.hpp"

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
  ops.crossover = [](const RealGenome& a, const RealGenome& b, RealGenome& ca,
                     RealGenome& cb, util::Rng& rng) {
    ca = a;
    cb = b;
    const std::size_t cut = rng.index(a.size() + 1);
    for (std::size_t i = cut; i < a.size(); ++i) std::swap(ca[i], cb[i]);
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
  EXPECT_THROW(run_nsga2(params, ops, rng), std::invalid_argument);
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
  const auto result = run_nsga2(params, real_ops(6, zdt1), rng);

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
  const auto quick = run_nsga2(short_run, real_ops(8, zdt1), rng_a);
  const auto deep = run_nsga2(long_run, real_ops(8, zdt1), rng_b);

  const Objectives ref{1.1, 11.0};
  EXPECT_GT(hypervolume(deep.front_objectives(), ref),
            hypervolume(quick.front_objectives(), ref));
}

TEST(Nsga2Test, DeterministicForSeed) {
  Nsga2Params params;
  params.population_size = 20;
  params.generations = 10;
  util::Rng rng_a(9), rng_b(9);
  const auto a = run_nsga2(params, real_ops(4, zdt1), rng_a);
  const auto b = run_nsga2(params, real_ops(4, zdt1), rng_b);
  ASSERT_EQ(a.front.size(), b.front.size());
  EXPECT_EQ(a.front_objectives(), b.front_objectives());
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Nsga2Test, EvaluationCountMatchesSchedule) {
  Nsga2Params params;
  params.population_size = 20;
  params.generations = 10;
  util::Rng rng(2);
  const auto result = run_nsga2(params, real_ops(3, zdt1), rng);
  // init + generations * offspring.
  EXPECT_EQ(result.evaluations, 20u + 10u * 20u);
  EXPECT_EQ(result.population.size(), 20u);
}

TEST(Nsga2Test, ProgressCurveEndsAtTheRunsEvaluationCount) {
  // A G-generation run reports generations 0..G, one report each, and the
  // last report describes the returned result: its evaluation count
  // (pop + G * pop) and its first front.
  Nsga2Params params;
  params.population_size = 20;
  params.generations = 7;
  std::vector<GenerationProgress> reports;
  params.on_generation = [&](const GenerationProgress& progress) {
    reports.push_back(progress);
  };
  util::Rng rng(2);
  const auto result = run_nsga2(params, real_ops(5, zdt1), rng);

  ASSERT_EQ(reports.size(), params.generations + 1);
  for (std::size_t g = 0; g < reports.size(); ++g) {
    EXPECT_EQ(reports[g].generation, g);
    EXPECT_EQ(reports[g].generations, params.generations);
  }
  EXPECT_EQ(result.evaluations, 20u + 7u * 20u);
  EXPECT_EQ(reports.back().evaluations, result.evaluations);
  EXPECT_EQ(reports.back().front_size, result.front.size());
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
  const auto result = run_nsga2(params, real_ops(2, eval), rng);

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
  const auto result = run_nsga2(params, real_ops(4, eval), rng, seeds);
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
  const auto seeded = run_nsga2(params, real_ops(8, zdt1), rng_seeded, seeds);
  const auto cold = run_nsga2(params, real_ops(8, zdt1), rng_cold);

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

// --- Rank once: selection hands back the survivors' ranking ----------------------

struct Pool {
  std::vector<Objectives> points;
  std::vector<double> violations;
};

// GA-shaped pools: a few staircase layers on a coarse grid (m = 2 or 3),
// about 35% duplicated members, a few infeasible ones on shared levels
// (NaN included) and -0.0 violations, which are feasible. No NaN or
// infinite objective, so every crowding distance compares with ==.
Pool ga_like_pool(util::Rng& rng, std::size_t n, std::size_t m) {
  const double levels[] = {0.0,  0.0,  0.0, 0.0, 0.0,
                           -0.0, 0.25, 0.5, 0.5, std::nan("")};
  Pool pool;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.35)) {
      const std::size_t j = rng.index(i);
      pool.points.push_back(pool.points[j]);
      pool.violations.push_back(pool.violations[j]);
      continue;
    }
    Objectives p(m);
    double sum = 0.0;
    for (std::size_t k = 0; k + 1 < m; ++k) {
      p[k] = std::floor(rng.uniform(0.0, 8.0));
      sum += p[k];
    }
    p[m - 1] = 8.0 * static_cast<double>(m - 1) - sum +
               std::floor(rng.uniform(0.0, 3.0));
    pool.points.push_back(p);
    pool.violations.push_back(levels[rng.index(std::size(levels))]);
  }
  return pool;
}

bool same_member(const Pool& pool, std::size_t a, std::size_t b) {
  const double va = pool.violations[a];
  const double vb = pool.violations[b];
  return pool.points[a] == pool.points[b] &&
         (va == vb || (std::isnan(va) && std::isnan(vb)));
}

TEST(PopulationRankingTest, SelectionRanksSurvivorsLikeAFreshSort) {
  // select() hands back the survivors' ranks and crowding; they must equal
  // a fresh rank_and_crowding of the survivors in survivor order, value
  // for value. Every kind of cut is counted, so a generator change that
  // stops reaching one fails here.
  enum Case { kInFront0, kLaterFront, kInfeasibleFront, kExactFill,
              kDuplicateStraddles, kCases };
  util::Rng rng(17);
  PopulationRanking ranking;  // reused, as the engine reuses it
  for (std::size_t m : {2u, 3u}) {
    std::size_t seen[kCases] = {};
    for (int trial = 0; trial < 500; ++trial) {
      const std::size_t n = 2 + rng.index(199);
      const std::size_t target = 1 + rng.index(n);
      const Pool pool = ga_like_pool(rng, n, m);
      std::size_t width = 0;
      const std::vector<double> rows = flatten_objectives(pool.points, width);
      ranking.select(rows.data(), n, m, pool.violations.data(), target);
      const std::vector<std::size_t>& keep = ranking.survivors();
      ASSERT_EQ(keep.size(), target);

      Pool survivors;
      std::vector<bool> kept(n, false);
      for (std::size_t i : keep) {
        survivors.points.push_back(pool.points[i]);
        survivors.violations.push_back(pool.violations[i]);
        kept[i] = true;
      }
      const RankCrowding fresh =
          rank_and_crowding(survivors.points, survivors.violations);
      ASSERT_EQ(ranking.ranks(), fresh.rank) << "m=" << m << " trial " << trial;
      ASSERT_EQ(ranking.crowding(), fresh.crowding)
          << "m=" << m << " trial " << trial;

      // The kept set: the fronts before the cut whole, none after it, and
      // no dropped member of the cut front more crowded-out than a kept one.
      const auto fronts = non_dominated_sort(pool.points, pool.violations);
      std::size_t filled = 0;
      std::size_t cut = 0;
      while (filled + fronts[cut].size() < target) {
        filled += fronts[cut++].size();
      }
      for (std::size_t f = 0; f < fronts.size(); ++f) {
        if (f == cut) continue;
        for (std::size_t i : fronts[f]) {
          ASSERT_EQ(kept[i], f < cut) << "trial " << trial;
        }
      }
      const std::vector<double> spread =
          crowding_distance(pool.points, fronts[cut]);
      double kept_least = std::numeric_limits<double>::infinity();
      double dropped_most = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < spread.size(); ++i) {
        if (kept[fronts[cut][i]]) {
          kept_least = std::min(kept_least, spread[i]);
        } else {
          dropped_most = std::max(dropped_most, spread[i]);
        }
      }
      ASSERT_GE(kept_least, dropped_most) << "m=" << m << " trial " << trial;
      if (filled + fronts[cut].size() == target) {
        ++seen[kExactFill];
        continue;
      }
      ++seen[cut == 0 ? kInFront0 : kLaterFront];
      if (!is_feasible(pool.violations[fronts[cut][0]])) {
        ++seen[kInfeasibleFront];
      }
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
          if (kept[a] && !kept[b] && same_member(pool, a, b)) {
            ++seen[kDuplicateStraddles];
            a = n;
            break;
          }
        }
      }
    }
    for (int c = 0; c < kCases; ++c) {
      EXPECT_GT(seen[c], 0u) << "m=" << m << " case " << c;
    }
  }
}

TEST(Nsga2Test, FinalFrontIsAFreshSortsFirstFront) {
  // The engine never re-sorts a population: the reported front comes from
  // the last selection's ranks. It must still be exactly the first front of
  // a fresh sort of the final population, constrained runs included.
  auto eval = [](const RealGenome& x) {
    Evaluation e;
    e.objectives = {std::round(x[0] * 8.0), std::round(x[1] * 8.0)};
    e.violation = std::max(0.0, 0.6 - (x[0] + x[1]));
    return e;
  };
  for (std::size_t pop : {7u, 20u}) {
    Nsga2Params params;
    params.population_size = pop;
    params.generations = 12;
    util::Rng rng(pop);
    const auto result = run_nsga2(params, real_ops(3, eval), rng);
    std::vector<Objectives> points;
    std::vector<double> violations;
    for (const auto& member : result.population) {
      points.push_back(member.eval.objectives);
      violations.push_back(member.eval.violation);
    }
    EXPECT_EQ(result.front, non_dominated_sort(points, violations).front())
        << "population " << pop;
  }
}

TEST(SurvivorSelectionTest, DominanceCycleStillFillsThePopulation) {
  // With NaN objectives dominance can cycle: a dominates b, b dominates c
  // and c dominates a (NaN compares neither lower nor higher). d dominates
  // all three, so the peel lists d alone and never releases the cycle.
  // Selection fills the places left by index, and both rankings put the
  // unlisted points one past the last front.
  const double nan = std::nan("");
  const std::vector<Objectives> points = {
      {0.0, nan, 1.0}, {1.0, 0.0, nan}, {nan, 1.0, 0.0}, {-1.0, -1.0, -1.0}};
  const std::vector<double> violations(points.size(), 0.0);
  ASSERT_EQ(non_dominated_sort(points, violations),
            (std::vector<std::vector<std::size_t>>{{3}}));
  EXPECT_EQ(survivor_selection(points, violations, 3),
            (std::vector<std::size_t>{3, 0, 1}));
  const RankCrowding ranking = rank_and_crowding(points, violations);
  EXPECT_EQ(ranking.rank, (std::vector<std::size_t>{1, 1, 1, 0}));
  EXPECT_EQ(ranking.crowding,
            (std::vector<double>{0.0, 0.0, 0.0,
                                 std::numeric_limits<double>::infinity()}));

  PopulationRanking select;
  std::size_t m = 0;
  const std::vector<double> rows = flatten_objectives(points, m);
  select.select(rows.data(), points.size(), m, violations.data(), 3);
  EXPECT_EQ(select.ranks(), (std::vector<std::size_t>{0, 1, 1}));
}

TEST(SurvivorSelectionTest, TargetLargerThanPoolThrows) {
  EXPECT_THROW(survivor_selection({{1.0}}, {0.0}, 2), std::invalid_argument);
}

}  // namespace
}  // namespace clrearly::moea
