#include "moea/island.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "moea/nsga2.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace clrearly::moea {
namespace {

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

Evaluation zdt1(const RealGenome& x) {
  double tail = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) tail += x[i];
  const double g = 1.0 + 9.0 * tail / static_cast<double>(x.size() - 1);
  Evaluation e;
  const double f1 = x[0];
  e.objectives = {f1, g * (1.0 - std::sqrt(f1 / g))};
  return e;
}

// --- Parameter validation ---------------------------------------------------

TEST(IslandParamsTest, Validation) {
  IslandParams p;
  EXPECT_NO_THROW(p.validate());
  p.islands = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = IslandParams{};
  p.migration_interval = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // migration_size 0 is legal: islands evolve fully independently.
  p = IslandParams{};
  p.migration_size = 0;
  EXPECT_NO_THROW(p.validate());
}

TEST(IslandTest, ShardingTooSmallThrows) {
  Nsga2Params ga;
  ga.population_size = 4;
  ga.generations = 2;
  IslandParams island;
  island.islands = 3;  // shares of 2/1/1 — below the 2-member minimum
  util::Rng rng(1);
  EXPECT_THROW(run_island_nsga2(ga, island, real_ops(4, zdt1), rng),
               std::invalid_argument);
}

// --- islands == 1 is the plain engine loop bit for bit ----------------------

TEST(IslandTest, Islands1BitIdenticalToHandRolledEngine) {
  Nsga2Params ga;
  ga.population_size = 24;
  ga.generations = 12;
  const auto ops = real_ops(6, zdt1);

  // The single-population search spelled out on the engine.
  util::Rng direct_rng(17);
  Nsga2Engine<RealGenome> engine(ga, ops, direct_rng);
  while (!engine.done()) engine.advance();
  const auto direct = engine.finish();

  IslandParams island;  // islands == 1
  util::Rng island_rng(17);
  const auto via_island = run_island_nsga2(ga, island, ops, island_rng);

  EXPECT_EQ(direct.evaluations, via_island.evaluations);
  EXPECT_EQ(direct.front_objectives(), via_island.front_objectives());
  ASSERT_EQ(direct.population.size(), via_island.population.size());
  for (std::size_t i = 0; i < direct.population.size(); ++i) {
    EXPECT_EQ(direct.population[i].genome, via_island.population[i].genome);
  }
}

// --- Determinism ------------------------------------------------------------

TEST(IslandTest, DeterministicAcrossRepeatedRuns) {
  Nsga2Params ga;
  ga.population_size = 30;
  ga.generations = 15;
  IslandParams island;
  island.islands = 3;
  island.migration_interval = 5;
  island.migration_size = 2;
  const auto ops = real_ops(6, zdt1);

  util::Rng rng_a(23), rng_b(23);
  const auto a = run_island_nsga2(ga, island, ops, rng_a);
  const auto b = run_island_nsga2(ga, island, ops, rng_b);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.front_objectives(), b.front_objectives());
  ASSERT_EQ(a.population.size(), b.population.size());
  for (std::size_t i = 0; i < a.population.size(); ++i) {
    EXPECT_EQ(a.population[i].genome, b.population[i].genome);
  }
}

TEST(IslandTest, ThreadCountInvariant) {
  Nsga2Params ga;
  ga.population_size = 30;
  ga.generations = 10;
  IslandParams island;
  island.islands = 3;
  island.migration_interval = 4;
  island.migration_size = 2;
  const auto ops = real_ops(6, zdt1);

  util::set_thread_count(1);
  util::Rng rng_serial(31);
  const auto serial = run_island_nsga2(ga, island, ops, rng_serial);

  util::set_thread_count(4);
  util::Rng rng_parallel(31);
  const auto parallel = run_island_nsga2(ga, island, ops, rng_parallel);
  util::set_thread_count(0);  // restore the hardware default

  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.front_objectives(), parallel.front_objectives());
  ASSERT_EQ(serial.population.size(), parallel.population.size());
  for (std::size_t i = 0; i < serial.population.size(); ++i) {
    EXPECT_EQ(serial.population[i].genome, parallel.population[i].genome);
  }
}

// --- Budget and progress contract -------------------------------------------

TEST(IslandTest, EvaluationBudgetMatchesSinglePopulation) {
  Nsga2Params ga;
  ga.population_size = 32;
  ga.generations = 10;
  const auto ops = real_ops(5, zdt1);

  util::Rng rng_single(41);
  const auto single = run_island_nsga2(ga, {}, ops, rng_single);

  IslandParams island;
  island.islands = 4;
  island.migration_interval = 3;
  island.migration_size = 2;
  util::Rng rng_island(41);
  const auto sharded = run_island_nsga2(ga, island, ops, rng_island);

  // Migration copies evaluated individuals, it never re-evaluates, so the
  // logical budget is identical: init + generations * population.
  EXPECT_EQ(single.evaluations, sharded.evaluations);
  EXPECT_EQ(sharded.evaluations, 32u + 10u * 32u);
  EXPECT_EQ(sharded.population.size(), 32u);
}

TEST(IslandTest, EpochHookFiresPerEpochAndAfterMerge) {
  Nsga2Params ga;
  ga.population_size = 24;
  ga.generations = 10;
  std::vector<std::size_t> generations_seen;
  std::vector<bool> had_front_points;
  ga.on_generation = [&](const GenerationProgress& progress) {
    generations_seen.push_back(progress.generation);
    had_front_points.push_back(progress.front_points != nullptr &&
                               !progress.front_points->empty());
  };
  IslandParams island;
  island.islands = 3;
  island.migration_interval = 4;
  island.migration_size = 2;
  util::Rng rng(47);
  run_island_nsga2(ga, island, real_ops(5, zdt1), rng);

  // Epoch boundaries at 4 and 8 generations, then the final merge at 10.
  EXPECT_EQ(generations_seen,
            (std::vector<std::size_t>{4, 8, 10}));
  for (bool had : had_front_points) EXPECT_TRUE(had);
}

// --- Migration primitives ----------------------------------------------------

TEST(MigrationTest, EmigrantsStrideSampleTheFeasibleFront) {
  Nsga2Params ga;
  ga.population_size = 40;
  ga.generations = 20;
  util::Rng rng(53);
  // The engine keeps a reference to its ops, so they must outlive it.
  const auto ops = real_ops(6, zdt1);
  Nsga2Engine<RealGenome> engine(ga, ops, rng);
  for (std::size_t g = 0; g < ga.generations; ++g) engine.advance();

  EXPECT_TRUE(engine.emigrants(0).empty());

  const auto out = engine.emigrants(4);
  ASSERT_EQ(out.size(), 4u);
  // Lexicographic stride: sorted by objective vector, starting at the lex
  // smallest, spanning toward the far end instead of clustering.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].eval.objectives, out[i].eval.objectives);
  }
  EXPECT_LT(out.front().eval.objectives[0], out.back().eval.objectives[0]);

  // Requesting more than the front holds returns the whole front.
  const auto all = engine.emigrants(10 * ga.population_size);
  EXPECT_LE(all.size(), ga.population_size);
  EXPECT_GE(all.size(), out.size());
}

TEST(MigrationTest, ImmigrationKeepsBudgetAndPopulationSize) {
  Nsga2Params ga;
  ga.population_size = 20;
  ga.generations = 10;
  const auto ops = real_ops(5, zdt1);
  util::Rng rng_a(59), rng_b(61);
  Nsga2Engine<RealGenome> home(ga, ops, rng_a);
  Nsga2Engine<RealGenome> away(ga, ops, rng_b);
  for (std::size_t g = 0; g < 5; ++g) {
    home.advance();
    away.advance();
  }

  const std::size_t away_evals = away.evaluations();
  auto migrants = home.emigrants(4);
  ASSERT_FALSE(migrants.empty());
  away.immigrate(std::move(migrants));

  // Immigrants arrive pre-evaluated: no budget spent, and survivor
  // selection keeps the population at its configured size.
  EXPECT_EQ(away.evaluations(), away_evals);
  EXPECT_EQ(away.population().size(), ga.population_size);
  EXPECT_EQ(away.points().size(), ga.population_size);
}

TEST(MigrationTest, ZeroMigrationSizeRunsIndependentIslands) {
  Nsga2Params ga;
  ga.population_size = 24;
  ga.generations = 8;
  IslandParams island;
  island.islands = 3;
  island.migration_interval = 2;
  island.migration_size = 0;
  util::Rng rng(67);
  const auto result = run_island_nsga2(ga, island, real_ops(5, zdt1), rng);
  EXPECT_EQ(result.evaluations, 24u + 8u * 24u);
  EXPECT_FALSE(result.front.empty());
}

// --- Region bias (cone separation) -------------------------------------------

TEST(MigrationTest, RegionBiasRedirectsSearchWithoutFakingFeasibility) {
  // Two engines, same seed: one biased against the low-f1 half of the
  // objective space. The biased engine's population concentrates at high
  // f1, but its emigrants and final front still report true violations.
  Nsga2Params ga;
  ga.population_size = 30;
  ga.generations = 25;
  const auto ops = real_ops(6, zdt1);

  util::Rng rng_plain(71), rng_biased(71);
  Nsga2Engine<RealGenome> plain(ga, ops, rng_plain);
  Nsga2Engine<RealGenome> biased(ga, ops, rng_biased);
  biased.set_region_bias([](const Objectives& objectives) {
    return std::max(0.0, 0.5 - objectives[0]);
  });
  for (std::size_t g = 0; g < ga.generations; ++g) {
    plain.advance();
    biased.advance();
  }

  auto mean_f1 = [](const Nsga2Engine<RealGenome>& engine) {
    double sum = 0.0;
    for (const Objectives& p : engine.points()) sum += p[0];
    return sum / static_cast<double>(engine.points().size());
  };
  EXPECT_GT(mean_f1(biased), mean_f1(plain));

  for (const auto& member : biased.emigrants(8)) {
    EXPECT_EQ(member.eval.violation, 0.0);  // true violation, not the bias
  }
}

}  // namespace
}  // namespace clrearly::moea
