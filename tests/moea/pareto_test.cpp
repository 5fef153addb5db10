#include "moea/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace clrearly::moea {
namespace {

TEST(DominatesTest, BasicCases) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}));
  EXPECT_TRUE(dominates({1.0, 2.0}, {1.0, 3.0}));  // weak + one strict
  EXPECT_FALSE(dominates({1.0, 2.0}, {1.0, 2.0}));  // equal: no strict gain
  EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0}));  // incomparable
  EXPECT_FALSE(dominates({2.0, 2.0}, {1.0, 1.0}));
}

TEST(DominatesTest, MismatchedVectorsThrow) {
  EXPECT_THROW(dominates({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(dominates({}, {}), std::invalid_argument);
}

const std::vector<Objectives> kStaircase{
    {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};

TEST(CoverageTest, FullAndPartialCoverage) {
  const std::vector<Objectives> dominating{{0.5, 0.5}};
  EXPECT_DOUBLE_EQ(coverage(dominating, kStaircase), 1.0);
  EXPECT_DOUBLE_EQ(coverage(kStaircase, dominating), 0.0);

  const std::vector<Objectives> half{{1.0, 4.0}, {2.0, 3.0}};
  EXPECT_DOUBLE_EQ(coverage(half, kStaircase), 0.5);  // covers its two twins
}

TEST(CoverageTest, SelfCoverageIsOne) {
  // Weak domination: every point covers itself.
  EXPECT_DOUBLE_EQ(coverage(kStaircase, kStaircase), 1.0);
}

TEST(CoverageTest, EmptySecondSetRejected) {
  EXPECT_THROW(coverage(kStaircase, {}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(coverage({}, kStaircase), 0.0);
}

TEST(ConstrainedDominatesTest, FeasibleBeatsInfeasible) {
  EXPECT_TRUE(constrained_dominates({9.0, 9.0}, 0.0, {1.0, 1.0}, 0.5));
  EXPECT_FALSE(constrained_dominates({1.0, 1.0}, 0.5, {9.0, 9.0}, 0.0));
}

TEST(ConstrainedDominatesTest, LessViolationWinsAmongInfeasible) {
  EXPECT_TRUE(constrained_dominates({9.0, 9.0}, 0.1, {1.0, 1.0}, 0.5));
  EXPECT_FALSE(constrained_dominates({1.0, 1.0}, 0.5, {9.0, 9.0}, 0.1));
  // Equal violation: neither dominates by violation alone.
  EXPECT_FALSE(constrained_dominates({9.0, 9.0}, 0.5, {1.0, 1.0}, 0.5));
}

TEST(ConstrainedDominatesTest, ParetoDecidesAmongFeasible) {
  EXPECT_TRUE(constrained_dominates({1.0, 1.0}, 0.0, {2.0, 2.0}, 0.0));
  EXPECT_FALSE(constrained_dominates({1.0, 3.0}, 0.0, {2.0, 2.0}, 0.0));
}

TEST(ParetoFrontTest, ExtractsNonDominated) {
  const std::vector<Objectives> points{
      {1.0, 4.0}, {2.0, 3.0}, {3.0, 3.0}, {4.0, 1.0}, {2.5, 2.5}};
  const auto front = pareto_front_indices(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 3, 4}));
}

TEST(ParetoFrontTest, DuplicatesAllRetained) {
  const std::vector<Objectives> points{{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}};
  const auto front = pareto_front_indices(points);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(ParetoFrontTest, SinglePointIsItsOwnFront) {
  EXPECT_EQ(pareto_front_indices({{5.0, 5.0}}).size(), 1u);
  EXPECT_TRUE(pareto_front_indices({}).empty());
}

TEST(ParetoFilterTest, ReturnsPointsInOrder) {
  const std::vector<Objectives> points{{3.0, 1.0}, {2.0, 2.0}, {9.0, 9.0}};
  const auto filtered = pareto_filter(points);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0], (Objectives{3.0, 1.0}));
  EXPECT_EQ(filtered[1], (Objectives{2.0, 2.0}));
}

TEST(NonDominatedSortTest, LayersCorrectly) {
  // Front 0: (1,1); front 1: (2,2); front 2: (3,3).
  const std::vector<Objectives> points{{3.0, 3.0}, {1.0, 1.0}, {2.0, 2.0}};
  const auto fronts = non_dominated_sort(points);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{1}));
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{0}));
}

TEST(NonDominatedSortTest, IncomparablePointsShareAFront) {
  const std::vector<Objectives> points{{1.0, 4.0}, {4.0, 1.0}, {2.0, 3.0}};
  const auto fronts = non_dominated_sort(points);
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0].size(), 3u);
}

TEST(NonDominatedSortTest, ConstrainedPutsInfeasibleLast) {
  const std::vector<Objectives> points{{1.0, 1.0}, {5.0, 5.0}, {2.0, 2.0}};
  const std::vector<double> violations{0.7, 0.0, 0.1};
  const auto fronts = non_dominated_sort(points, violations);
  // Feasible (5,5) first; then violation 0.1; then 0.7.
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{1}));
  EXPECT_EQ(fronts[1], (std::vector<std::size_t>{2}));
  EXPECT_EQ(fronts[2], (std::vector<std::size_t>{0}));
}

TEST(NonDominatedSortTest, ViolationSizeMismatchThrows) {
  EXPECT_THROW(non_dominated_sort({{1.0}}, {0.0, 0.0}), std::invalid_argument);
}

TEST(NonDominatedSortTest, EveryPointAppearsExactlyOnce) {
  util::Rng rng(6);
  std::vector<Objectives> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
                      rng.uniform(0.0, 10.0)});
  }
  const auto fronts = non_dominated_sort(points);
  std::vector<bool> seen(points.size(), false);
  for (const auto& front : fronts) {
    for (std::size_t i : front) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(NonDominatedSortTest, FrontRanksAreConsistentWithDominance) {
  util::Rng rng(7);
  std::vector<Objectives> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  const auto fronts = non_dominated_sort(points);
  std::vector<std::size_t> rank(points.size());
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    for (std::size_t i : fronts[f]) rank[i] = f;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (dominates(points[i], points[j])) {
        EXPECT_LT(rank[i], rank[j]);
      }
    }
  }
}

// --- Differential test of the bit-matrix kernel ------------------------------

// The per-pair, per-point-list sort the bit-matrix kernel replaced, kept
// as its oracle: constrained_dominates()/dominates() on every unordered
// pair, dominated points pushed onto heap lists in ascending index order.
std::vector<std::vector<std::size_t>> pair_loop_sort(
    const std::vector<Objectives>& points,
    const std::vector<double>& violations) {
  const std::size_t n = points.size();
  const bool constrained = !violations.empty();
  auto dom = [&](std::size_t i, std::size_t j) {
    return constrained
               ? constrained_dominates(points[i], violations[i], points[j],
                                       violations[j])
               : dominates(points[i], points[j]);
  };
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<std::size_t> domination_count(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dom(i, j)) {
        dominated_by[i].push_back(j);
        ++domination_count[j];
      } else if (dom(j, i)) {
        dominated_by[j].push_back(i);
        ++domination_count[i];
      }
    }
  }
  std::vector<std::vector<std::size_t>> fronts;
  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (domination_count[i] == 0) current.push_back(i);
  }
  while (!current.empty()) {
    fronts.push_back(current);
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      for (std::size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) next.push_back(j);
      }
    }
    current = std::move(next);
  }
  return fronts;
}

// pareto_front_indices must be the unconstrained oracle's first front.
std::vector<std::size_t> oracle_first_front(
    const std::vector<Objectives>& points) {
  const auto fronts = pair_loop_sort(points, {});
  return fronts.empty() ? std::vector<std::size_t>{} : fronts.front();
}

struct Population {
  std::vector<Objectives> points;
  std::vector<double> violations;  ///< empty = unconstrained
};

// Objectives on a coarse grid (ties on single objectives are common), with
// duplicated members, occasional NaN objectives and — when constrained —
// infeasible members sharing a few violation levels, some of them NaN.
Population random_population(util::Rng& rng, std::size_t n, std::size_t m,
                             bool constrained) {
  Population pop;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.15)) {
      pop.points.push_back(pop.points[rng.index(i)]);
      continue;
    }
    Objectives p(m);
    for (double& x : p) {
      x = rng.bernoulli(0.03) ? std::nan("")
                              : std::floor(rng.uniform(0.0, 6.0));
    }
    pop.points.push_back(p);
  }
  if (constrained) {
    const double levels[] = {0.0, 0.0, 0.0, 0.25, 0.5, 0.5, std::nan("")};
    for (std::size_t i = 0; i < n; ++i) {
      pop.violations.push_back(levels[rng.index(std::size(levels))]);
    }
  }
  return pop;
}

TEST(NonDominatedSortTest, MatchesPairLoopOracleAcrossWordBoundaries) {
  util::Rng rng(13);
  for (std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 200u,
                        300u}) {
    for (std::size_t m = 1; m <= 4; ++m) {
      for (bool constrained : {false, true}) {
        const Population pop = random_population(rng, n, m, constrained);
        EXPECT_EQ(non_dominated_sort(pop.points, pop.violations),
                  pair_loop_sort(pop.points, pop.violations))
            << "n=" << n << " m=" << m << " constrained=" << constrained;
        EXPECT_EQ(pareto_front_indices(pop.points),
                  oracle_first_front(pop.points))
            << "n=" << n << " m=" << m;
      }
    }
  }
}

TEST(NonDominatedSortTest, MatchesPairLoopOracleOnDegeneratePopulations) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Population> cases{
      // All duplicates: one front holding everyone.
      {std::vector<Objectives>(70, Objectives{1.0, 2.0}), {}},
      // Ties on the first objective only.
      {{{1.0, 3.0}, {1.0, 2.0}, {1.0, 1.0}, {2.0, 0.5}, {1.0, 2.0}}, {}},
      // NaN objectives are incomparable in the NaN coordinate.
      {{{nan, 1.0}, {0.0, 2.0}, {nan, nan}, {1.0, 0.0}, {0.0, 2.0}}, {}},
      // Signed zeros tie; infinities order like any other value.
      {{{-0.0, 1.0}, {0.0, 1.0}, {-inf, inf}, {inf, -inf}, {0.0, 0.5}}, {}},
      // Every member infeasible with one shared violation.
      {{{1.0, 1.0}, {2.0, 2.0}, {0.5, 3.0}}, {0.5, 0.5, 0.5}},
      // Infeasible levels interleaved with feasible members and NaN.
      {{{1.0, 1.0}, {2.0, 2.0}, {0.5, 3.0}, {3.0, 0.5}, {0.0, 0.0}},
       {0.5, 0.0, nan, 0.25, 0.5}},
      // All NaN violations: nobody dominates anybody.
      {{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}}, {nan, nan, nan}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    EXPECT_EQ(non_dominated_sort(cases[c].points, cases[c].violations),
              pair_loop_sort(cases[c].points, cases[c].violations))
        << "case " << c;
    EXPECT_EQ(pareto_front_indices(cases[c].points),
              oracle_first_front(cases[c].points))
        << "case " << c;
  }
}

// GA-shaped two-objective pools without NaN objectives, which the random
// populations above rarely are: a coarse grid with signed zeros and
// infinities, about 35% duplicated members and, when constrained,
// violation levels that include -0.0 (feasible) and NaN.
Population grid_population_2d(util::Rng& rng, std::size_t n,
                              bool constrained) {
  const double inf = std::numeric_limits<double>::infinity();
  const double grid[] = {-inf, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, 4.0, inf};
  Population pop;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.bernoulli(0.35)) {
      pop.points.push_back(pop.points[rng.index(i)]);
      continue;
    }
    pop.points.push_back({grid[rng.index(std::size(grid))],
                          grid[rng.index(std::size(grid))]});
  }
  if (constrained) {
    const double levels[] = {0.0, -0.0, 0.0, -1.0, 0.0,
                             0.25, 0.5, 0.5, inf, std::nan("")};
    for (std::size_t i = 0; i < n; ++i) {
      pop.violations.push_back(levels[rng.index(std::size(levels))]);
    }
  }
  return pop;
}

TEST(NonDominatedSortTest, TwoObjectiveGridMatchesPairLoopOracle) {
  util::Rng rng(29);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = rng.index(301);
    const bool constrained = trial % 2 == 1;
    const Population pop = grid_population_2d(rng, n, constrained);
    ASSERT_EQ(non_dominated_sort(pop.points, pop.violations),
              pair_loop_sort(pop.points, pop.violations))
        << "trial " << trial << " n=" << n;
  }
}

// Each member's lead as the pair-loop peel defines it: the largest position
// in the previous front of a point that dominates it.
std::vector<std::vector<std::size_t>> pair_loop_leads(const Population& pop) {
  const auto fronts = pair_loop_sort(pop.points, pop.violations);
  auto dom = [&](std::size_t i, std::size_t j) {
    return pop.violations.empty()
               ? dominates(pop.points[i], pop.points[j])
               : constrained_dominates(pop.points[i], pop.violations[i],
                                       pop.points[j], pop.violations[j]);
  };
  std::vector<std::vector<std::size_t>> leads;
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    leads.emplace_back(fronts[f].size(), 0);
    if (f == 0) continue;
    for (std::size_t i = 0; i < fronts[f].size(); ++i) {
      for (std::size_t p = 0; p < fronts[f - 1].size(); ++p) {
        if (dom(fronts[f - 1][p], fronts[f][i])) leads[f][i] = p;
      }
    }
  }
  return leads;
}

TEST(ParetoRankerTest, LeadsMatchThePairLoopPeel) {
  // NaN-free two-objective grids, and random populations of two or three
  // objectives that hold NaN objectives.
  util::Rng rng(31);
  ParetoRanker ranker;  // reused: every call overwrites the last
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = rng.index(160);
    const bool constrained = trial % 2 == 1;
    const Population pop =
        trial % 3 == 0 ? grid_population_2d(rng, n, constrained)
                       : random_population(rng, n, trial % 3 + 1, constrained);
    std::size_t m = 0;
    const std::vector<double> rows = flatten_objectives(pop.points, m);
    ranker.sort(rows.data(), n, m,
                constrained ? pop.violations.data() : nullptr);
    const auto expected = pair_loop_leads(pop);
    ASSERT_EQ(ranker.front_count(), expected.size()) << "trial " << trial;
    for (std::size_t f = 0; f < expected.size(); ++f) {
      const std::span<const std::size_t> leads = ranker.leads(f);
      EXPECT_EQ(std::vector<std::size_t>(leads.begin(), leads.end()),
                expected[f])
          << "trial " << trial << " front " << f;
    }
  }
}

TEST(NonDominatedSortTest, MismatchedObjectiveVectorsThrowUpFront) {
  EXPECT_THROW(non_dominated_sort({{1.0, 2.0}, {1.0}}), std::invalid_argument);
  EXPECT_THROW(non_dominated_sort({{}, {}}), std::invalid_argument);
  // Checked before any comparison, even where constrained dominance would
  // never look at the objectives (feasible vs infeasible).
  EXPECT_THROW(non_dominated_sort({{1.0, 2.0}, {1.0}}, {0.0, 1.0}),
               std::invalid_argument);
  // A single point is never compared, so its shape is not checked.
  EXPECT_EQ(non_dominated_sort({{}}),
            (std::vector<std::vector<std::size_t>>{{0}}));
}

TEST(IsFeasibleTest, ZeroAndNegativeAreFeasibleNanIsNot) {
  EXPECT_TRUE(is_feasible(0.0));
  EXPECT_TRUE(is_feasible(-0.0));
  EXPECT_TRUE(is_feasible(-1.0));
  EXPECT_FALSE(is_feasible(1e-300));
  EXPECT_FALSE(is_feasible(std::nan("")));
}

TEST(CrowdingDistanceTest, BoundariesAreInfinite) {
  const std::vector<Objectives> points{
      {1.0, 5.0}, {2.0, 4.0}, {3.0, 3.0}, {4.0, 2.0}, {5.0, 1.0}};
  const std::vector<std::size_t> front{0, 1, 2, 3, 4};
  const auto crowd = crowding_distance(points, front);
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[4]));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(crowd[i]));
    EXPECT_GT(crowd[i], 0.0);
  }
}

TEST(CrowdingDistanceTest, DenserPointsGetSmallerDistance) {
  // Points on a line; the middle point of the tight pair is most crowded.
  const std::vector<Objectives> points{
      {0.0, 10.0}, {1.0, 9.0}, {1.2, 8.8}, {10.0, 0.0}};
  const auto crowd = crowding_distance(points, {0, 1, 2, 3});
  EXPECT_LT(crowd[1], crowd[2]);
}

TEST(CrowdingDistanceTest, DegenerateObjectiveHandled) {
  // All points share objective 1: its span is zero and contributes nothing.
  const std::vector<Objectives> points{{1.0, 5.0}, {2.0, 5.0}, {3.0, 5.0}};
  const auto crowd = crowding_distance(points, {0, 1, 2});
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[2]));
  EXPECT_TRUE(std::isfinite(crowd[1]));
}

TEST(CrowdingDistanceTest, EmptyAndSingletonFronts) {
  const std::vector<Objectives> points{{1.0, 1.0}};
  EXPECT_TRUE(crowding_distance(points, {}).empty());
  const auto single = crowding_distance(points, {0});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(std::isinf(single[0]));
}

}  // namespace
}  // namespace clrearly::moea
