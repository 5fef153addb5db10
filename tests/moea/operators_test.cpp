#include "moea/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

namespace clrearly::moea {
namespace {

TEST(IsPermutationTest, Detects) {
  EXPECT_TRUE(is_permutation({0, 1, 2}));
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_TRUE(is_permutation({}));
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 3}));
}

TEST(RandomPermutationTest, ValidAndVaried) {
  util::Rng rng(1);
  std::set<Permutation> seen;
  for (int i = 0; i < 20; ++i) {
    const Permutation p = random_permutation(8, rng);
    EXPECT_TRUE(is_permutation(p));
    seen.insert(p);
  }
  EXPECT_GT(seen.size(), 15u);  // 20 draws from 8! rarely collide
}

class OrderCrossoverTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OrderCrossoverTest, ChildrenAreValidPermutations) {
  const std::size_t n = GetParam();
  util::Rng rng(n);
  // The children are reused across trials: each call overwrites them.
  Permutation ca;
  Permutation cb;
  for (int trial = 0; trial < 50; ++trial) {
    const Permutation a = random_permutation(n, rng);
    const Permutation b = random_permutation(n, rng);
    order_crossover(a, b, ca, cb, rng);
    EXPECT_TRUE(is_permutation(ca));
    EXPECT_TRUE(is_permutation(cb));
    EXPECT_EQ(ca.size(), n);
    EXPECT_EQ(cb.size(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, OrderCrossoverTest,
                         ::testing::Values(2, 3, 5, 10, 30, 100));

TEST(OrderCrossoverTest, ChildKeepsParentPrefix) {
  // With n = 2 the cut is always 1: child A = [a0, then missing from b].
  const Permutation a{0, 1};
  const Permutation b{1, 0};
  util::Rng rng(5);
  Permutation ca;
  Permutation cb;
  order_crossover(a, b, ca, cb, rng);
  EXPECT_EQ(ca[0], 0u);
  EXPECT_EQ(cb[0], 1u);
}

TEST(OrderCrossoverTest, TrivialSizesPassThrough) {
  util::Rng rng(6);
  Permutation ca{7, 8};
  Permutation cb;
  order_crossover({0}, {0}, ca, cb, rng);
  EXPECT_EQ(ca, Permutation{0});
  EXPECT_EQ(cb, Permutation{0});
}

TEST(OrderCrossoverTest, SizeMismatchThrows) {
  util::Rng rng(7);
  Permutation ca;
  Permutation cb;
  EXPECT_THROW(order_crossover({0, 1}, {0, 1, 2}, ca, cb, rng),
               std::invalid_argument);
}

TEST(SwapMutationTest, SwapsExactlyTwoPositions) {
  util::Rng rng(8);
  for (int trial = 0; trial < 50; ++trial) {
    Permutation p = random_permutation(12, rng);
    const Permutation before = p;
    swap_mutation(p, rng);
    EXPECT_TRUE(is_permutation(p));
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i] != before[i]) ++diffs;
    }
    EXPECT_EQ(diffs, 2u);  // two distinct positions always change
  }
}

TEST(SwapMutationTest, TinyPermutationsAreNoops) {
  util::Rng rng(9);
  Permutation empty;
  swap_mutation(empty, rng);
  EXPECT_TRUE(empty.empty());
  Permutation one{0};
  swap_mutation(one, rng);
  EXPECT_EQ(one, Permutation{0});
}

TEST(TwoPointCrossoverTest, SwapsContiguousSegment) {
  util::Rng rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    GeneVector a(10, 1), b(10, 2);
    two_point_crossover(a, b, rng);
    // Each position holds either the original pair or the swapped pair, and
    // changed positions form one contiguous run.
    std::vector<bool> swapped(10);
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE((a[i] == 1 && b[i] == 2) || (a[i] == 2 && b[i] == 1));
      swapped[i] = a[i] == 2;
    }
    int transitions = 0;
    for (std::size_t i = 1; i < 10; ++i) {
      if (swapped[i] != swapped[i - 1]) ++transitions;
    }
    EXPECT_LE(transitions, 2);
  }
}

TEST(TwoPointCrossoverTest, PreservesMultiset) {
  util::Rng rng(11);
  GeneVector a{1, 2, 3, 4, 5};
  GeneVector b{6, 7, 8, 9, 10};
  auto all_before = a;
  all_before.insert(all_before.end(), b.begin(), b.end());
  two_point_crossover(a, b, rng);
  auto all_after = a;
  all_after.insert(all_after.end(), b.begin(), b.end());
  std::sort(all_before.begin(), all_before.end());
  std::sort(all_after.begin(), all_after.end());
  EXPECT_EQ(all_before, all_after);
}

TEST(TwoPointCrossoverTest, EmptyAndMismatch) {
  util::Rng rng(12);
  GeneVector empty_a, empty_b;
  EXPECT_NO_THROW(two_point_crossover(empty_a, empty_b, rng));
  GeneVector a(3), b(4);
  EXPECT_THROW(two_point_crossover(a, b, rng), std::invalid_argument);
}

TEST(RandomResetMutationTest, ChangesAtMostOneGeneWithinBounds) {
  util::Rng rng(13);
  const std::vector<std::size_t> cards{4, 1, 7, 2, 9};
  for (int trial = 0; trial < 100; ++trial) {
    GeneVector genes{3, 0, 6, 1, 8};
    const GeneVector before = genes;
    random_reset_mutation(genes, cards, rng);
    std::size_t diffs = 0;
    for (std::size_t i = 0; i < genes.size(); ++i) {
      EXPECT_LT(genes[i], cards[i]);
      if (genes[i] != before[i]) ++diffs;
    }
    EXPECT_LE(diffs, 1u);
  }
}

TEST(RandomResetMutationTest, Validation) {
  util::Rng rng(14);
  GeneVector genes{0};
  EXPECT_THROW(random_reset_mutation(genes, {1, 2}, rng),
               std::invalid_argument);
  EXPECT_THROW(random_reset_mutation(genes, {0}, rng), std::invalid_argument);
  GeneVector empty;
  EXPECT_NO_THROW(random_reset_mutation(empty, {}, rng));
}

TEST(TournamentSelectTest, AlwaysPicksBestOfSampled) {
  util::Rng rng(15);
  // Fitness = index (lower better). With k = population size and sampling
  // with replacement, larger k skews strongly toward the best individuals.
  int sum_small_k = 0, sum_large_k = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    sum_small_k += static_cast<int>(tournament_select(
        100, 2, rng, [](std::size_t a, std::size_t b) { return a < b; }));
    sum_large_k += static_cast<int>(tournament_select(
        100, 10, rng, [](std::size_t a, std::size_t b) { return a < b; }));
  }
  EXPECT_LT(sum_large_k, sum_small_k);
}

TEST(TournamentSelectTest, SingleRoundIsUniformDraw) {
  util::Rng rng(16);
  std::set<std::size_t> seen;
  for (int trial = 0; trial < 200; ++trial) {
    seen.insert(tournament_select(
        4, 1, rng, [](std::size_t, std::size_t) { return false; }));
  }
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace clrearly::moea
