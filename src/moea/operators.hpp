// Generic genetic operators on permutations and bounded integer vectors.
//
// The paper's encoding (Fig. 5) is an ordered sequence of per-task
// sub-sequences: the task order is a permutation (implicit schedule) and the
// per-task configuration fields are bounded integers. Its four operators map
// onto these primitives:
//   * two-point crossover exchanging configuration data   -> two_point_crossover
//   * single-point crossover exchanging scheduling info    -> order_crossover
//   * single-point mutation of a random task's config      -> random_reset_mutation
//   * two-point mutation swapping two sub-sequences        -> swap_mutation
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace clrearly::moea {

using Permutation = std::vector<std::size_t>;
using GeneVector = std::vector<std::size_t>;

/// True when `p` is a permutation of 0..p.size()-1.
bool is_permutation(const Permutation& p);

/// Uniformly random permutation of 0..n-1.
Permutation random_permutation(std::size_t n, util::Rng& rng);

/// Single-point *order* crossover for permutations: the child keeps parent
/// A's prefix up to a random cut and appends the missing elements in parent
/// B's relative order. Always yields a valid permutation. Overwrites both
/// children (A-prefix and B-prefix variants), reusing their storage; they
/// must not alias a parent.
void order_crossover(const Permutation& a, const Permutation& b,
                     Permutation& child_a, Permutation& child_b,
                     util::Rng& rng);

/// Swap two random positions in place (the paper's two-point scheduling
/// mutation: exchanging the position of two sub-sequences).
void swap_mutation(Permutation& p, util::Rng& rng);

/// Two-point crossover on parallel gene vectors: swap genes in [cut1, cut2)
/// between `a` and `b` in place. Vectors must be the same length.
void two_point_crossover(GeneVector& a, GeneVector& b, util::Rng& rng);

/// Reset one random position of `genes` to a fresh uniform value below the
/// corresponding cardinality (the paper's single-point configuration
/// mutation). `cardinalities[i]` must be >= 1.
void random_reset_mutation(GeneVector& genes,
                           const std::vector<std::size_t>& cardinalities,
                           util::Rng& rng);

/// Tournament selection: draw `k` indices below `population_size` uniformly
/// (with replacement) and return the one ranked best by `better(i, j)`
/// (true when i beats j).
template <typename BetterFn>
std::size_t tournament_select(std::size_t population_size, std::size_t k,
                              util::Rng& rng, BetterFn&& better) {
  std::size_t best = rng.index(population_size);
  for (std::size_t round = 1; round < k; ++round) {
    const std::size_t challenger = rng.index(population_size);
    if (better(challenger, best)) best = challenger;
  }
  return best;
}

}  // namespace clrearly::moea
