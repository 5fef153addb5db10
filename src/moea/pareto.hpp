// Pareto-dominance utilities for minimization problems.
//
// Used in three places: task-level Pareto filtering (tDSE), NSGA-II's
// non-dominated sorting / crowding, and the benches' front post-processing.
// All objective vectors are *minimized*; callers negate maximization metrics.
#pragma once

#include <cstddef>
#include <vector>

namespace clrearly::moea {

using Objectives = std::vector<double>;

/// The one feasibility predicate: a total constraint violation of at most
/// zero. A NaN violation is infeasible.
constexpr bool is_feasible(double violation) noexcept {
  return violation <= 0.0;
}

/// True when `a` weakly dominates `b` and is strictly better in at least one
/// objective. Vectors must be the same length.
bool dominates(const Objectives& a, const Objectives& b);

/// Deb's constrained dominance: feasible beats infeasible; among infeasible,
/// lower total violation wins; among feasible, Pareto dominance decides.
bool constrained_dominates(const Objectives& a, double violation_a,
                           const Objectives& b, double violation_b);

/// Indices of the non-dominated points, ascending: the first front of
/// non_dominated_sort(points), so it shares that kernel's cost and input
/// checks. Duplicate points are all retained.
std::vector<std::size_t> pareto_front_indices(
    const std::vector<Objectives>& points);

/// The non-dominated subset itself, in input order.
std::vector<Objectives> pareto_filter(const std::vector<Objectives>& points);

/// Fast non-dominated sorting (NSGA-II): returns fronts of indices, best
/// first. `violations` is optional (empty = unconstrained); when provided it
/// must parallel `points` and constrained dominance is used. With two or
/// more points, every objective vector must be non-empty and of one length.
/// The dominance relation is an n x n bit matrix built from one sorted sweep
/// per objective: O(m n log n) comparisons plus O(m n^2 / 64) word
/// operations.
std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<Objectives>& points,
    const std::vector<double>& violations = {});

/// Crowding distance of each member of `front` (indices into `points`);
/// boundary points get +infinity. Returned vector parallels `front`.
std::vector<double> crowding_distance(const std::vector<Objectives>& points,
                                      const std::vector<std::size_t>& front);

}  // namespace clrearly::moea
