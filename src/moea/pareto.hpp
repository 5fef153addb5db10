// Pareto-dominance utilities for minimization problems.
//
// Used in three places: task-level Pareto filtering (tDSE), NSGA-II's
// non-dominated sorting / crowding, and the benches' front post-processing.
// All objective vectors are *minimized*; callers negate maximization metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

/// Two-set coverage C(a, b): fraction of points in `b` weakly dominated by
/// at least one point of `a`. C(a, b) = 1 means a completely covers b.
/// Asymmetric: compare both directions. Throws when `b` is empty.
double coverage(const std::vector<Objectives>& a,
                const std::vector<Objectives>& b);

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

/// The one ranking kernel: fast non-dominated sorting and crowding distance
/// over flat objective rows (point i's m objectives are rows[i * m ..
/// i * m + m)). An object is reused call after call: each sort() overwrites
/// the last one's fronts and keeps every buffer, so a warm call allocates
/// nothing. The vector-of-vectors functions below wrap it.
///
/// The dominance relation is an n x n bit matrix built from one sorted
/// sweep per objective, O(m n log n) comparisons plus O(m n^2 / 64) word
/// operations; fronts come off it by the classic peel, each front's members
/// releasing the points they dominate in ascending index order. So front 0
/// lists its members by ascending index, and front f + 1 by the position in
/// front f of each member's last dominator there — its *lead* — then by
/// index.
class ParetoRanker {
 public:
  /// Rank n points. `violations` is null (unconstrained) or n total
  /// constraint violations (Deb's constrained dominance).
  void sort(const double* rows, std::size_t n, std::size_t m,
            const double* violations);

  std::size_t front_count() const noexcept { return starts_.size() - 1; }
  /// Members (row indices) of front f, in the peel's order.
  std::span<const std::size_t> front(std::size_t f) const noexcept {
    return {members_.data() + starts_[f], starts_[f + 1] - starts_[f]};
  }
  /// Parallel to front(f): each member's lead (0 throughout front 0).
  std::span<const std::size_t> leads(std::size_t f) const noexcept {
    return {leads_.data() + starts_[f], starts_[f + 1] - starts_[f]};
  }

  /// Crowding distance of each of `members` (row indices) into
  /// distance[0 .. members.size()); boundary points get +infinity. The
  /// member order breaks ties between equal objective values.
  void crowding(const double* rows, std::size_t m,
                std::span<const std::size_t> members, double* distance);

 private:
  template <typename Visit>
  void sweep_by_key(Visit visit);

  // The fronts: members_ front by front, starts_[f] .. starts_[f + 1].
  std::vector<std::size_t> members_;
  std::vector<std::size_t> starts_{0};
  std::vector<std::size_t> leads_;

  // Scratch, kept across calls.
  std::vector<double> values_;
  std::vector<std::size_t> order_;
  std::vector<std::uint64_t> better_;
  std::vector<std::uint64_t> worse_;
  std::vector<std::uint64_t> dominated_;
  std::vector<std::uint64_t> valid_;
  std::vector<std::uint64_t> feasible_;
  std::vector<std::uint64_t> infeasible_;
  std::vector<std::uint64_t> ranked_;  // infeasible, non-NaN violation
  std::vector<std::uint64_t> less_;
  std::vector<std::uint64_t> not_greater_;
  std::vector<std::size_t> count_;
};

/// Row-major copy of `points`: m objectives per point. With two or more
/// points every vector must be non-empty and of one length (throws
/// std::invalid_argument); a single point's shape is not checked.
std::vector<double> flatten_objectives(const std::vector<Objectives>& points,
                                       std::size_t& m);

/// Fast non-dominated sorting (NSGA-II): returns fronts of indices, best
/// first, in ParetoRanker's member order. `violations` is optional (empty =
/// unconstrained); when provided it must parallel `points` and constrained
/// dominance is used. With two or more points, every objective vector must
/// be non-empty and of one length.
std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<Objectives>& points,
    const std::vector<double>& violations = {});

/// Crowding distance of each member of `front` (indices into `points`);
/// boundary points get +infinity. Returned vector parallels `front`.
std::vector<double> crowding_distance(const std::vector<Objectives>& points,
                                      const std::vector<std::size_t>& front);

}  // namespace clrearly::moea
