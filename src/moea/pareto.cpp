#include "moea/pareto.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace clrearly::moea {

bool dominates(const Objectives& a, const Objectives& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("dominates: mismatched objective vectors");
  }
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

double coverage(const std::vector<Objectives>& a,
                const std::vector<Objectives>& b) {
  if (b.empty()) {
    throw std::invalid_argument("coverage: empty second set");
  }
  std::size_t covered = 0;
  for (const Objectives& q : b) {
    for (const Objectives& p : a) {
      if (p.size() != q.size()) {
        throw std::invalid_argument("coverage: dimension mismatch");
      }
      // Weak domination: p <= q everywhere.
      bool weakly = true;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] > q[i]) {
          weakly = false;
          break;
        }
      }
      if (weakly) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(b.size());
}

bool constrained_dominates(const Objectives& a, double violation_a,
                           const Objectives& b, double violation_b) {
  const bool a_feasible = is_feasible(violation_a);
  const bool b_feasible = is_feasible(violation_b);
  if (a_feasible != b_feasible) return a_feasible;
  if (!a_feasible) return violation_a < violation_b;
  return dominates(a, b);
}

std::vector<std::size_t> pareto_front_indices(
    const std::vector<Objectives>& points) {
  std::vector<std::vector<std::size_t>> fronts = non_dominated_sort(points);
  return fronts.empty() ? std::vector<std::size_t>{} : std::move(fronts[0]);
}

std::vector<Objectives> pareto_filter(const std::vector<Objectives>& points) {
  const std::vector<std::size_t> front = pareto_front_indices(points);
  std::vector<Objectives> out;
  out.reserve(front.size());
  for (std::size_t i : front) out.push_back(points[i]);
  return out;
}

std::vector<double> flatten_objectives(const std::vector<Objectives>& points,
                                       std::size_t& m) {
  m = points.empty() ? 0 : points.front().size();
  if (points.size() >= 2) {
    for (const Objectives& p : points) {
      if (p.size() != m || m == 0) {
        throw std::invalid_argument("mismatched objective vectors");
      }
    }
  }
  std::vector<double> rows;
  rows.reserve(points.size() * m);
  for (const Objectives& p : points) {
    rows.insert(rows.end(), p.begin(), p.end());
  }
  return rows;
}

std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<Objectives>& points,
    const std::vector<double>& violations) {
  const std::size_t n = points.size();
  if (!violations.empty() && violations.size() != n) {
    throw std::invalid_argument("non_dominated_sort: violations size mismatch");
  }
  std::size_t m = 0;
  const std::vector<double> rows = flatten_objectives(points, m);
  ParetoRanker ranker;
  ranker.sort(rows.data(), n, m,
              violations.empty() ? nullptr : violations.data());
  std::vector<std::vector<std::size_t>> fronts;
  fronts.reserve(ranker.front_count());
  for (std::size_t f = 0; f < ranker.front_count(); ++f) {
    const std::span<const std::size_t> front = ranker.front(f);
    fronts.emplace_back(front.begin(), front.end());
  }
  return fronts;
}

std::vector<double> crowding_distance(const std::vector<Objectives>& points,
                                      const std::vector<std::size_t>& front) {
  std::vector<double> distance(front.size());
  std::size_t m = 0;
  const std::vector<double> rows = flatten_objectives(points, m);
  ParetoRanker().crowding(rows.data(), m, front, distance.data());
  return distance;
}

/// Sweeps order_ (indices whose values_ entry is not NaN) in ascending
/// value order, one group of equal values at a time, and calls visit(i) for
/// every member i with less_ holding the swept indices whose value is below
/// i's and not_greater_ those not above it, i itself included. Every
/// comparison is `<`, so the sets agree exactly with the `<` / `>`
/// predicates of dominates(): NaN values never take part, and -0.0 ties
/// with +0.0.
template <typename Visit>
void ParetoRanker::sweep_by_key(Visit visit) {
  std::sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
    return values_[a] < values_[b];
  });
  std::fill(less_.begin(), less_.end(), 0);
  std::fill(not_greater_.begin(), not_greater_.end(), 0);
  for (std::size_t first = 0; first < order_.size();) {
    std::size_t last = first + 1;
    while (last < order_.size() &&
           !(values_[order_[first]] < values_[order_[last]])) {
      ++last;
    }
    for (std::size_t p = first; p < last; ++p) {
      not_greater_[order_[p] / 64] |= std::uint64_t{1} << (order_[p] % 64);
    }
    for (std::size_t p = first; p < last; ++p) visit(order_[p]);
    std::copy(not_greater_.begin(), not_greater_.end(), less_.begin());
    first = last;
  }
}

void ParetoRanker::sort(const double* rows, std::size_t n, std::size_t m,
                        const double* violations) {
  members_.clear();
  leads_.clear();
  starts_.assign(1, 0);
  if (n == 0) return;
  members_.reserve(n);
  leads_.reserve(n);

  // Every relation below is an n x n bit matrix: row i is `words` 64-bit
  // words, bit j of it says something about the pair (i, j).
  const std::size_t words = (n + 63) / 64;
  auto set_bit = [](std::uint64_t* bits, std::size_t j) {
    bits[j / 64] |= std::uint64_t{1} << (j % 64);
  };
  less_.resize(words);
  not_greater_.resize(words);

  // better: x_i[k] < x_j[k] for some k; worse: x_i[k] > x_j[k] for some k.
  // i Pareto-dominates j exactly when j is in better_i and not in worse_i.
  // One sorted sweep per objective fills both, instead of a pass over the
  // objectives for every pair.
  better_.assign(n * words, 0);
  worse_.assign(n * words, 0);
  values_.resize(n);
  order_.reserve(n);
  valid_.resize(words);
  for (std::size_t k = 0; k < m; ++k) {
    order_.clear();
    std::fill(valid_.begin(), valid_.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      values_[i] = rows[i * m + k];
      if (std::isnan(values_[i])) continue;
      order_.push_back(i);
      set_bit(valid_.data(), i);
    }
    sweep_by_key([&](std::size_t i) {
      std::uint64_t* b = better_.data() + i * words;
      std::uint64_t* w = worse_.data() + i * words;
      for (std::size_t q = 0; q < words; ++q) {
        w[q] |= less_[q];
        b[q] |= valid_[q] & ~not_greater_[q];
      }
    });
  }

  // Deb's constrained dominance: feasible beats infeasible, the lower
  // violation wins among infeasible (a NaN violation never compares lower or
  // higher), Pareto dominance decides among feasible.
  feasible_.assign(words, 0);
  infeasible_.assign(words, 0);
  ranked_.assign(words, 0);  // infeasible, non-NaN
  std::size_t feasible_count = 0;
  order_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (violations == nullptr || is_feasible(violations[i])) {
      set_bit(feasible_.data(), i);
      ++feasible_count;
      continue;
    }
    set_bit(infeasible_.data(), i);
    values_[i] = violations[i];
    if (std::isnan(values_[i])) continue;
    order_.push_back(i);
    set_bit(ranked_.data(), i);
  }

  // dominated row i: the points i dominates; count_[i]: how many points
  // dominate i. An infeasible point loses to every feasible one, and to the
  // infeasible ones the violation sweep below adds.
  dominated_.assign(n * words, 0);
  count_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if ((infeasible_[i / 64] >> (i % 64)) & 1) {
      count_[i] = feasible_count;
      continue;
    }
    const std::uint64_t* b = better_.data() + i * words;
    const std::uint64_t* w = worse_.data() + i * words;
    std::uint64_t* d = dominated_.data() + i * words;
    std::size_t count = 0;
    for (std::size_t q = 0; q < words; ++q) {
      d[q] = (b[q] & ~w[q] & feasible_[q]) | infeasible_[q];
      count += static_cast<std::size_t>(
          std::popcount(w[q] & ~b[q] & feasible_[q]));
    }
    count_[i] = count;
  }
  sweep_by_key([&](std::size_t i) {
    std::uint64_t* d = dominated_.data() + i * words;
    for (std::size_t q = 0; q < words; ++q) {
      d[q] = ranked_[q] & ~not_greater_[q];
      count_[i] += static_cast<std::size_t>(std::popcount(less_[q]));
    }
  });

  // Peel the fronts: each front's members, in order, release the points
  // they dominate by an ascending set-bit walk; a point joins the next
  // front when its last dominator (at position lead of this front) releases
  // it.
  for (std::size_t i = 0; i < n; ++i) {
    if (count_[i] == 0) {
      members_.push_back(i);
      leads_.push_back(0);
    }
  }
  for (std::size_t begin = 0; begin < members_.size();) {
    const std::size_t end = members_.size();
    starts_.push_back(end);
    for (std::size_t p = begin; p < end; ++p) {
      const std::uint64_t* row = dominated_.data() + members_[p] * words;
      for (std::size_t q = 0; q < words; ++q) {
        for (std::uint64_t bits = row[q]; bits != 0; bits &= bits - 1) {
          const std::size_t j =
              q * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          if (--count_[j] == 0) {
            members_.push_back(j);
            leads_.push_back(p - begin);
          }
        }
      }
    }
    begin = end;
  }
}

void ParetoRanker::crowding(const double* rows, std::size_t m,
                            std::span<const std::size_t> members,
                            double* distance) {
  const std::size_t k = members.size();
  std::fill(distance, distance + k, 0.0);
  if (k == 0) return;
  if (k <= 2) {
    // Every point is a boundary point.
    std::fill(distance, distance + k, std::numeric_limits<double>::infinity());
    return;
  }
  order_.resize(k);
  for (std::size_t i = 0; i < k; ++i) order_[i] = i;

  // One objective's values, gathered contiguously so the sort compares
  // without chasing member -> row indirections.
  values_.resize(k);
  for (std::size_t obj = 0; obj < m; ++obj) {
    for (std::size_t i = 0; i < k; ++i) values_[i] = rows[members[i] * m + obj];
    std::sort(order_.begin(), order_.end(),
              [this](std::size_t a, std::size_t b) {
                return values_[a] < values_[b];
              });
    const double lo = values_[order_.front()];
    const double hi = values_[order_.back()];
    const double span = hi - lo;
    // A degenerate objective separates nothing: skip it entirely (otherwise
    // the arbitrary sort order of equal values would pick random "boundary"
    // points to promote to infinity).
    if (span <= 0.0) continue;
    distance[order_.front()] = std::numeric_limits<double>::infinity();
    distance[order_.back()] = std::numeric_limits<double>::infinity();
    for (std::size_t i = 1; i + 1 < k; ++i) {
      const double below = values_[order_[i - 1]];
      const double above = values_[order_[i + 1]];
      distance[order_[i]] += (above - below) / span;
    }
  }
}

}  // namespace clrearly::moea
