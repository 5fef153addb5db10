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

namespace {

/// Sweeps `order` (indices whose key is not NaN) in ascending key order, one
/// group of equal keys at a time, and calls visit(i, less, not_greater) for
/// every member i: `less` holds the swept indices with key < key(i),
/// `not_greater` those with key <= key(i), i itself included. Both are
/// bitsets of `words` 64-bit words. Every comparison is `<` on the keys, so
/// the sets agree exactly with the `<` / `>` predicates of dominates() —
/// NaN keys never take part, and -0.0 ties with +0.0.
template <typename Visit>
void sweep_by_key(std::vector<std::size_t>& order,
                  const std::vector<double>& key, std::size_t words,
                  Visit visit) {
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
  std::vector<std::uint64_t> less(words, 0);
  std::vector<std::uint64_t> not_greater(words, 0);
  for (std::size_t first = 0; first < order.size();) {
    std::size_t last = first + 1;
    while (last < order.size() && !(key[order[first]] < key[order[last]])) {
      ++last;
    }
    for (std::size_t p = first; p < last; ++p) {
      not_greater[order[p] / 64] |= std::uint64_t{1} << (order[p] % 64);
    }
    for (std::size_t p = first; p < last; ++p) {
      visit(order[p], less, not_greater);
    }
    less = not_greater;
    first = last;
  }
}

}  // namespace

std::vector<std::vector<std::size_t>> non_dominated_sort(
    const std::vector<Objectives>& points,
    const std::vector<double>& violations) {
  const std::size_t n = points.size();
  const bool constrained = !violations.empty();
  if (constrained && violations.size() != n) {
    throw std::invalid_argument("non_dominated_sort: violations size mismatch");
  }
  std::vector<std::vector<std::size_t>> fronts;
  if (n == 0) return fronts;
  const std::size_t m = points.front().size();
  if (n >= 2) {
    for (const Objectives& p : points) {
      if (p.size() != m || m == 0) {
        throw std::invalid_argument(
            "non_dominated_sort: mismatched objective vectors");
      }
    }
  }

  // Every relation below is an n x n bit matrix: row i is `words` 64-bit
  // words, bit j of it says something about the pair (i, j).
  const std::size_t words = (n + 63) / 64;
  auto set_bit = [](std::uint64_t* bits, std::size_t j) {
    bits[j / 64] |= std::uint64_t{1} << (j % 64);
  };

  // better: x_i[k] < x_j[k] for some k; worse: x_i[k] > x_j[k] for some k.
  // i Pareto-dominates j exactly when j is in better_i and not in worse_i.
  // One sorted sweep per objective fills both, instead of a pass over the
  // objectives for every pair.
  std::vector<std::uint64_t> better(n * words, 0);
  std::vector<std::uint64_t> worse(n * words, 0);
  std::vector<double> key(n);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::uint64_t> valid(words);
  for (std::size_t k = 0; k < m; ++k) {
    order.clear();
    std::fill(valid.begin(), valid.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      key[i] = points[i][k];
      if (std::isnan(key[i])) continue;
      order.push_back(i);
      set_bit(valid.data(), i);
    }
    sweep_by_key(order, key, words,
                 [&](std::size_t i, const std::vector<std::uint64_t>& less,
                     const std::vector<std::uint64_t>& not_greater) {
                   std::uint64_t* b = better.data() + i * words;
                   std::uint64_t* w = worse.data() + i * words;
                   for (std::size_t q = 0; q < words; ++q) {
                     w[q] |= less[q];
                     b[q] |= valid[q] & ~not_greater[q];
                   }
                 });
  }

  // Deb's constrained dominance: feasible beats infeasible, the lower
  // violation wins among infeasible (a NaN violation never compares lower or
  // higher), Pareto dominance decides among feasible.
  std::vector<std::uint64_t> feasible(words, 0);
  std::vector<std::uint64_t> infeasible(words, 0);
  std::vector<std::uint64_t> ranked(words, 0);  // infeasible, non-NaN
  order.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!constrained || is_feasible(violations[i])) {
      set_bit(feasible.data(), i);
      continue;
    }
    set_bit(infeasible.data(), i);
    key[i] = violations[i];
    if (std::isnan(key[i])) continue;
    order.push_back(i);
    set_bit(ranked.data(), i);
  }
  std::size_t feasible_count = 0;
  for (std::uint64_t word : feasible) {
    feasible_count += static_cast<std::size_t>(std::popcount(word));
  }

  // dominated row i: the points i dominates; domination_count[i]: how many
  // points dominate i. An infeasible point loses to every feasible one, and
  // to the infeasible ones the violation sweep below adds.
  std::vector<std::uint64_t> dominated(n * words, 0);
  std::vector<std::size_t> domination_count(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if ((infeasible[i / 64] >> (i % 64)) & 1) {
      domination_count[i] = feasible_count;
      continue;
    }
    const std::uint64_t* b = better.data() + i * words;
    const std::uint64_t* w = worse.data() + i * words;
    std::uint64_t* d = dominated.data() + i * words;
    std::size_t count = 0;
    for (std::size_t q = 0; q < words; ++q) {
      d[q] = (b[q] & ~w[q] & feasible[q]) | infeasible[q];
      count += static_cast<std::size_t>(
          std::popcount(w[q] & ~b[q] & feasible[q]));
    }
    domination_count[i] = count;
  }
  sweep_by_key(order, key, words,
               [&](std::size_t i, const std::vector<std::uint64_t>& less,
                   const std::vector<std::uint64_t>& not_greater) {
                 std::uint64_t* d = dominated.data() + i * words;
                 for (std::size_t q = 0; q < words; ++q) {
                   d[q] = ranked[q] & ~not_greater[q];
                   domination_count[i] +=
                       static_cast<std::size_t>(std::popcount(less[q]));
                 }
               });

  // Peel the fronts. Walking each row's set bits in ascending order visits
  // dominated points in the order the historical per-point lists held them
  // (pairs were visited in ascending (i, j) order), so every front comes
  // out element for element as before — crowding ties and survivor
  // selection depend on that order.
  std::vector<std::size_t> current;
  current.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (domination_count[i] == 0) current.push_back(i);
  }
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t i : current) {
      const std::uint64_t* row = dominated.data() + i * words;
      for (std::size_t q = 0; q < words; ++q) {
        for (std::uint64_t bits = row[q]; bits != 0; bits &= bits - 1) {
          const std::size_t j =
              q * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          if (--domination_count[j] == 0) next.push_back(j);
        }
      }
    }
    fronts.push_back(std::move(current));
    current = std::move(next);
  }
  return fronts;
}

std::vector<double> crowding_distance(const std::vector<Objectives>& points,
                                      const std::vector<std::size_t>& front) {
  const std::size_t k = front.size();
  std::vector<double> distance(k, 0.0);
  if (k == 0) return distance;
  if (k <= 2) {
    // Every point is a boundary point.
    std::fill(distance.begin(), distance.end(),
              std::numeric_limits<double>::infinity());
    return distance;
  }
  const std::size_t m = points[front[0]].size();

  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;

  // One objective's values, gathered contiguously so the sort compares
  // without chasing front -> point indirections.
  std::vector<double> key(k);
  for (std::size_t obj = 0; obj < m; ++obj) {
    for (std::size_t i = 0; i < k; ++i) key[i] = points[front[i]][obj];
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
    const double lo = key[order.front()];
    const double hi = key[order.back()];
    const double span = hi - lo;
    // A degenerate objective separates nothing: skip it entirely (otherwise
    // the arbitrary sort order of equal keys would pick random "boundary"
    // points to promote to infinity).
    if (span <= 0.0) continue;
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    for (std::size_t i = 1; i + 1 < k; ++i) {
      const double below = key[order[i - 1]];
      const double above = key[order[i + 1]];
      distance[order[i]] += (above - below) / span;
    }
  }
  return distance;
}

}  // namespace clrearly::moea
