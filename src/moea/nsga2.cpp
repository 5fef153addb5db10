#include "moea/nsga2.hpp"

#include <algorithm>

namespace clrearly::moea {

namespace {

/// `violations` as the flat kernel takes it: null when empty
/// (unconstrained), else checked to parallel n points.
const double* violations_or_null(const std::vector<double>& violations,
                                 std::size_t n) {
  if (violations.empty()) return nullptr;
  if (violations.size() != n) {
    throw std::invalid_argument("non_dominated_sort: violations size mismatch");
  }
  return violations.data();
}

}  // namespace

RankCrowding rank_and_crowding(const std::vector<Objectives>& points,
                               const std::vector<double>& violations) {
  const double* v = violations_or_null(violations, points.size());
  std::size_t m = 0;
  const std::vector<double> rows = flatten_objectives(points, m);
  PopulationRanking ranking;
  ranking.rank(rows.data(), points.size(), m, v);
  return {ranking.ranks(), ranking.crowding()};
}

std::vector<std::size_t> survivor_selection(
    const std::vector<Objectives>& points,
    const std::vector<double>& violations, std::size_t target) {
  const double* v = violations_or_null(violations, points.size());
  std::size_t m = 0;
  const std::vector<double> rows = flatten_objectives(points, m);
  PopulationRanking ranking;
  ranking.select(rows.data(), points.size(), m, v, target);
  return ranking.survivors();
}

void PopulationRanking::rank(const double* rows, std::size_t n, std::size_t m,
                             const double* violations) {
  ranker_.sort(rows, n, m, violations);
  ranks_.assign(n, ranker_.front_count());
  crowding_.assign(n, 0.0);
  for (std::size_t f = 0; f < ranker_.front_count(); ++f) {
    const std::span<const std::size_t> front = ranker_.front(f);
    distance_.resize(front.size());
    ranker_.crowding(rows, m, front, distance_.data());
    for (std::size_t i = 0; i < front.size(); ++i) {
      ranks_[front[i]] = f;
      crowding_[front[i]] = distance_[i];
    }
  }
}

void PopulationRanking::select(const double* rows, std::size_t n,
                               std::size_t m, const double* violations,
                               std::size_t target) {
  if (target > n) {
    throw std::invalid_argument("survivor_selection: target exceeds pool");
  }
  ranker_.sort(rows, n, m, violations);
  survivors_.clear();
  ranks_.assign(target, ranker_.front_count());
  crowding_.assign(target, 0.0);
  for (std::size_t f = 0;
       f < ranker_.front_count() && survivors_.size() < target; ++f) {
    const std::span<const std::size_t> front = ranker_.front(f);
    const std::size_t base = survivors_.size();
    distance_.resize(front.size());
    ranker_.crowding(rows, m, front, distance_.data());
    if (base + front.size() <= target) {
      for (std::size_t i = 0; i < front.size(); ++i) {
        survivors_.push_back(front[i]);
        ranks_[base + i] = f;
        crowding_[base + i] = distance_[i];
      }
      continue;
    }
    // The cut: keep the most crowded-out (largest distance) members.
    order_.resize(front.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(),
              [this](std::size_t a, std::size_t b) {
                return distance_[a] > distance_[b];
              });
    const std::size_t kept = target - base;
    for (std::size_t r = 0; r < kept; ++r) {
      survivors_.push_back(front[order_[r]]);
    }
    // Their order in a fresh sort of the survivors: by lead, then by
    // survivor order.
    const std::span<const std::size_t> leads = ranker_.leads(f);
    cut_.resize(kept);
    for (std::size_t r = 0; r < kept; ++r) cut_[r] = r;
    std::sort(cut_.begin(), cut_.end(), [&](std::size_t a, std::size_t b) {
      const std::size_t la = leads[order_[a]];
      const std::size_t lb = leads[order_[b]];
      return la != lb ? la < lb : a < b;
    });
    members_.resize(kept);
    for (std::size_t i = 0; i < kept; ++i) members_[i] = front[order_[cut_[i]]];
    distance_.resize(kept);
    ranker_.crowding(rows, m, members_, distance_.data());
    for (std::size_t i = 0; i < kept; ++i) {
      ranks_[base + cut_[i]] = f;
      crowding_[base + cut_[i]] = distance_[i];
    }
  }
  if (survivors_.size() < target) {
    listed_.assign(n, 0);
    for (std::size_t f = 0; f < ranker_.front_count(); ++f) {
      for (std::size_t i : ranker_.front(f)) listed_[i] = 1;
    }
    for (std::size_t i = 0; i < n && survivors_.size() < target; ++i) {
      if (!listed_[i]) survivors_.push_back(i);
    }
  }
}

}  // namespace clrearly::moea
