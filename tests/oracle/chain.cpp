#include "oracle/chain.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "oracle/linsolve.hpp"
#include "util/rng.hpp"

namespace clrearly::oracle {

namespace {

void check_probability_block(const Matrix& m, const char* what) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      const double p = m(i, j);
      if (!(p >= 0.0 && p <= 1.0) || std::isnan(p)) {
        throw std::invalid_argument(
            std::string("AbsorbingChain: ") + what +
            " entry outside [0,1]");
      }
    }
  }
}

}  // namespace

AbsorbingChain::AbsorbingChain(Matrix q, Matrix r,
                               std::vector<double> residence_times,
                               double row_sum_tol)
    : q_(std::move(q)), r_(std::move(r)),
      residence_(std::move(residence_times)) {
  if (!q_.square()) {
    throw std::invalid_argument("AbsorbingChain: Q must be square");
  }
  const std::size_t t = q_.rows();
  if (t == 0) {
    throw std::invalid_argument("AbsorbingChain: need at least one transient state");
  }
  if (r_.rows() != t) {
    throw std::invalid_argument("AbsorbingChain: R row count must match Q");
  }
  if (r_.cols() == 0) {
    throw std::invalid_argument("AbsorbingChain: need at least one absorbing state");
  }
  if (residence_.size() != t) {
    throw std::invalid_argument(
        "AbsorbingChain: residence time vector length must match Q");
  }
  for (double rt : residence_) {
    if (rt < 0.0 || std::isnan(rt)) {
      throw std::invalid_argument("AbsorbingChain: negative residence time");
    }
  }
  check_probability_block(q_, "Q");
  check_probability_block(r_, "R");
  for (std::size_t i = 0; i < t; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < t; ++j) row_sum += q_(i, j);
    for (std::size_t k = 0; k < r_.cols(); ++k) row_sum += r_(i, k);
    if (std::abs(row_sum - 1.0) > row_sum_tol) {
      throw std::invalid_argument(
          "AbsorbingChain: transition row does not sum to 1");
    }
  }

  // Singular I - Q means some transient state cannot be absorbed; the LU
  // factorization reports it as std::domain_error.
  Matrix i_minus_q = Matrix::identity(t);
  i_minus_q -= q_;
  const LuDecomposition lu(std::move(i_minus_q));
  n_ = lu.inverse();
  b_ = lu.solve(r_);
  times_ = lu.solve(residence_);

  // Second moment of time-to-absorption. With deterministic residence r_i
  // and T_i = r_i + T_next:
  //   E[T_i^2] = r_i^2 + 2 r_i (Q t)_i + (Q s)_i
  //     =>  s = N (r.^2 + 2 r .* (Q t))   with t = N r.
  const std::vector<double> qt = q_.apply(times_);
  std::vector<double> rhs(t);
  for (std::size_t i = 0; i < t; ++i) {
    rhs[i] = residence_[i] * residence_[i] + 2.0 * residence_[i] * qt[i];
  }
  second_moments_ = lu.solve(rhs);
}

double AbsorbingChain::expected_time(std::size_t start) const {
  if (start >= num_transient()) {
    throw std::out_of_range("AbsorbingChain::expected_time");
  }
  return times_[start];
}

double AbsorbingChain::expected_steps(std::size_t start) const {
  if (start >= num_transient()) {
    throw std::out_of_range("AbsorbingChain::expected_steps");
  }
  double acc = 0.0;
  for (std::size_t j = 0; j < num_transient(); ++j) acc += n_(start, j);
  return acc;
}

double AbsorbingChain::absorption_probability(std::size_t start,
                                              std::size_t absorbing) const {
  if (start >= num_transient() || absorbing >= num_absorbing()) {
    throw std::out_of_range("AbsorbingChain::absorption_probability");
  }
  return b_(start, absorbing);
}

double AbsorbingChain::time_variance(std::size_t start) const {
  if (start >= num_transient()) {
    throw std::out_of_range("AbsorbingChain::time_variance");
  }
  const double m1 = times_[start];
  return second_moments_[start] - m1 * m1;
}

SimulationResult simulate(const AbsorbingChain& chain, std::size_t start,
                          std::size_t trials, std::uint64_t seed,
                          std::size_t max_steps) {
  if (start >= chain.num_transient()) {
    throw std::out_of_range("simulate: bad start state");
  }
  if (trials == 0) {
    throw std::invalid_argument("simulate: trials must be positive");
  }
  util::Rng rng(seed);
  SimulationResult result;
  result.absorption_frequency.assign(chain.num_absorbing(), 0.0);

  const std::size_t t = chain.num_transient();
  double total_time = 0.0;
  double total_steps = 0.0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    std::size_t state = start;
    double time = 0.0;
    double steps = 0.0;
    bool absorbed = false;
    // The step cap guards against pathological (near-singular) chains; the
    // constructor already rejected truly non-absorbing ones. A capped walk
    // is reported as truncated, never folded into the aggregates.
    for (std::size_t step = 0; step < max_steps && !absorbed; ++step) {
      time += chain.residence_times()[state];
      steps += 1.0;
      double u = rng.uniform();
      bool moved = false;
      for (std::size_t j = 0; j < t; ++j) {
        u -= chain.q()(state, j);
        if (u < 0.0) {
          state = j;
          moved = true;
          break;
        }
      }
      if (moved) continue;
      for (std::size_t k = 0; k < chain.num_absorbing(); ++k) {
        u -= chain.r()(state, k);
        if (u < 0.0 || k + 1 == chain.num_absorbing()) {
          result.absorption_frequency[k] += 1.0;
          absorbed = true;
          break;
        }
      }
    }
    if (!absorbed) {
      ++result.truncated_trials;
      continue;  // contributes to no aggregate
    }
    total_time += time;
    total_steps += steps;
  }
  const std::size_t completed = trials - result.truncated_trials;
  if (completed == 0) {
    throw std::runtime_error(
        "simulate: every trial hit the step cap without absorbing");
  }
  result.mean_time = total_time / static_cast<double>(completed);
  result.mean_steps = total_steps / static_cast<double>(completed);
  for (double& f : result.absorption_frequency) {
    f /= static_cast<double>(completed);
  }
  return result;
}

}  // namespace clrearly::oracle
