// Absorbing discrete-time Markov chains.
//
// This is the analytical engine behind the paper's task-level reliability
// models (Section IV, Fig. 3): a task's execution under a cross-layer
// reliability configuration is a chain whose transient states carry residence
// times (useful execution, detection, tolerance, checkpointing) and whose
// absorbing states encode the outcome (End for the timing chain; Error /
// noError for the functional chain).
//
// With Q the transient-to-transient block and R the transient-to-absorbing
// block of the transition matrix, the fundamental matrix N = (I - Q)^{-1}
// gives (Kemeny & Snell):
//   * expected visits to each transient state:      N(start, j)
//   * expected time to absorption:                  (N r)(start), r = residence
//   * absorption probabilities per absorbing state: B = N R
//
// AbsorbingChain is the plain, eager reference implementation: it computes
// N, B and the first two time moments in its constructor from one LU
// factorization. It is test-only: the library solves every CLR chain for
// its row-0 metrics with the batched SIMD kernel (markov/chain_batch.hpp),
// so this class only has to be correct, not fast. It is the differential
// oracle for that kernel and the input to the Monte-Carlo simulate() below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "oracle/matrix.hpp"

namespace clrearly::oracle {

class AbsorbingChain {
 public:
  /// Construct from the transient block Q (t x t), the absorbing block R
  /// (t x a, a >= 1) and per-transient-state residence times (length t,
  /// all >= 0). Validates that all probabilities lie in [0, 1] and that each
  /// row of [Q | R] sums to 1 within `row_sum_tol`; throws
  /// std::invalid_argument otherwise. Throws std::domain_error when I - Q is
  /// singular, i.e. the chain has a transient subset that can never reach
  /// absorption.
  AbsorbingChain(Matrix q, Matrix r,
                 std::vector<double> residence_times,
                 double row_sum_tol = 1e-9);

  std::size_t num_transient() const noexcept { return q_.rows(); }
  std::size_t num_absorbing() const noexcept { return r_.cols(); }

  const Matrix& q() const noexcept { return q_; }
  const Matrix& r() const noexcept { return r_; }
  const std::vector<double>& residence_times() const noexcept {
    return residence_;
  }

  /// Fundamental matrix N = (I - Q)^{-1}.
  const Matrix& fundamental() const noexcept { return n_; }

  /// Expected accumulated residence time until absorption from `start`.
  double expected_time(std::size_t start) const;

  /// Expected number of steps (state transitions) until absorption.
  double expected_steps(std::size_t start) const;

  /// B = N R: B(i, k) = probability of ending in absorbing state k when
  /// starting from transient state i.
  const Matrix& absorption_probabilities() const noexcept { return b_; }

  /// Probability of ending in absorbing state `absorbing` from `start`.
  double absorption_probability(std::size_t start,
                                std::size_t absorbing) const;

  /// Variance of the time to absorption from `start`, from the exact
  /// second-moment recursion (see chain.cpp for the derivation). Used to
  /// validate against Monte-Carlo simulation.
  double time_variance(std::size_t start) const;

 private:
  Matrix q_;
  Matrix r_;
  std::vector<double> residence_;
  Matrix n_;                   // fundamental matrix N = (I - Q)^{-1}
  Matrix b_;                   // absorption probabilities B = N R
  std::vector<double> times_;        // E[time to absorption] per state
  std::vector<double> second_moments_;  // E[T^2] per state
};

/// Monte-Carlo roll of an absorbing chain: simulate `trials` walks from
/// transient state `start`, returning (mean time to absorption, per-absorbing
/// state hit frequencies). Used by tests to cross-validate the analytical
/// results; deterministic given the seed.
///
/// A walk that has not absorbed after `max_steps` transitions is *truncated*:
/// it is excluded from every aggregate (mean_time, mean_steps,
/// absorption_frequency) and counted in truncated_trials instead, so a
/// pathological chain skews the report visibly rather than silently. Throws
/// std::runtime_error if every trial truncates.
struct SimulationResult {
  double mean_time = 0.0;
  double mean_steps = 0.0;
  std::vector<double> absorption_frequency;
  std::size_t truncated_trials = 0;  ///< walks that hit max_steps unabsorbed
};
SimulationResult simulate(const AbsorbingChain& chain, std::size_t start,
                          std::size_t trials, std::uint64_t seed,
                          std::size_t max_steps = 10'000'000);

}  // namespace clrearly::oracle
