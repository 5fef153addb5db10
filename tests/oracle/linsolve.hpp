// Direct dense linear solver built on oracle::Matrix.
//
// The reference Markov-chain analysis (oracle::AbsorbingChain) needs
// (I - Q)^{-1} applied to residence-time vectors and to the
// absorbing-transition block R. Chains stay small (a few states per
// inter-checkpoint interval), so an O(n^3) partially-pivoted LU is the right
// tool; no iterative machinery is warranted.
#pragma once

#include <vector>

#include "markov/chain_batch.hpp"
#include "oracle/matrix.hpp"

namespace clrearly::oracle {

/// Partially pivoted LU decomposition of a square matrix. A pivot at or
/// below markov::kLuSingularTol (relative) counts as zero, the batched
/// kernel's threshold, so both classify the same chains as singular.
///
/// Factorization is performed once, at construction; solves against
/// multiple right-hand sides reuse it. Throws std::invalid_argument for
/// non-square input and std::domain_error when the matrix is numerically
/// singular.
class LuDecomposition {
 public:
  explicit LuDecomposition(Matrix a);

  /// Solve A x = b. b.size() must equal the matrix dimension.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve A X = B column-by-column.
  Matrix solve(const Matrix& b) const;

  /// A^{-1} (solve against the identity).
  Matrix inverse() const;

  std::size_t dim() const noexcept { return lu_.rows(); }

 private:
  Matrix lu_;                  // packed L (unit diagonal, below) and U (above)
  std::vector<std::size_t> perm_;
};

}  // namespace clrearly::oracle
