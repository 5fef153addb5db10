// Dense row-major matrix of double, sized for the small systems that arise in
// absorbing-Markov-chain analysis (tens of states). Deliberately minimal: the
// oracle needs construction, element access, a matrix-vector product and a
// linear solve (see linsolve.hpp) — not a general BLAS.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace clrearly::oracle {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construct from nested initializer lists; all rows must be equally long.
  /// Throws std::invalid_argument on ragged input.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool square() const noexcept { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  Matrix& operator-=(const Matrix& rhs);

  /// Matrix-vector product; v.size() must equal cols().
  std::vector<double> apply(const std::vector<double>& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace clrearly::oracle
