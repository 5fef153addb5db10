#include "oracle/linsolve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace clrearly::oracle {
namespace {

TEST(LinSolveTest, SolvesHandComputedSystem) {
  // 2x + y = 5, x + 3y = 10  ->  x = 1, y = 3
  const Matrix a{{2, 1}, {1, 3}};
  const auto x = LuDecomposition(a).solve(std::vector<double>{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinSolveTest, SolveRequiresMatchingRhs) {
  LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW(lu.solve(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(LinSolveTest, NonSquareThrows) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), std::invalid_argument);
}

TEST(LinSolveTest, SingularThrows) {
  const Matrix singular{{1, 2}, {2, 4}};
  EXPECT_THROW(LuDecomposition{singular}, std::domain_error);
}

TEST(LinSolveTest, PivotingHandlesZeroLeadingEntry) {
  // Requires a row swap to factor.
  const Matrix a{{0, 1}, {1, 0}};
  const auto x = LuDecomposition(a).solve(std::vector<double>{3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinSolveTest, InverseHandComputed) {
  const Matrix a{{4, 7}, {2, 6}};
  const Matrix inv = LuDecomposition(a).inverse();
  // det = 10; inverse = [[0.6, -0.7], [-0.2, 0.4]]
  EXPECT_NEAR(inv(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(inv(0, 1), -0.7, 1e-12);
  EXPECT_NEAR(inv(1, 0), -0.2, 1e-12);
  EXPECT_NEAR(inv(1, 1), 0.4, 1e-12);
}

TEST(LinSolveTest, MatrixRhsSolve) {
  const Matrix a{{2, 0}, {0, 4}};
  const Matrix b{{2, 4}, {8, 12}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 3.0, 1e-12);
}

TEST(LinSolveTest, OneByOneSystem) {
  LuDecomposition lu(Matrix{{4.0}});
  const auto x = lu.solve(std::vector<double>{8.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(LinSolveTest, OneByOneNearZeroPivotThrows) {
  // A 1x1 "matrix" below the relative singularity threshold must be
  // rejected, not divided through.
  EXPECT_THROW(LuDecomposition(Matrix{{1e-14}}), std::domain_error);
  EXPECT_THROW(LuDecomposition(Matrix{{0.0}}), std::domain_error);
}

TEST(LinSolveTest, NearSingularButAboveToleranceStaysAccurate) {
  // Condition number ~1e8 — far from the 1e-13 relative pivot cutoff, but
  // close enough to stress the substitution accuracy.
  const double eps = 1e-8;
  const Matrix a{{1.0, 1.0}, {1.0, 1.0 + eps}};
  // Exact solution (1, 1).
  const auto x = LuDecomposition(a).solve(std::vector<double>{2.0, 2.0 + eps});
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[1], 1.0, 1e-6);
}

class LinSolveRandomTest : public ::testing::TestWithParam<std::size_t> {};

// Property: A * A^{-1} == I for random diagonally dominant matrices, checked
// column by column.
TEST_P(LinSolveRandomTest, InverseRoundTrips) {
  const std::size_t n = GetParam();
  util::Rng rng(1000 + n);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_mass = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      row_mass += std::abs(a(i, j));
    }
    a(i, i) += row_mass + 1.0;  // diagonal dominance -> well conditioned
  }
  const Matrix inv = LuDecomposition(a).inverse();
  std::vector<double> column(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = inv(i, j);
    const std::vector<double> unit = a.apply(column);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(unit[i], i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

// Property: solve() agrees with inverse-based solution.
TEST_P(LinSolveRandomTest, SolveMatchesInverseApply) {
  const std::size_t n = GetParam();
  util::Rng rng(2000 + n);
  Matrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = rng.uniform(-5.0, 5.0);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += static_cast<double>(n) + 1.0;
  }
  const LuDecomposition lu(a);
  const auto x = lu.solve(b);
  const auto x_via_inverse = lu.inverse().apply(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_via_inverse[i], 1e-10);
  }
  // Residual check against the original system.
  const auto ax = a.apply(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinSolveRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace clrearly::oracle
