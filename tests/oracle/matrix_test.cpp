#include "oracle/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace clrearly::oracle {
namespace {

TEST(MatrixTest, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(MatrixTest, SizedConstructorZeroInitializes) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(m(i, j), 0.0);
    }
  }
}

TEST(MatrixTest, InitializerListLayout) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, RaggedInitializerListThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(MatrixTest, IdentityHasOnesOnDiagonal) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, ShapeMismatchThrows) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(MatrixTest, ApplyMatchesManualMatVec) {
  Matrix a{{1, 2}, {3, 4}};
  const std::vector<double> v{5.0, 6.0};
  const std::vector<double> out = a.apply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 17.0);
  EXPECT_EQ(out[1], 39.0);
}

TEST(MatrixTest, ApplyLengthMismatchThrows) {
  Matrix a(2, 2);
  EXPECT_THROW(a.apply({1.0, 2.0, 3.0}), std::invalid_argument);
}

}  // namespace
}  // namespace clrearly::oracle
