// Tests for linalg/: Vector and Matrix.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace ccs::linalg {
namespace {

// --------------------------- Vector ----------------------------------

TEST(VectorTest, ConstructionAndAccess) {
  Vector v(3, 1.5);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  v[1] = 2.0;
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(VectorTest, InitializerList) {
  Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

TEST(VectorTest, DotProduct) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.Dot(b), 4.0 - 10.0 + 18.0);
}

TEST(VectorTest, DotWithSelfIsNormSquared) {
  Vector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.Dot(v), 25.0);
}

TEST(VectorTest, SumMeanVariance) {
  Vector v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(v.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(v.Variance(), 1.25);  // Population variance.
  EXPECT_DOUBLE_EQ(v.StdDev(), std::sqrt(1.25));
}

TEST(VectorTest, ConstantVectorHasZeroVariance) {
  Vector v(10, 7.0);
  EXPECT_DOUBLE_EQ(v.Variance(), 0.0);
}

TEST(VectorTest, MinMax) {
  Vector v{3.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(v.Min(), -1.0);
  EXPECT_DOUBLE_EQ(v.Max(), 3.0);
}

TEST(VectorTest, AxpyAndScale) {
  Vector a{1.0, 2.0};
  Vector b{10.0, 20.0};
  a.Axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a[0], 6.0);
  EXPECT_DOUBLE_EQ(a[1], 12.0);
  a.Scale(2.0);
  EXPECT_DOUBLE_EQ(a[0], 12.0);
}

TEST(VectorTest, NormalizedHasUnitNorm) {
  Vector v{3.0, 4.0};
  Vector n = v.Normalized();
  EXPECT_NEAR(n.Norm(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(n[0], 0.6);
}

TEST(VectorTest, ArithmeticOperators) {
  Vector a{1.0, 2.0};
  Vector b{3.0, 5.0};
  Vector sum = a + b;
  Vector diff = b - a;
  Vector scaled = a * 3.0;
  EXPECT_DOUBLE_EQ(sum[1], 7.0);
  EXPECT_DOUBLE_EQ(diff[0], 2.0);
  EXPECT_DOUBLE_EQ(scaled[1], 6.0);
}

TEST(VectorTest, MaxAbsDiff) {
  Vector a{1.0, 2.0};
  Vector b{1.5, 1.0};
  EXPECT_DOUBLE_EQ(Vector::MaxAbsDiff(a, b), 1.0);
  EXPECT_TRUE(std::isinf(Vector::MaxAbsDiff(a, Vector{1.0})));
}

// --------------------------- Matrix ----------------------------------

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, RowAndColExtraction) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Vector row = m.Row(1);
  Vector col = m.Col(2);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
  EXPECT_DOUBLE_EQ(col[0], 3.0);
  EXPECT_DOUBLE_EQ(col[1], 6.0);
}

TEST(MatrixTest, SetRow) {
  Matrix m(2, 2);
  m.SetRow(0, Vector{9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
}

TEST(MatrixTest, IdentityMultiplicationIsNoop) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Matrix i = Matrix::Identity(2);
  EXPECT_TRUE(Matrix::AlmostEqual(m.Multiply(i), m, 1e-12));
  EXPECT_TRUE(Matrix::AlmostEqual(i.Multiply(m), m, 1e-12));
}

TEST(MatrixTest, MatrixMultiply) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, RectangularMultiplyShapes) {
  Matrix a(2, 3, 1.0);
  Matrix b(3, 4, 2.0);
  Matrix c = a.Multiply(b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_DOUBLE_EQ(c(0, 0), 6.0);
}

TEST(MatrixTest, MatrixVectorMultiply) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  Vector v{1.0, 1.0};
  Vector out = m.Multiply(v);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(MatrixTest, TransposedTwiceIsIdentityOp) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_TRUE(Matrix::AlmostEqual(t.Transposed(), m, 0.0));
}

TEST(MatrixTest, AddAndScale) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0, 4.0}};
  Matrix c = a;
  c.AddInPlace(b);
  EXPECT_DOUBLE_EQ(c(0, 1), 6.0);
  c.Scale(0.5);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
}

TEST(MatrixTest, AlmostEqualRespectsTolerance) {
  Matrix a{{1.0}};
  Matrix b{{1.0 + 1e-6}};
  EXPECT_TRUE(Matrix::AlmostEqual(a, b, 1e-5));
  EXPECT_FALSE(Matrix::AlmostEqual(a, b, 1e-7));
  EXPECT_FALSE(Matrix::AlmostEqual(a, Matrix(1, 2), 1.0));
}

TEST(MatrixTest, MaxAbs) {
  Matrix m{{1.0, -7.0}, {3.0, 2.0}};
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 7.0);
  EXPECT_DOUBLE_EQ(Matrix().MaxAbs(), 0.0);
}

TEST(MatrixTest, IsSymmetric) {
  Matrix sym{{2.0, 1.0}, {1.0, 3.0}};
  Matrix asym{{2.0, 1.0}, {0.0, 3.0}};
  EXPECT_TRUE(sym.IsSymmetric());
  EXPECT_FALSE(asym.IsSymmetric());
  EXPECT_FALSE(Matrix(2, 3).IsSymmetric());
}

TEST(MatrixTest, MultiplyAssociatesWithTranspose) {
  // (A B)^T == B^T A^T.
  Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Matrix b{{7.0, 8.0, 9.0}, {1.0, 2.0, 3.0}};
  Matrix left = a.Multiply(b).Transposed();
  Matrix right = b.Transposed().Multiply(a.Transposed());
  EXPECT_TRUE(Matrix::AlmostEqual(left, right, 1e-12));
}

}  // namespace
}  // namespace ccs::linalg
