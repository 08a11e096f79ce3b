/**
 * @file
 * Tensor substrate tests: shape invariants, GEMM against a naive
 * reference, and the im2col/col2im adjoint property that conv backward
 * relies on.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "tensor/ops.hpp"

namespace mvq {
namespace {

TEST(Shape, BasicsAndEquality)
{
    Shape s({2, 3, 4, 5});
    EXPECT_EQ(s.rank(), 4);
    EXPECT_EQ(s.numel(), 120);
    EXPECT_EQ(s.dim(2), 4);
    EXPECT_EQ(s, Shape({2, 3, 4, 5}));
    EXPECT_NE(s, Shape({2, 3, 4, 6}));
    EXPECT_EQ(s.str(), "[2, 3, 4, 5]");
    EXPECT_THROW(s.dim(4), FatalError);
    EXPECT_THROW(Shape({0, 1}), FatalError);
}

TEST(Shape, LinearIndexing)
{
    Shape s({2, 3, 4, 5});
    EXPECT_EQ(s.at(0, 0, 0, 0), 0);
    EXPECT_EQ(s.at(0, 0, 0, 1), 1);
    EXPECT_EQ(s.at(0, 0, 1, 0), 5);
    EXPECT_EQ(s.at(0, 1, 0, 0), 20);
    EXPECT_EQ(s.at(1, 0, 0, 0), 60);
    EXPECT_EQ(s.at(1, 2, 3, 4), 119);
}

TEST(Tensor, FillAndStats)
{
    Tensor t(Shape({3, 4}), 2.0f);
    EXPECT_DOUBLE_EQ(t.sum(), 24.0);
    EXPECT_DOUBLE_EQ(t.sumSquares(), 48.0);
    EXPECT_FLOAT_EQ(t.absMax(), 2.0f);
    EXPECT_EQ(t.countZeros(), 0);
    t.fill(0.0f);
    EXPECT_EQ(t.countZeros(), 12);
}

TEST(Tensor, ReshapePreservesData)
{
    Rng rng(3);
    Tensor t(Shape({2, 6}));
    t.fillNormal(rng, 0.0f, 1.0f);
    Tensor r = t.reshaped(Shape({3, 4}));
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_FLOAT_EQ(t[i], r[i]);
    EXPECT_THROW(t.reshaped(Shape({5, 5})), FatalError);
}

TEST(Tensor, DeterministicFill)
{
    Rng a(11), b(11);
    Tensor ta(Shape({64}));
    Tensor tb(Shape({64}));
    ta.fillNormal(a, 0.0f, 1.0f);
    tb.fillNormal(b, 0.0f, 1.0f);
    EXPECT_FLOAT_EQ(maxAbsDiff(ta, tb), 0.0f);
}

TEST(Gemm, MatchesNaive)
{
    Rng rng(5);
    Tensor a(Shape({7, 9}));
    Tensor b(Shape({9, 5}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    Tensor c = matmul(a, b);
    for (std::int64_t i = 0; i < 7; ++i) {
        for (std::int64_t j = 0; j < 5; ++j) {
            float acc = 0.0f;
            for (std::int64_t k = 0; k < 9; ++k)
                acc += a.at(i, k) * b.at(k, j);
            EXPECT_NEAR(c.at(i, j), acc, 1e-4f);
        }
    }
}

TEST(Gemm, TransposeVariantsAgree)
{
    Rng rng(6);
    Tensor a(Shape({6, 4}));
    Tensor b(Shape({4, 8}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);

    // Build explicit transposes.
    Tensor at(Shape({4, 6}));
    for (std::int64_t i = 0; i < 6; ++i)
        for (std::int64_t j = 0; j < 4; ++j)
            at.at(j, i) = a.at(i, j);
    Tensor bt(Shape({8, 4}));
    for (std::int64_t i = 0; i < 4; ++i)
        for (std::int64_t j = 0; j < 8; ++j)
            bt.at(j, i) = b.at(i, j);

    Tensor ref = matmul(a, b);
    EXPECT_LT(maxAbsDiff(matmul(at, b, true, false), ref), 1e-4f);
    EXPECT_LT(maxAbsDiff(matmul(a, bt, false, true), ref), 1e-4f);
    EXPECT_LT(maxAbsDiff(matmul(at, bt, true, true), ref), 1e-4f);
}

TEST(Gemm, Accumulate)
{
    Rng rng(7);
    Tensor a(Shape({3, 3}));
    Tensor b(Shape({3, 3}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    Tensor c(Shape({3, 3}), 3.0f);
    gemm(a, false, b, false, c, /*accumulate=*/true);
    Tensor ref = matmul(a, b);
    for (std::int64_t i = 0; i < 9; ++i)
        EXPECT_NEAR(c[i], ref[i] + 3.0f, 1e-4f);
}

TEST(Gemm, ShapeChecks)
{
    Tensor a(Shape({2, 3}));
    Tensor b(Shape({4, 5}));
    Tensor c(Shape({2, 5}));
    EXPECT_THROW(gemm(a, false, b, false, c), FatalError);
}

TEST(Im2col, KnownSmallCase)
{
    // 1 channel 3x3 image, 2x2 kernel, stride 1, no pad -> 4 columns.
    Tensor img(Shape({1, 1, 3, 3}));
    for (std::int64_t i = 0; i < 9; ++i)
        img[i] = static_cast<float>(i);
    ConvGeom g{1, 3, 3, 2, 2, 1, 0};
    Tensor cols = im2col(img, 0, g);
    EXPECT_EQ(cols.shape(), Shape({4, 4}));
    // Row 0 = kernel position (0,0) over the 4 output pixels.
    EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(cols.at(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(cols.at(0, 2), 3.0f);
    EXPECT_FLOAT_EQ(cols.at(0, 3), 4.0f);
    // Row 3 = kernel position (1,1).
    EXPECT_FLOAT_EQ(cols.at(3, 0), 4.0f);
    EXPECT_FLOAT_EQ(cols.at(3, 3), 8.0f);
}

TEST(Im2col, PaddingProducesZeros)
{
    Tensor img(Shape({1, 1, 2, 2}), 1.0f);
    ConvGeom g{1, 2, 2, 3, 3, 1, 1};
    Tensor cols = im2col(img, 0, g);
    EXPECT_EQ(cols.shape(), Shape({9, 4}));
    // Top-left kernel tap over output (0,0) reads padding.
    EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
    // Center tap always reads real pixels.
    EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0f);
}

/**
 * Adjoint property: <im2col(x), y> == <x, col2im(y)> for random x, y.
 * This is exactly the identity conv backward depends on.
 */
TEST(Im2col, Col2imIsAdjoint)
{
    Rng rng(9);
    ConvGeom g{2, 5, 5, 3, 3, 2, 1};
    Tensor x(Shape({1, 2, 5, 5}));
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor cols = im2col(x, 0, g);
    Tensor y(cols.shape());
    y.fillNormal(rng, 0.0f, 1.0f);

    double lhs = 0.0;
    for (std::int64_t i = 0; i < cols.numel(); ++i)
        lhs += static_cast<double>(cols[i]) * y[i];

    Tensor xgrad(x.shape());
    col2im(y, xgrad, 0, g);
    double rhs = 0.0;
    for (std::int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x[i]) * xgrad[i];

    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, ElementwiseAndSse)
{
    Tensor a(Shape({4}), 1.0f);
    Tensor b(Shape({4}), 2.0f);
    Tensor c = add(a, b);
    EXPECT_FLOAT_EQ(c[0], 3.0f);
    Tensor m = mul(a, b);
    EXPECT_FLOAT_EQ(m[3], 2.0f);
    axpy(a, 2.0f, b);
    EXPECT_FLOAT_EQ(a[0], 5.0f);
    EXPECT_DOUBLE_EQ(sse(b, b), 0.0);
    EXPECT_DOUBLE_EQ(sse(c, b), 4.0);
    scaleInPlace(b, 0.5f);
    EXPECT_FLOAT_EQ(b[0], 1.0f);
}

} // namespace
} // namespace mvq
