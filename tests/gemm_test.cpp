/**
 * @file
 * GEMM kernel coverage: every transpose combination, overwriting and
 * accumulating, checked against the scalar reference kernel, at sizes that
 * exercise both the small-problem fast path and the packed/blocked path
 * (including partial MR/NR/MC/KC tiles).
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "tensor/ops.hpp"

namespace mvq {
namespace {

struct ThreadGuard
{
    ~ThreadGuard() { setNumThreads(0); }
};

Tensor
randomMat(Rng &rng, std::int64_t r, std::int64_t c)
{
    Tensor t(Shape({r, c}));
    t.fillNormal(rng, 0.0f, 1.0f);
    return t;
}

/** Run gemm and gemmReference on identical inputs and compare. An
 *  overwriting gemm starts from a NaN-filled C, which it must ignore. */
void
checkAgainstReference(std::int64_t m, std::int64_t n, std::int64_t k,
                      bool trans_a, bool trans_b, bool accumulate = false)
{
    Rng rng(99);
    Tensor a = trans_a ? randomMat(rng, k, m) : randomMat(rng, m, k);
    Tensor b = trans_b ? randomMat(rng, n, k) : randomMat(rng, k, n);
    const Tensor c0 = accumulate
        ? randomMat(rng, m, n)
        : Tensor(Shape({m, n}), std::numeric_limits<float>::quiet_NaN());

    Tensor c_ref = c0;
    gemmReference(a, trans_a, b, trans_b, c_ref, accumulate);
    Tensor c_opt = c0;
    gemm(a, trans_a, b, trans_b, c_opt, accumulate);

    // The blocked kernel reorders the k accumulation, so allow a small
    // relative tolerance scaled by the reduction depth.
    const float tol = 1e-5f * static_cast<float>(k);
    const float diff = maxAbsDiff(c_ref, c_opt);
    EXPECT_LE(diff, tol) << "m=" << m << " n=" << n << " k=" << k
                         << " ta=" << trans_a << " tb=" << trans_b
                         << " accumulate=" << accumulate;
}

TEST(Gemm, AllTransposeCombosSmall)
{
    for (bool ta : {false, true})
        for (bool tb : {false, true})
            checkAgainstReference(7, 9, 11, ta, tb);
}

TEST(Gemm, AllTransposeCombosBlocked)
{
    // Big enough to take the packed path with ragged tile edges.
    for (bool ta : {false, true})
        for (bool tb : {false, true})
            checkAgainstReference(67, 41, 53, ta, tb);
}

TEST(Gemm, Accumulation)
{
    for (bool ta : {false, true}) {
        for (bool tb : {false, true}) {
            checkAgainstReference(34, 29, 47, ta, tb, true);
            checkAgainstReference(7, 9, 11, ta, tb, true);
        }
    }
}

TEST(Gemm, ExactMultipleOfTiles)
{
    // Dimensions hitting MR/NR/MC/KC boundaries exactly.
    checkAgainstReference(64, 64, 64, false, false);
    checkAgainstReference(128, 8, 256, false, false, true);
}

TEST(Gemm, DegenerateShapes)
{
    checkAgainstReference(1, 1, 1, false, false);
    checkAgainstReference(1, 65, 300, false, true);
    checkAgainstReference(65, 1, 300, true, false);
}

TEST(Gemm, MatchesReferenceAtMultipleThreadCounts)
{
    ThreadGuard guard;
    for (int threads : {1, 2, 4}) {
        setNumThreads(threads);
        checkAgainstReference(70, 66, 130, false, false);
        checkAgainstReference(70, 66, 130, true, true);
    }
}

TEST(Gemm, ShapeMismatchesThrow)
{
    Rng rng(5);
    Tensor a = randomMat(rng, 4, 5);
    Tensor b = randomMat(rng, 6, 7);
    Tensor c = randomMat(rng, 4, 7);
    EXPECT_THROW(gemm(a, false, b, false, c), FatalError);
    Tensor b2 = randomMat(rng, 5, 7);
    Tensor cbad = randomMat(rng, 4, 6);
    EXPECT_THROW(gemm(a, false, b2, false, cbad), FatalError);
}

} // namespace
} // namespace mvq
