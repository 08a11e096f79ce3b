/**
 * @file
 * Seeded differential test of the conv forwards over random kernel
 * shapes, and of the matrix gemm over random matrix shapes. From a seed,
 * each conv case draws a conv geometry — channels, input size, square
 * kernel 1-7, stride 1-3, pad 0-3, groups (depthwise included), batch
 * 1-3 and output channels — and checks on every ISA this host can
 * execute:
 *
 * - nn::Conv2d::forward against im2col + gemmRaw per (batch, group)
 *   (memcmp) and against gemmReference (1e-4);
 * - nn::CompressedConv2d::forward over a random N:M operand against
 *   im2col + gemmSparseARaw over each group's rows (memcmp) and
 *   gemmSparseAReference (1e-4);
 * - both forwards at 1 thread against 4 threads and against a nested
 *   run inside a parallel region (memcmp).
 *
 * Each gemm case draws m, n and k around the scalar-fallback crossover
 * (kGemmScalarFallbackMacs) or across one cache-block edge (kGemmMC,
 * kGemmKC, kGemmNC), a transpose case, alpha and beta (beta 0 over a
 * NaN-filled C) and padded leading dimensions, and checks gemmRaw
 * against gemmReferenceRaw (1e-4) on every ISA, with 1 vs 4 threads and
 * nested by memcmp.
 *
 * ctest runs the pinned seeds 1-200 (see main()). A longer local run
 * takes the first seed and the case count on the command line, e.g.
 *
 *     ./build/conv_differential_test --seed 1000 --iters 500
 *
 * and every failure names its seed, so it can join the pinned list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/simd_dispatch.hpp"
#include "core/nm_pruning.hpp"
#include "csr_test_util.hpp"
#include "seed_args.hpp"
#include "nn/compressed_conv2d.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"

namespace mvq {
namespace {

using simd::Isa;

/** The seeds this run draws its cases from (set by main()). */
std::vector<std::uint64_t> g_seeds;

struct Case
{
    std::int64_t batch, groups, cg, kg, h, w, kernel, stride, pad;
    core::NmPattern nm;
};

/** Draw one conv geometry from seed. */
Case
drawCase(std::uint64_t seed)
{
    Rng rng(seed);
    Case c{};
    c.batch = rng.intIn(1, 3);
    c.kernel = rng.intIn(1, 7);
    c.stride = rng.intIn(1, 3);
    c.pad = rng.intIn(0, 3);
    switch (rng.intIn(0, 2)) {
    case 0: // plain
        c.groups = 1;
        c.cg = rng.intIn(1, 16);
        c.kg = rng.intIn(1, 80);
        break;
    case 1: // grouped
        c.groups = rng.intIn(2, 4);
        c.cg = rng.intIn(1, 6);
        c.kg = rng.intIn(1, 12);
        break;
    default: // depthwise, depth multiplier 1 or 2
        c.groups = rng.intIn(2, 24);
        c.cg = 1;
        c.kg = rng.intIn(1, 2);
        break;
    }
    // The padded input must hold the kernel; past that, up to 20 more.
    const std::int64_t lo = std::max<std::int64_t>(1, c.kernel - 2 * c.pad);
    c.h = rng.intIn(lo, lo + 20);
    c.w = rng.intIn(lo, lo + 20);
    const std::int64_t m = std::int64_t{4} << rng.intIn(0, 2); // 4, 8, 16
    c.nm = core::NmPattern{static_cast<int>(rng.intIn(1, m / 2)),
                           static_cast<int>(m)};
    return c;
}

std::vector<Isa>
availableIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (simd::isaAvailable(isa))
            out.push_back(isa);
    }
    return out;
}

/** Random kg x k N:M operand (k need not be a multiple of M: the
 *  pattern covers the columns rounded up, and the excess is cut). */
SparseRowMatrix
randomNmOperand(Rng &rng, std::int64_t kg, std::int64_t k,
                const core::NmPattern &nm)
{
    const std::int64_t kp = (k + nm.m - 1) / nm.m * nm.m;
    const Tensor full = core::randomNmMatrix(rng, kg, kp, nm);
    Tensor a(Shape({kg, k}));
    for (std::int64_t i = 0; i < kg; ++i)
        std::copy(full.data() + i * kp, full.data() + i * kp + k,
                  a.data() + i * k);
    return sparsifyRows(a);
}

void
expectBitIdentical(const Tensor &want, const Tensor &got, const char *what)
{
    ASSERT_EQ(want.shape(), got.shape()) << what;
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             static_cast<std::size_t>(want.numel())
                                 * sizeof(float)))
        << what;
}

void
expectClose(const Tensor &want, const Tensor &got, const char *what)
{
    ASSERT_EQ(want.shape(), got.shape()) << what;
    for (std::int64_t i = 0; i < want.numel(); ++i) {
        const float denom = std::max(1.0f, std::fabs(want[i]));
        ASSERT_LE(std::fabs(want[i] - got[i]) / denom, 1e-4f)
            << what << " elem " << i;
    }
}

/** forward() at 1 thread, then memcmp-equal at 4 threads and nested. */
template <typename Fn>
Tensor
threadInvariant(Fn forward, const char *what)
{
    setNumThreads(1);
    const Tensor one = forward();
    setNumThreads(4);
    expectBitIdentical(one, forward(), what);
    Tensor nested;
    parallelFor(0, 2, 1, [&](std::int64_t b, std::int64_t) {
        if (b == 0)
            nested = forward();
    });
    expectBitIdentical(one, nested, what);
    return one;
}

class ConvDifferential : public testing::Test
{
  protected:
    void
    TearDown() override
    {
        simd::setIsa(saved_);
        setNumThreads(0);
    }

  private:
    Isa saved_ = simd::activeIsa();
};

struct GemmCase
{
    std::int64_t m, n, k, pad_a, pad_b, pad_c;
    bool trans_a, trans_b;
    float alpha, beta;
};

/** Draw one matrix-gemm shape from seed (a stream apart from the
 *  conv case of the same seed). */
GemmCase
drawGemmCase(std::uint64_t seed)
{
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    auto near = [&](std::int64_t edge) {
        const std::int64_t blocks = rng.intIn(1, 2);
        return edge * blocks + rng.intIn(-2, 2);
    };
    GemmCase c{};
    switch (rng.intIn(0, 3)) {
    case 0: // every dim small: m*n*k on both sides of the fallback
        c.m = rng.intIn(1, 40);
        c.n = rng.intIn(1, 40);
        c.k = rng.intIn(1, 40);
        break;
    case 1: // row blocks
        c.m = near(simd::kGemmMC);
        c.n = rng.intIn(1, 48);
        c.k = rng.intIn(1, 48);
        break;
    case 2: // K blocks
        c.m = rng.intIn(1, 32);
        c.n = rng.intIn(1, 32);
        c.k = near(simd::kGemmKC);
        break;
    default: // N strips
        c.m = rng.intIn(1, 16);
        c.n = near(simd::kGemmNC);
        c.k = rng.intIn(1, 16);
        break;
    }
    c.trans_a = rng.intIn(0, 1) == 1;
    c.trans_b = rng.intIn(0, 1) == 1;
    c.pad_a = rng.intIn(0, 3);
    c.pad_b = rng.intIn(0, 3);
    c.pad_c = rng.intIn(0, 3);
    const float alphas[] = {1.0f, 0.5f, -1.25f};
    const float betas[] = {0.0f, 0.0f, 1.0f, 0.5f};
    c.alpha = alphas[rng.intIn(0, 2)];
    c.beta = betas[rng.intIn(0, 3)];
    return c;
}

TEST_F(ConvDifferential, RandomMatrixGemmsMatchReference)
{
    for (const std::uint64_t seed : g_seeds) {
        const GemmCase c = drawGemmCase(seed);
        // op(A) is m x k and op(B) k x n; each is stored transposed or
        // not, row-major, with its leading dimension padded.
        const std::int64_t a_rows = c.trans_a ? c.k : c.m;
        const std::int64_t lda = (c.trans_a ? c.m : c.k) + c.pad_a;
        const std::int64_t b_rows = c.trans_b ? c.n : c.k;
        const std::int64_t ldb = (c.trans_b ? c.k : c.n) + c.pad_b;
        const std::int64_t ldc = c.n + c.pad_c;
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << ": m " << c.m << " n " << c.n
                     << " k " << c.k << (c.trans_a ? " A^T" : " A")
                     << (c.trans_b ? " B^T" : " B") << " lda " << lda
                     << " ldb " << ldb << " ldc " << ldc << " alpha "
                     << c.alpha << " beta " << c.beta);

        Rng rng(seed * 6271 + 3);
        Tensor a(Shape({a_rows, lda}));
        a.fillNormal(rng, 0.0f, 1.0f);
        Tensor b(Shape({b_rows, ldb}));
        b.fillNormal(rng, 0.0f, 1.0f);
        // beta 0 ignores C, NaN included; its padding columns must stay.
        Tensor c0(Shape({c.m, ldc}), std::numeric_limits<float>::quiet_NaN());
        if (c.beta != 0.0f)
            c0.fillNormal(rng, 0.0f, 1.0f);
        auto run = [&](bool reference) {
            Tensor out = c0;
            (reference ? gemmReferenceRaw : gemmRaw)(
                c.m, c.n, c.k, c.alpha, a.data(), lda, c.trans_a, b.data(),
                ldb, c.trans_b, c.beta, out.data(), ldc);
            return out;
        };
        const Tensor want = run(true);

        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            const char *name = simd::isaName(isa);
            const Tensor got = threadInvariant([&] { return run(false); },
                                               name);
            for (std::int64_t i = 0; i < c.m; ++i) {
                for (std::int64_t j = 0; j < ldc; ++j) {
                    const float w = want[i * ldc + j];
                    const float g = got[i * ldc + j];
                    if (j >= c.n) {
                        ASSERT_EQ(0, std::memcmp(&w, &g, sizeof(float)))
                            << name << " touched C padding at " << i << ","
                            << j;
                        continue;
                    }
                    ASSERT_LE(std::fabs(w - g) / std::max(1.0f, std::fabs(w)),
                              1e-4f)
                        << name << " C(" << i << "," << j << ")";
                }
            }
        }
        if (HasFatalFailure())
            return;
    }
}

TEST_F(ConvDifferential, RandomGeometriesMatchOracles)
{
    for (const std::uint64_t seed : g_seeds) {
        const Case c = drawCase(seed);
        const std::int64_t in_c = c.groups * c.cg;
        const std::int64_t out_c = c.groups * c.kg;
        const ConvGeom g{c.cg, c.h, c.w, c.kernel, c.kernel, c.stride,
                         c.pad};
        const std::int64_t k = c.cg * c.kernel * c.kernel;
        const std::int64_t ohw = g.outH() * g.outW();
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << ": batch " << c.batch << ", "
                     << in_c << "->" << out_c << " ch, groups " << c.groups
                     << ", " << c.h << "x" << c.w << ", " << c.kernel << "x"
                     << c.kernel << "/" << c.stride << " pad " << c.pad
                     << ", " << c.nm.n << ":" << c.nm.m);
        ASSERT_GT(ohw, 0);

        Rng rng(seed * 7919 + 1);
        Tensor x(Shape({c.batch, in_c, c.h, c.w}));
        x.fillNormal(rng, 0.0f, 1.0f);
        nn::Conv2d dense("dense",
                         nn::Conv2dConfig{in_c, out_c, c.kernel, c.stride,
                                          c.pad, c.groups, false},
                         rng);
        auto operands = std::make_shared<std::vector<GroupedSparseMatrix>>(1);
        operands->front().rows = randomNmOperand(rng, out_c, k, c.nm);
        const nn::CompressedConv2d sparse(
            "sparse", Shape({out_c, c.cg, c.kernel, c.kernel}), operands,
            c.stride, c.pad, c.groups);
        // Group g's rows of the one operand, the per-group oracles' input.
        std::vector<SparseRowMatrix> group_ops;
        for (std::int64_t grp = 0; grp < c.groups; ++grp)
            group_ops.push_back(rowSlice(sparse.operand(), grp * c.kg,
                                         (grp + 1) * c.kg));

        // Oracles per (batch, group) on the materialized cols: the dense
        // reference gemm and the double-summing sparse reference.
        const Tensor w = dense.weight().value.reshaped(Shape({out_c, k}));
        std::vector<Tensor> cols;
        Tensor want_dense(Shape({c.batch, out_c, g.outH(), g.outW()}));
        Tensor want_sparse(want_dense.shape());
        for (std::int64_t n = 0; n < c.batch; ++n) {
            for (std::int64_t grp = 0; grp < c.groups; ++grp) {
                cols.push_back(im2col(x, n, g, grp * c.cg));
                const std::int64_t at = (n * out_c + grp * c.kg) * ohw;
                Tensor wg(Shape({c.kg, k}));
                std::copy(w.data() + grp * c.kg * k,
                          w.data() + (grp + 1) * c.kg * k, wg.data());
                Tensor cd(Shape({c.kg, ohw}));
                gemmReference(wg, false, cols.back(), false, cd);
                std::copy(cd.data(), cd.data() + cd.numel(),
                          want_dense.data() + at);
                Tensor cs(Shape({c.kg, ohw}));
                gemmSparseAReference(group_ops[static_cast<std::size_t>(grp)],
                                     cols.back(), cs);
                std::copy(cs.data(), cs.data() + cs.numel(),
                          want_sparse.data() + at);
            }
        }

        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            const char *name = simd::isaName(isa);
            // The unfused compositions, per (batch, group).
            Tensor unfused_dense(want_dense.shape());
            Tensor unfused_sparse(want_dense.shape());
            for (std::int64_t n = 0; n < c.batch; ++n) {
                for (std::int64_t grp = 0; grp < c.groups; ++grp) {
                    const float *pb = cols[static_cast<std::size_t>(
                                               n * c.groups + grp)]
                                          .data();
                    const std::int64_t at = (n * out_c + grp * c.kg) * ohw;
                    gemmRaw(c.kg, ohw, k, 1.0f, w.data() + grp * c.kg * k,
                            k, false, pb, ohw, false, 0.0f,
                            unfused_dense.data() + at, ohw);
                    gemmSparseARaw(group_ops[static_cast<std::size_t>(grp)],
                                   pb, ohw, unfused_sparse.data() + at, ohw);
                }
            }

            const Tensor got_dense = threadInvariant(
                [&] { return dense.forward(x, false); }, name);
            expectBitIdentical(unfused_dense, got_dense, name);
            expectClose(want_dense, got_dense, name);

            const Tensor got_sparse =
                threadInvariant([&] { return sparse.forward(x); }, name);
            expectBitIdentical(unfused_sparse, got_sparse, name);
            expectClose(want_sparse, got_sparse, name);
        }
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace mvq

/** gtest's own flags, plus --seed/--iters (seed_args.hpp) over the
 *  pinned seeds 1-200. */
int
main(int argc, char **argv)
{
    testing::InitGoogleTest(&argc, argv);
    if (!mvq::parseSeedArgs(argc, argv, 200, &mvq::g_seeds))
        return 2;
    return RUN_ALL_TESTS();
}
