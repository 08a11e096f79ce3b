/**
 * @file
 * Fused im2col->B-panel packing coverage: gemmIm2colRaw and
 * gemmSparseAIm2col against the materializing im2col + gemm composition
 * they replace — bit-identity (dense) and 1e-4 oracle parity (sparse)
 * for every ISA this host can execute, on both sides of the
 * small-problem crossover, over padded/strided/panel-straddling
 * geometries; 1-vs-4-thread memcmp; degenerate 0-output-dim panics; and
 * the Conv2d / CompressedConv2d forwards (grouped, strided, padded)
 * against the im2col + gemm composition per (batch, group).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"
#include "core/compressed_layer.hpp"
#include "core/nm_pruning.hpp"
#include "nn/compressed_conv2d.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"

namespace mvq {
namespace {

using simd::Isa;

struct IsaGuard
{
    simd::Isa saved = simd::activeIsa();
    ~IsaGuard() { simd::setIsa(saved); }
};

struct ThreadGuard
{
    ~ThreadGuard() { setNumThreads(0); }
};

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

/** Random [rows, cols] matrix with the compressed-layer 4:16 structure. */
Tensor
masked416Matrix(std::uint64_t seed, std::int64_t rows, std::int64_t cols)
{
    Rng rng(seed);
    return core::randomNmMatrix(rng, rows, cols, core::NmPattern{4, 16});
}

void
expectClose(const Tensor &ref, const Tensor &got, const char *what)
{
    ASSERT_EQ(ref.numel(), got.numel()) << what;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
        const float denom = std::max(1.0f, std::fabs(ref[i]));
        ASSERT_LE(std::fabs(ref[i] - got[i]) / denom, 1e-4f)
            << what << " elem " << i;
    }
}

/** NCHW input with batch 1 whose data() is the (0, c0=0) slab base. */
Tensor
randomInput(std::uint64_t seed, const ConvGeom &g)
{
    Rng rng(seed);
    Tensor x(Shape({1, g.in_c, g.in_h, g.in_w}));
    x.fillNormal(rng, 0.0f, 1.0f);
    return x;
}

/** Unfused oracle: materialize cols, run the dense-B gemm. */
Tensor
denseUnfused(const Tensor &a, const Tensor &x, const ConvGeom &g,
             float alpha = 1.0f, float beta = 0.0f, float cfill = 0.0f)
{
    const Tensor cols = im2col(x, 0, g);
    Tensor c(Shape({a.dim(0), cols.dim(1)}), cfill);
    gemmRaw(a.dim(0), cols.dim(1), a.dim(1), alpha, a.data(), a.dim(1),
            false, cols.data(), cols.dim(1), false, beta, c.data(),
            cols.dim(1));
    return c;
}

Tensor
denseFused(const Tensor &a, const Tensor &x, const ConvGeom &g,
           float alpha = 1.0f, float beta = 0.0f, float cfill = 0.0f)
{
    const Im2colB b{x.data(), g};
    Tensor c(Shape({a.dim(0), b.cols()}), cfill);
    gemmIm2colRaw(a.dim(0), alpha, a.data(), a.dim(1), b, beta, c.data(),
                  b.cols());
    return c;
}

void
expectBitIdentical(const Tensor &ref, const Tensor &got, const char *what)
{
    ASSERT_EQ(ref.shape(), got.shape()) << what;
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                             static_cast<std::size_t>(ref.numel())
                                 * sizeof(float)))
        << what;
}

TEST(FusedPack, DenseBitIdenticalToIm2colAllIsas)
{
    IsaGuard guard;
    // C=8, 3x3, pad 1 on 11x11 -> k=72, n=121; m=24 puts the problem well
    // past kGemmScalarFallbackMacs, so both sides run the blocked driver.
    const ConvGeom g{8, 11, 11, 3, 3, 1, 1};
    const Tensor x = randomInput(3, g);
    Rng rng(4);
    Tensor a(Shape({24, g.in_c * g.k_h * g.k_w}));
    a.fillNormal(rng, 0.0f, 1.0f);
    ASSERT_GT(a.dim(0) * a.dim(1) * g.outH() * g.outW(),
              kGemmScalarFallbackMacs);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(denseUnfused(a, x, g), denseFused(a, x, g),
                           simd::isaName(isa));
    }
}

TEST(FusedPack, DenseBitIdenticalOnSmallProblemFallback)
{
    IsaGuard guard;
    // Tiny problem: both sides fall back to materialize + reference gemm.
    const ConvGeom g{2, 5, 5, 3, 3, 1, 0};
    const Tensor x = randomInput(5, g);
    Rng rng(6);
    Tensor a(Shape({4, g.in_c * g.k_h * g.k_w}));
    a.fillNormal(rng, 0.0f, 1.0f);
    ASSERT_LE(a.dim(0) * a.dim(1) * g.outH() * g.outW(),
              kGemmScalarFallbackMacs);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(denseUnfused(a, x, g), denseFused(a, x, g),
                           simd::isaName(isa));
    }
}

TEST(FusedPack, DenseStridedPaddedGeometries)
{
    IsaGuard guard;
    // Geometry sweep: heavy padding (pad >= kernel reach so whole panel
    // rows are padding), stride 2 and 3 (the non-memcpy pack path),
    // non-square input, 1x1 kernel, and an n big enough to straddle
    // several nr-panels with a ragged final panel.
    const std::vector<ConvGeom> geoms = {
        {4, 9, 13, 3, 3, 2, 1},  // strided, non-square
        {3, 8, 8, 3, 3, 1, 3},   // pad wider than the kernel reach
        {6, 17, 17, 5, 5, 3, 2}, // large kernel, stride 3
        {8, 12, 12, 1, 1, 1, 0}, // 1x1: im2col is a pure copy
        {2, 21, 21, 3, 3, 1, 1}, // n = 441: ragged last nr-panel
    };
    for (std::size_t gi = 0; gi < geoms.size(); ++gi) {
        const ConvGeom &g = geoms[gi];
        const Tensor x = randomInput(10 + gi, g);
        Rng rng(20 + gi);
        Tensor a(Shape({16, g.in_c * g.k_h * g.k_w}));
        a.fillNormal(rng, 0.0f, 1.0f);
        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            expectBitIdentical(denseUnfused(a, x, g), denseFused(a, x, g),
                               simd::isaName(isa));
        }
    }
}

TEST(FusedPack, DenseAlphaBetaMatchUnfused)
{
    IsaGuard guard;
    const ConvGeom g{4, 10, 10, 3, 3, 1, 1};
    const Tensor x = randomInput(31, g);
    Rng rng(32);
    Tensor a(Shape({12, g.in_c * g.k_h * g.k_w}));
    a.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(denseUnfused(a, x, g, 0.5f, 1.0f, 2.0f),
                           denseFused(a, x, g, 0.5f, 1.0f, 2.0f),
                           simd::isaName(isa));
    }
}

TEST(FusedPack, DeepKernelStraddlesKcBlocks)
{
    IsaGuard guard;
    // k = 40 * 9 = 360 > kGemmKC forces at least two KC blocks, so the
    // fused packer's (k0, kc) slicing of the virtual rows is exercised.
    const ConvGeom g{40, 8, 8, 3, 3, 1, 1};
    ASSERT_GT(g.in_c * g.k_h * g.k_w, simd::kGemmKC);
    const Tensor x = randomInput(41, g);
    Rng rng(42);
    Tensor a(Shape({16, g.in_c * g.k_h * g.k_w}));
    a.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(denseUnfused(a, x, g), denseFused(a, x, g),
                           simd::isaName(isa));
    }
}

TEST(FusedPack, SparseMatchesUnfusedAndOracleAllIsas)
{
    IsaGuard guard;
    // C=16, 3x3 on 14x14 pad 1 -> k=144, n=196; 4:16 rows give
    // nnz*n = 32*36*196 well past the crossover (blocked path).
    const ConvGeom g{16, 14, 14, 3, 3, 1, 1};
    const Tensor x = randomInput(51, g);
    const std::int64_t k = g.in_c * g.k_h * g.k_w;
    const std::int64_t n = g.outH() * g.outW();
    Tensor a = masked416Matrix(52, 32, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    ASSERT_GT(sp.nnz() * n, kGemmScalarFallbackMacs);

    // Oracle: unblocked reference scan over the materialized cols.
    const Tensor cols = im2col(x, 0, g);
    Tensor c_oracle(Shape({32, n}));
    gemmSparseAReference(sp, cols, c_oracle);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_unfused(Shape({32, n}));
        gemmSparseARaw(sp, cols.data(), n, n, 1.0f, 0.0f, c_unfused.data(),
                       n);
        Tensor c_fused(Shape({32, n}));
        gemmSparseAIm2col(sp, Im2colB{x.data(), g}, 1.0f, 0.0f,
                          c_fused.data(), n);
        expectBitIdentical(c_unfused, c_fused, simd::isaName(isa));
        expectClose(c_oracle, c_fused, simd::isaName(isa));
    }
}

TEST(FusedPack, SparseSmallProblemFallbackBitIdentical)
{
    IsaGuard guard;
    const ConvGeom g{16, 7, 7, 3, 3, 1, 0};
    const Tensor x = randomInput(61, g);
    const std::int64_t k = g.in_c * g.k_h * g.k_w; // 144: multiple of M=16
    const std::int64_t n = g.outH() * g.outW();
    Tensor a = masked416Matrix(62, 4, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    ASSERT_LE(sp.nnz() * n, kGemmScalarFallbackMacs);

    const Tensor cols = im2col(x, 0, g);
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_unfused(Shape({4, n}));
        gemmSparseARaw(sp, cols.data(), n, n, 1.0f, 0.0f, c_unfused.data(),
                       n);
        Tensor c_fused(Shape({4, n}));
        gemmSparseAIm2col(sp, Im2colB{x.data(), g}, 1.0f, 0.0f,
                          c_fused.data(), n);
        expectBitIdentical(c_unfused, c_fused, simd::isaName(isa));
    }
}

/**
 * Run `gemm` (which fills its argument) from inside chunk 0 of an outer
 * parallelFor, the way a batched conv calls it per image: the nested
 * call runs its tasks inline on that chunk's thread.
 */
template <typename Fn>
void
runNested(Fn gemm)
{
    parallelFor(0, 2, 1, [&](std::int64_t b, std::int64_t) {
        if (b == 0)
            gemm();
    });
}

TEST(FusedPack, ThreadCountDeterministicPerIsa)
{
    IsaGuard guard;
    ThreadGuard tguard;
    // Geometries straddle both drivers' partitions: several row blocks;
    // one row block with n split over many panels and two N strips; a
    // 1-row second block; two sparse K blocks with one strip whose last
    // panel has one column; and a single output pixel. The dense driver
    // splits panels only while row blocks are fewer than threads, so the
    // 8-block case runs sparse only (it is the slow one under TSan).
    struct Case
    {
        std::int64_t m;
        ConvGeom g;
        bool dense;
    };
    const Case cases[] = {
        {32, {16, 13, 13, 3, 3, 1, 1}, true},
        {64, {16, 48, 48, 3, 3, 1, 1}, true},
        {65, {16, 13, 13, 3, 3, 1, 1}, true},
        {512, {512, 7, 7, 3, 3, 1, 1}, false},
        {16, {512, 3, 3, 3, 3, 1, 0}, true},
    };
    for (const Case &cs : cases) {
        const std::int64_t m = cs.m;
        const ConvGeom &g = cs.g;
        const std::int64_t k = g.in_c * g.k_h * g.k_w; // multiple of M=16
        const std::int64_t n = g.outH() * g.outW();
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k
                                        << " n=" << n);
        const Tensor x = randomInput(71 + m, g);
        Rng rng(72 + m);
        Tensor a(Shape({m, k}));
        a.fillNormal(rng, 0.0f, 1.0f);
        Tensor am = masked416Matrix(73 + m, m, k);
        const SparseRowMatrix sp = sparsifyRows(am);
        ASSERT_GT(sp.nnz() * n, kGemmScalarFallbackMacs); // blocked path
        const Tensor cols = im2col(x, 0, g);
        Tensor s_oracle(Shape({m, n}));
        gemmSparseAReference(sp, cols, s_oracle);
        auto sparse = [&](Tensor &s) {
            gemmSparseAIm2col(sp, Im2colB{x.data(), g}, 1.0f, 0.0f,
                              s.data(), n);
        };

        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            setNumThreads(1);
            const Tensor d1 = cs.dense ? denseFused(a, x, g) : Tensor();
            Tensor s1(Shape({m, n}));
            sparse(s1);
            expectClose(s_oracle, s1, simd::isaName(isa));
            for (int threads : {2, 3, 4}) {
                setNumThreads(threads);
                if (cs.dense)
                    expectBitIdentical(d1, denseFused(a, x, g),
                                       simd::isaName(isa));
                Tensor st(Shape({m, n}));
                sparse(st);
                expectBitIdentical(s1, st, simd::isaName(isa));
            }
            Tensor dn, sn(Shape({m, n}));
            runNested([&] {
                if (cs.dense)
                    dn = denseFused(a, x, g);
                sparse(sn);
            });
            if (cs.dense)
                expectBitIdentical(d1, dn, simd::isaName(isa));
            expectBitIdentical(s1, sn, simd::isaName(isa));
        }
    }
}

TEST(FusedPack, DegenerateGeometryPanics)
{
    // Kernel larger than the padded input: outH() clamps to 0 and every
    // fused entry point must panic instead of packing a 0-column B.
    const ConvGeom g{1, 2, 5, 3, 3, 2, 0};
    ASSERT_EQ(g.outH(), 0);
    std::vector<float> slab(static_cast<std::size_t>(g.in_h * g.in_w),
                            1.0f);
    const Im2colB b{slab.data(), g};

    std::vector<float> buf(64, 0.0f);
    EXPECT_THROW(packBFromIm2col(b, 0, 0, 4, 8, 8, buf.data()),
                 PanicError);
    EXPECT_THROW(gemmIm2colRaw(2, 1.0f, buf.data(), 9, b, 0.0f, buf.data(),
                               4),
                 PanicError);

    SparseRowMatrix sp;
    sp.rows = 1;
    sp.cols = 9;
    sp.row_ptr = {0, 1};
    sp.col_idx = {0};
    sp.values = {1.0f};
    EXPECT_THROW(gemmSparseAIm2col(sp, b, 1.0f, 0.0f, buf.data(), 4),
                 PanicError);
}

TEST(FusedPack, SparseInnerDimMismatchPanics)
{
    const ConvGeom g{2, 6, 6, 3, 3, 1, 1};
    std::vector<float> slab(
        static_cast<std::size_t>(g.in_c * g.in_h * g.in_w), 1.0f);
    SparseRowMatrix sp; // cols = 4 != g rows = 18
    sp.rows = 1;
    sp.cols = 4;
    sp.row_ptr = {0, 1};
    sp.col_idx = {0};
    sp.values = {1.0f};
    std::vector<float> c(64, 0.0f);
    EXPECT_THROW(gemmSparseAIm2col(sp, Im2colB{slab.data(), g}, 1.0f, 0.0f,
                                   c.data(), 36),
                 PanicError);
}

/**
 * Conv2d::forward without the fusion: materialize each (batch, group)
 * pair's cols, run the dense-B gemm into its output slab, add the bias.
 */
Tensor
conv2dUnfused(nn::Conv2d &conv, const Tensor &x)
{
    const nn::Conv2dConfig &cc = conv.config();
    const std::int64_t cg = cc.in_channels / cc.groups;
    const std::int64_t kg = cc.out_channels / cc.groups;
    const ConvGeom g{cg, x.dim(2), x.dim(3), cc.kernel, cc.kernel,
                     cc.stride, cc.pad};
    const std::int64_t ohw = g.outH() * g.outW();
    const std::int64_t wcols = cg * cc.kernel * cc.kernel;
    const float *pw = conv.weight().value.data();
    Tensor out(Shape({x.dim(0), cc.out_channels, g.outH(), g.outW()}));
    for (std::int64_t n = 0; n < x.dim(0); ++n) {
        for (std::int64_t grp = 0; grp < cc.groups; ++grp) {
            const Tensor cols = im2col(x, n, g, grp * cg);
            gemmRaw(kg, ohw, wcols, 1.0f, pw + grp * kg * wcols, wcols,
                    false, cols.data(), ohw, false, 0.0f,
                    out.data() + (n * cc.out_channels + grp * kg) * ohw,
                    ohw);
        }
        for (std::int64_t k = 0; k < cc.out_channels; ++k) {
            float *po = out.data() + (n * cc.out_channels + k) * ohw;
            for (std::int64_t i = 0; i < ohw; ++i)
                po[i] += conv.biasParam().value[k];
        }
    }
    return out;
}

TEST(FusedPack, Conv2dForwardFusedMatchesUnfused)
{
    IsaGuard iguard;
    // Grouped AND strided AND padded, batch 2, with a bias.
    Rng rng(81);
    nn::Conv2dConfig cc{8, 12, 3, 2, 1, 2, true};
    nn::Conv2d conv("conv", cc, rng);
    conv.biasParam().value.fillNormal(rng, 0.0f, 1.0f);
    Tensor x(Shape({2, 8, 11, 11}));
    x.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(conv2dUnfused(conv, x), conv.forward(x, false),
                           simd::isaName(isa));
    }
}

/** Build a clustered 4:16 compressed layer for the conv tests. */
struct CompressedFixture
{
    Shape shape;
    core::MvqLayerConfig cfg;
    core::CompressedLayer layer;
    core::Codebook cb;

    explicit CompressedFixture(Shape s, std::uint64_t seed)
        : shape(std::move(s))
    {
        cfg.k = 16;
        cfg.d = 16;
        cfg.pattern = core::NmPattern{4, 16};
        cfg.codebook_bits = 8;

        Rng rng(seed);
        Tensor w4(shape);
        w4.fillNormal(rng, 0.0f, 1.0f);
        Tensor wr = core::groupWeights(w4, cfg.d, cfg.grouping);
        core::Mask mask = core::nmMask(wr, cfg.pattern);
        core::applyMask(wr, mask);

        core::KmeansConfig kc;
        kc.k = cfg.k;
        const core::KmeansResult km = core::maskedKmeans(wr, mask, kc);
        cb.codewords = km.codebook;
        core::quantizeCodebook(cb, cfg.codebook_bits);
        layer = core::makeCompressedLayer("conv", shape, cfg, mask, km, 0);
    }
};

/**
 * CompressedConv2d::forward without the fusion: materialize each (batch,
 * group) pair's cols and run the CSR sparse gemm into its slab.
 */
Tensor
compressedUnfused(const nn::CompressedConv2d &conv, const Shape &ws,
                  std::int64_t groups, std::int64_t stride, std::int64_t pad,
                  const Tensor &x)
{
    const std::int64_t cg = ws.dim(1);
    const std::int64_t kg = ws.dim(0) / groups;
    const ConvGeom g{cg, x.dim(2), x.dim(3), ws.dim(2), ws.dim(3), stride,
                     pad};
    const std::int64_t ohw = g.outH() * g.outW();
    Tensor out(Shape({x.dim(0), ws.dim(0), g.outH(), g.outW()}));
    for (std::int64_t n = 0; n < x.dim(0); ++n) {
        for (std::int64_t grp = 0; grp < groups; ++grp) {
            const Tensor cols = im2col(x, n, g, grp * cg);
            gemmSparseARaw(conv.groupOperand(grp), cols.data(), ohw, ohw,
                           1.0f, 0.0f,
                           out.data() + (n * ws.dim(0) + grp * kg) * ohw,
                           ohw);
        }
    }
    return out;
}

TEST(FusedPack, CompressedConv2dFusedMatchesUnfused)
{
    IsaGuard iguard;
    // Grouped (groups=2) and strided (stride 2, pad 1) compressed convs.
    CompressedFixture grouped(Shape({16, 2, 3, 3}), 91);
    const nn::CompressedConv2d conv_g(grouped.layer, grouped.cb, 1, 1, 2);
    Rng rng(92);
    Tensor xg(Shape({3, 4, 9, 9}));
    xg.fillNormal(rng, 0.0f, 1.0f);

    CompressedFixture strided(Shape({16, 8, 3, 3}), 93);
    const nn::CompressedConv2d conv_s(strided.layer, strided.cb, 2, 1);
    Tensor xs(Shape({2, 8, 12, 12}));
    xs.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(compressedUnfused(conv_g, grouped.shape, 2, 1, 1,
                                             xg),
                           conv_g.forward(xg), "grouped");
        expectBitIdentical(compressedUnfused(conv_s, strided.shape, 1, 2, 1,
                                             xs),
                           conv_s.forward(xs), "strided");
    }
}

} // namespace
} // namespace mvq
