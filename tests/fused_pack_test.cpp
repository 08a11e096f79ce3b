/**
 * Conv-path coverage: the direct dense conv (gemmIm2colRaw) and the
 * direct sparse conv (gemmSparseAIm2col), both reading the padded input
 * in place, against the materializing im2col + gemm composition they
 * replace — bit-identity for every ISA this host can execute, plus 1e-4
 * oracle parity (sparse), over padded/strided/phase-split/grid-tail
 * geometries and K blocks; the grouped sparse conv (grouped and
 * depthwise, one call over every group) against per-group compositions
 * over row slices of its operand; 1-to-4-thread and nested memcmp;
 * degenerate-geometry and offset-overflow panics; and the Conv2d /
 * CompressedConv2d forwards (grouped, depthwise, strided, padded) against
 * the im2col + gemm composition per (batch, group).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"
#include "core/compressed_layer.hpp"
#include "core/nm_pruning.hpp"
#include "csr_test_util.hpp"
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
denseUnfused(const Tensor &a, const Tensor &x, const ConvGeom &g)
{
    const Tensor cols = im2col(x, 0, g);
    Tensor c(Shape({a.dim(0), cols.dim(1)}));
    gemmRaw(a.dim(0), cols.dim(1), a.dim(1), a.data(), a.dim(1), false,
            cols.data(), cols.dim(1), false, c.data(), cols.dim(1));
    return c;
}

/** The direct dense conv into a NaN-filled C: it must store every
 *  output. */
Tensor
denseDirect(const Tensor &a, const Tensor &x, const ConvGeom &g)
{
    const Im2colB b{x.data(), g};
    Tensor c(Shape({a.dim(0), b.cols()}),
             std::numeric_limits<float>::quiet_NaN());
    gemmIm2colRaw(a.dim(0), a.data(), a.dim(1), b, c.data(), b.cols());
    return c;
}

/** Unfused sparse oracle: materialize cols, run the CSR gemm. */
Tensor
sparseUnfused(const SparseRowMatrix &sp, const Tensor &x, const ConvGeom &g)
{
    const Tensor cols = im2col(x, 0, g);
    Tensor c(Shape({sp.rows, cols.dim(1)}));
    gemmSparseARaw(sp, cols.data(), cols.dim(1), c.data(), cols.dim(1));
    return c;
}

/** The direct sparse conv into a NaN-filled C: it must store every
 *  output. */
Tensor
sparseDirect(const SparseRowMatrix &sp, const Tensor &x, const ConvGeom &g)
{
    const Im2colB b{x.data(), g};
    Tensor c(Shape({sp.rows, b.cols()}),
             std::numeric_limits<float>::quiet_NaN());
    gemmSparseAIm2col(sp, b, c.data(), b.cols());
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

/**
 * Geometry sweep shared by the dense and sparse direct convs: heavy
 * padding (pad >= kernel reach so whole tiles read padding), stride 2
 * and 3 (4 and 9 phase planes), a non-square input, a 1x1 kernel, an n
 * big enough to straddle several tiles with a ragged final one, a
 * stem-like 7x7/2 whose padding cuts into both ends of an output row, a
 * 7-wide strided output whose rows are shorter than a tile; then phase
 * planes of a stem 7x7/2 pad 3 and a 3x3/2 pad 1 on even and odd inputs
 * (an odd padded width leaves the odd-column plane one column short), a
 * 1x1/2 downsample that builds one phase of four, and grid tails at the
 * sparse width: oh * Wq = 5 * 13 = 65 and 5 * 19 = 95, 1 and 31 (mod
 * 32), so the last tile runs into the slack past the last plane.
 */
std::vector<ConvGeom>
directGeometries()
{
    return {
        {4, 9, 13, 3, 3, 2, 1},  // strided, non-square
        {3, 8, 8, 3, 3, 1, 3},   // pad wider than the kernel reach
        {6, 17, 17, 5, 5, 3, 2}, // large kernel, stride 3
        {8, 12, 12, 1, 1, 1, 0}, // 1x1: im2col is a pure copy
        {2, 21, 21, 3, 3, 1, 1}, // n = 441: ragged last tile
        {3, 23, 23, 7, 7, 2, 3}, // stem-like: padding at both run ends
        {8, 14, 14, 3, 3, 2, 1}, // 7-wide output rows
        {3, 30, 30, 7, 7, 2, 3},
        {3, 31, 31, 7, 7, 2, 3},
        {8, 16, 16, 3, 3, 2, 1},
        {8, 17, 17, 3, 3, 2, 1},
        {16, 14, 14, 1, 1, 2, 0},
        {8, 5, 11, 3, 3, 1, 1},
        {8, 5, 17, 3, 3, 1, 1},
    };
}

TEST(FusedPack, DenseBitIdenticalToIm2colAllIsas)
{
    IsaGuard guard;
    // C=8, 3x3, pad 1 on 11x11 -> k=72, n=121; m=24 puts the problem well
    // past kGemmScalarFallbackMacs, so the direct driver runs.
    const ConvGeom g{8, 11, 11, 3, 3, 1, 1};
    const Tensor x = randomInput(3, g);
    Rng rng(4);
    Tensor a(Shape({24, g.in_c * g.k_h * g.k_w}));
    a.fillNormal(rng, 0.0f, 1.0f);
    ASSERT_GT(a.dim(0) * a.dim(1) * g.outH() * g.outW(),
              kGemmScalarFallbackMacs);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(denseUnfused(a, x, g), denseDirect(a, x, g),
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
        expectBitIdentical(denseUnfused(a, x, g), denseDirect(a, x, g),
                           simd::isaName(isa));
    }
}

TEST(FusedPack, DeepKernelStraddlesKcBlocks)
{
    IsaGuard guard;
    // k = 40 * 9 = 360 > kGemmKC forces at least two KC blocks, so the
    // direct driver's offset table is sliced at k0 and its later block
    // adds into C.
    const ConvGeom g{40, 8, 8, 3, 3, 1, 1};
    ASSERT_GT(g.in_c * g.k_h * g.k_w, simd::kGemmKC);
    const Tensor x = randomInput(41, g);
    Rng rng(42);
    Tensor a(Shape({16, g.in_c * g.k_h * g.k_w}));
    a.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(denseUnfused(a, x, g), denseDirect(a, x, g),
                           simd::isaName(isa));
    }
}

TEST(FusedPack, SparseMatchesUnfusedAndOracleAllIsas)
{
    IsaGuard guard;
    // C=16, 3x3 on 14x14 pad 1 -> k=144, n=196.
    const ConvGeom g{16, 14, 14, 3, 3, 1, 1};
    const Tensor x = randomInput(51, g);
    const std::int64_t k = g.in_c * g.k_h * g.k_w;
    const std::int64_t n = g.outH() * g.outW();
    Tensor a = masked416Matrix(52, 32, k);
    const SparseRowMatrix sp = sparsifyRows(a);

    // Oracle: unblocked reference scan over the materialized cols.
    const Tensor cols = im2col(x, 0, g);
    Tensor c_oracle(Shape({32, n}));
    gemmSparseAReference(sp, cols, c_oracle);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        const Tensor c_direct = sparseDirect(sp, x, g);
        expectBitIdentical(sparseUnfused(sp, x, g), c_direct,
                           simd::isaName(isa));
        expectClose(c_oracle, c_direct, simd::isaName(isa));
    }
}

TEST(FusedPack, SparseSmallShapeBitIdentical)
{
    IsaGuard guard;
    // 4 rows x 25 outputs: the size a dense conv hands to its scalar
    // fallback. The sparse driver has none, so one ragged tile runs the
    // same kernels as a large conv.
    const ConvGeom g{16, 7, 7, 3, 3, 1, 0};
    const Tensor x = randomInput(61, g);
    const std::int64_t k = g.in_c * g.k_h * g.k_w; // 144: multiple of M=16
    const SparseRowMatrix sp = sparsifyRows(masked416Matrix(62, 4, k));
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(sparseUnfused(sp, x, g), sparseDirect(sp, x, g),
                           simd::isaName(isa));
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
    // one row block with n split over many tiles; a 1-row second block;
    // stage4's k = 4608 on a 7x7 input; and a single output pixel. n =
    // 31, 33, 63 and 196 leave the last grid tile ragged (196 is stage3's
    // batch-1 n). The dense driver splits tiles only while row blocks are
    // fewer than threads, so the 8-block case runs sparse only (it is the
    // slow one under TSan).
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
        {32, {16, 1, 31, 3, 3, 1, 1}, true},    // n = 31
        {33, {32, 3, 11, 3, 3, 1, 1}, true},    // n = 33
        {66, {16, 7, 9, 3, 3, 1, 1}, true},     // n = 63
        {64, {256, 14, 14, 3, 3, 1, 1}, true},  // n = 196
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
        const Tensor cols = im2col(x, 0, g);
        Tensor s_oracle(Shape({m, n}));
        gemmSparseAReference(sp, cols, s_oracle);
        auto sparse = [&](Tensor &s) {
            gemmSparseAIm2col(sp, Im2colB{x.data(), g}, s.data(), n);
        };

        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            setNumThreads(1);
            const Tensor d1 = cs.dense ? denseDirect(a, x, g) : Tensor();
            Tensor s1(Shape({m, n}));
            sparse(s1);
            expectClose(s_oracle, s1, simd::isaName(isa));
            for (int threads : {2, 3, 4}) {
                setNumThreads(threads);
                if (cs.dense)
                    expectBitIdentical(d1, denseDirect(a, x, g),
                                       simd::isaName(isa));
                Tensor st(Shape({m, n}));
                sparse(st);
                expectBitIdentical(s1, st, simd::isaName(isa));
            }
            Tensor dn, sn(Shape({m, n}));
            runNested([&] {
                if (cs.dense)
                    dn = denseDirect(a, x, g);
                sparse(sn);
            });
            if (cs.dense)
                expectBitIdentical(d1, dn, simd::isaName(isa));
            expectBitIdentical(s1, sn, simd::isaName(isa));
        }
    }
}

TEST(FusedPack, DenseDirectGeometriesMatchUnfused)
{
    IsaGuard guard;
    ThreadGuard tguard;
    // The shared sweep, then grid tails at the dense widths: oh * Wq =
    // 5 * 29 = 145 and 5 * 35 = 175, 1 and 15 (mod 16), and 5 * 21 = 105,
    // 1 (mod 8) but 9 (mod 16), for the scalar kernel's 8 lanes; and a
    // strided, padded conv with k = 360 > kGemmKC whose 7-wide output
    // rows leave a slack lane per grid row, so both the first block's
    // store and the second block's add run on tiles with slack lanes.
    // m = 33 leaves a ragged A panel for every register tile.
    std::vector<ConvGeom> geoms = directGeometries();
    geoms.insert(geoms.end(), {
                                  {8, 5, 27, 3, 3, 1, 1},
                                  {8, 5, 33, 3, 3, 1, 1},
                                  {8, 5, 19, 3, 3, 1, 1},
                                  {40, 9, 13, 3, 3, 2, 1},
                              });
    const std::int64_t m = 33;
    for (std::size_t gi = 0; gi < geoms.size(); ++gi) {
        const ConvGeom &g = geoms[gi];
        const std::int64_t k = g.in_c * g.k_h * g.k_w;
        SCOPED_TRACE(testing::Message() << "geometry " << gi << ": k=" << k
                                        << " out " << g.outH() << "x"
                                        << g.outW());
        ASSERT_GT(m * k * g.outH() * g.outW(), kGemmScalarFallbackMacs);
        const Tensor x = randomInput(210 + gi, g);
        Rng rng(230 + gi);
        Tensor a(Shape({m, k}));
        a.fillNormal(rng, 0.0f, 1.0f);
        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            const Tensor want = denseUnfused(a, x, g);
            for (int threads : {1, 2, 3, 4}) {
                setNumThreads(threads);
                expectBitIdentical(want, denseDirect(a, x, g),
                                   simd::isaName(isa));
            }
            Tensor nested;
            runNested([&] { nested = denseDirect(a, x, g); });
            expectBitIdentical(want, nested, simd::isaName(isa));
        }
    }
}

TEST(FusedPack, SparseDirectGeometriesMatchUnfused)
{
    IsaGuard guard;
    ThreadGuard tguard;
    const std::vector<ConvGeom> geoms = directGeometries();
    for (std::size_t gi = 0; gi < geoms.size(); ++gi) {
        const ConvGeom &g = geoms[gi];
        const std::int64_t k = g.in_c * g.k_h * g.k_w;
        SCOPED_TRACE(testing::Message() << "geometry " << gi << ": k=" << k
                                        << " out " << g.outH() << "x"
                                        << g.outW());
        const Tensor x = randomInput(110 + gi, g);
        // 32 rows x k as 4:16 groups of the flattened matrix, since k
        // need not be a multiple of 16.
        const SparseRowMatrix sp = sparsifyRows(
            masked416Matrix(130 + gi, 2 * k, 16).reshaped(Shape({32, k})));
        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            const Tensor want = sparseUnfused(sp, x, g);
            for (int threads : {1, 2, 3, 4}) {
                setNumThreads(threads);
                expectBitIdentical(want, sparseDirect(sp, x, g),
                                   simd::isaName(isa));
            }
            Tensor nested;
            runNested([&] { nested = sparseDirect(sp, x, g); });
            expectBitIdentical(want, nested, simd::isaName(isa));
        }
    }
}

TEST(FusedPack, GroupedSparseDirectMatchesPerGroupCompositions)
{
    IsaGuard guard;
    ThreadGuard tguard;
    // Every shared geometry as one group of a grouped conv (3 groups of
    // 24 rows) and, at one channel per group, of a depthwise conv (70
    // groups of 1 row) and a depth-multiplier-3 one (23 groups of 3
    // rows). 72, 70 and 69 rows span two 64-row task blocks, and the
    // 24- and 3-row groups straddle the block edge, so a task starts its
    // group walk mid-group.
    struct Variant
    {
        const char *name;
        std::int64_t groups, kg;
        bool depthwise;
    };
    const Variant variants[] = {{"grouped", 3, 24, false},
                                {"depthwise", 70, 1, true},
                                {"depthwise x3", 23, 3, true}};
    const std::vector<ConvGeom> geoms = directGeometries();
    for (const Variant &v : variants) {
        for (std::size_t gi = 0; gi < geoms.size(); ++gi) {
            ConvGeom g = geoms[gi];
            if (v.depthwise)
                g.in_c = 1;
            const std::int64_t k = g.in_c * g.k_h * g.k_w;
            const std::int64_t n = g.outH() * g.outW();
            const std::int64_t m = v.groups * v.kg;
            SCOPED_TRACE(testing::Message() << v.name << ", geometry " << gi
                                            << ": k=" << k << " out "
                                            << g.outH() << "x" << g.outW());
            Rng rng(310 + gi);
            Tensor x(Shape({1, v.groups * g.in_c, g.in_h, g.in_w}));
            x.fillNormal(rng, 0.0f, 1.0f);
            // m rows x k as 4:16 groups over k rounded up to 16, cut to k.
            const std::int64_t kp = (k + 15) / 16 * 16;
            const Tensor full = masked416Matrix(330 + gi, m, kp);
            Tensor a(Shape({m, k}));
            for (std::int64_t r = 0; r < m; ++r)
                std::memcpy(a.data() + r * k, full.data() + r * kp,
                            static_cast<std::size_t>(k) * sizeof(float));
            const SparseRowMatrix sp = sparsifyRows(a);
            auto grouped = [&] {
                Tensor c(Shape({m, n}),
                         std::numeric_limits<float>::quiet_NaN());
                gemmSparseAIm2col(sp, Im2colB{x.data(), g}, c.data(), n,
                                  v.groups);
                return c;
            };
            for (Isa isa : availableIsas()) {
                ASSERT_TRUE(simd::setIsa(isa));
                Tensor want(Shape({m, n}));
                for (std::int64_t grp = 0; grp < v.groups; ++grp) {
                    const Tensor cols = im2col(x, 0, g, grp * g.in_c);
                    gemmSparseARaw(rowSlice(sp, grp * v.kg, (grp + 1) * v.kg),
                                   cols.data(), n,
                                   want.data() + grp * v.kg * n, n);
                }
                for (int threads : {1, 2, 3, 4}) {
                    setNumThreads(threads);
                    expectBitIdentical(want, grouped(), simd::isaName(isa));
                }
                Tensor nested;
                runNested([&] { nested = grouped(); });
                expectBitIdentical(want, nested, simd::isaName(isa));
            }
        }
    }
}

TEST(FusedPack, PhaseImageOverflowPanics)
{
    // 70000 channels of 200x200 at pad 1 make a padded input of 2.9e9
    // floats, past what the int32 offset table addresses. Both drivers
    // must panic before they allocate the ~11 GB image (or read the
    // one-float slab and weights).
    const ConvGeom g{70000, 200, 200, 3, 3, 1, 1};
    const SparseRowMatrix sp = SparseRowMatrix::fromVectors(
        1, g.in_c * g.k_h * g.k_w, {0, 1}, {0}, {1.0f});
    float slab = 1.0f;
    std::vector<float> c(4, 0.0f);
    EXPECT_THROW(gemmSparseAIm2col(sp, Im2colB{&slab, g}, c.data(), 1),
                 PanicError);
    const float weight = 1.0f;
    EXPECT_THROW(gemmIm2colRaw(1, &weight, sp.cols, Im2colB{&slab, g},
                               c.data(), 1),
                 PanicError);

    // Half as many channels per group fit, but the group shift addresses
    // the planes of both groups: the grouped call must panic too.
    const ConvGeom half{35000, 200, 200, 3, 3, 1, 1};
    const SparseRowMatrix two = SparseRowMatrix::fromVectors(
        2, half.in_c * half.k_h * half.k_w, {0, 1, 2}, {0, 0}, {1.0f, 1.0f});
    EXPECT_THROW(
        gemmSparseAIm2col(two, Im2colB{&slab, half}, c.data(), 1, 2),
        PanicError);
}

TEST(FusedPack, GroupsThatDoNotSplitTheRowsPanic)
{
    const ConvGeom g{1, 6, 6, 3, 3, 1, 1};
    std::vector<float> slab(
        static_cast<std::size_t>(3 * g.in_h * g.in_w), 1.0f);
    const SparseRowMatrix three = SparseRowMatrix::fromVectors(
        3, 9, {0, 1, 2, 3}, {0, 4, 8}, {1.0f, 1.0f, 1.0f});
    std::vector<float> c(3 * 36, 0.0f);
    EXPECT_THROW(gemmSparseAIm2col(three, Im2colB{slab.data(), g}, c.data(),
                                   36, 2),
                 PanicError);
    EXPECT_THROW(gemmSparseAIm2col(three, Im2colB{slab.data(), g}, c.data(),
                                   36, 0),
                 PanicError);
    EXPECT_NO_THROW(gemmSparseAIm2col(three, Im2colB{slab.data(), g},
                                      c.data(), 36, 3));
}

TEST(FusedPack, DegenerateGeometryPanics)
{
    // Kernel larger than the padded input: outH() clamps to 0 and both
    // conv entry points must panic instead of laying out a 0-column B.
    const ConvGeom g{1, 2, 5, 3, 3, 2, 0};
    ASSERT_EQ(g.outH(), 0);
    std::vector<float> slab(static_cast<std::size_t>(g.in_h * g.in_w),
                            1.0f);
    const Im2colB b{slab.data(), g};

    std::vector<float> buf(64, 0.0f);
    EXPECT_THROW(gemmIm2colRaw(2, buf.data(), 9, b, buf.data(), 4),
                 PanicError);

    const SparseRowMatrix sp =
        SparseRowMatrix::fromVectors(1, 9, {0, 1}, {0}, {1.0f});
    EXPECT_THROW(gemmSparseAIm2col(sp, b, buf.data(), 4), PanicError);
}

TEST(FusedPack, SparseInnerDimMismatchPanics)
{
    const ConvGeom g{2, 6, 6, 3, 3, 1, 1};
    std::vector<float> slab(
        static_cast<std::size_t>(g.in_c * g.in_h * g.in_w), 1.0f);
    // cols = 4 != g rows = 18
    const SparseRowMatrix sp =
        SparseRowMatrix::fromVectors(1, 4, {0, 1}, {0}, {1.0f});
    std::vector<float> c(64, 0.0f);
    EXPECT_THROW(gemmSparseAIm2col(sp, Im2colB{slab.data(), g}, c.data(), 36),
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
            gemmRaw(kg, ohw, wcols, pw + grp * kg * wcols, wcols, false,
                    cols.data(), ohw, false,
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
 * group) pair's cols and run the group's rows of the CSR into its slab.
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
            gemmSparseARaw(rowSlice(conv.operand(), grp * kg,
                                    (grp + 1) * kg),
                           cols.data(), ohw,
                           out.data() + (n * ws.dim(0) + grp * kg) * ohw,
                           ohw);
        }
    }
    return out;
}

TEST(FusedPack, CompressedConv2dFusedMatchesUnfused)
{
    IsaGuard iguard;
    // Grouped (groups=2), strided (stride 2, pad 1) and depthwise
    // (groups = C = 32, one output row of 9 taps per group) compressed
    // convs.
    CompressedFixture grouped(Shape({16, 2, 3, 3}), 91);
    const nn::CompressedConv2d conv_g(grouped.layer, grouped.cb, 1, 1, 2);
    Rng rng(92);
    Tensor xg(Shape({3, 4, 9, 9}));
    xg.fillNormal(rng, 0.0f, 1.0f);

    CompressedFixture strided(Shape({16, 8, 3, 3}), 93);
    const nn::CompressedConv2d conv_s(strided.layer, strided.cb, 2, 1);
    Tensor xs(Shape({2, 8, 12, 12}));
    xs.fillNormal(rng, 0.0f, 1.0f);

    CompressedFixture depthwise(Shape({32, 1, 3, 3}), 95);
    const nn::CompressedConv2d conv_d(depthwise.layer, depthwise.cb, 1, 1,
                                      32);
    Tensor xd(Shape({2, 32, 9, 9}));
    xd.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        expectBitIdentical(compressedUnfused(conv_g, grouped.shape, 2, 1, 1,
                                             xg),
                           conv_g.forward(xg), "grouped");
        expectBitIdentical(compressedUnfused(conv_s, strided.shape, 1, 2, 1,
                                             xs),
                           conv_s.forward(xs), "strided");
        expectBitIdentical(compressedUnfused(conv_d, depthwise.shape, 32, 1,
                                             1, xd),
                           conv_d.forward(xd), "depthwise");
    }
}

} // namespace
} // namespace mvq
