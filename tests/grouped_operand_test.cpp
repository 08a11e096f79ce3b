/**
 * GroupedSparseMatrix coverage: the groupSparseRows bucketing (tiles +
 * remainder partition, adversarial bucket shapes), the grouped gemm entry
 * points vs gemmSparseAReference and — bit-for-bit — vs the CSR entry
 * points they forward to (tiled or not, on both sides of the crossover),
 * thread-count determinism, structural validation of hand-built
 * operands, and the packGroupedRows conv path (grouped + strided) against
 * the densified forward.
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

/** Random [rows, cols] matrix with the row-wise 4:16 structure (each
 *  row's kept columns independent, so block-column buckets stay thin). */
Tensor
masked416Matrix(std::uint64_t seed, std::int64_t rows, std::int64_t cols)
{
    Rng rng(seed);
    return core::randomNmMatrix(rng, rows, cols, core::NmPattern{4, 16});
}

/**
 * Random matrix where every row of a 16-row block keeps the same 4 of
 * each 16 columns (the pattern rotates per block): every kept column's
 * kept-row set is the full block, so groupSparseRows tiles everything.
 */
Tensor
blockPatternedMatrix(std::uint64_t seed, std::int64_t rows,
                     std::int64_t cols)
{
    Rng rng(seed);
    Tensor a(Shape({rows, cols}));
    a.fillNormal(rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < rows; ++i) {
        const std::int64_t blk = i / 16;
        for (std::int64_t j = 0; j < cols; ++j) {
            if ((j + 3 * blk) % 16 >= 4)
                a.at(i, j) = 0.0f;
        }
    }
    return a;
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

void
expectBitIdentical(const Tensor &ref, const Tensor &got, const char *what)
{
    ASSERT_EQ(ref.numel(), got.numel()) << what;
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                             static_cast<std::size_t>(ref.numel())
                                 * sizeof(float)))
        << what;
}

TEST(GroupSparseRows, TilesAndRemainderPartitionTheOperand)
{
    Tensor a = blockPatternedMatrix(3, 64, 256);
    const GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    EXPECT_TRUE(g.validated);
    EXPECT_TRUE(g.rows.validated);
    EXPECT_TRUE(g.remainder.validated);
    EXPECT_EQ(g.rows.nnz(), 64 * 256 / 4);
    // Every block is one 16-row bucket -> four 4-row tiles, no remainder.
    EXPECT_EQ(g.tiles.size(), 16u);
    EXPECT_EQ(g.remainder.nnz(), 0);
    EXPECT_EQ(g.tileNnz(), g.rows.nnz());
    EXPECT_EQ(g.fallbackFraction(), 0.0);
    // One band per 16-row block, each owning that block's four tiles.
    ASSERT_EQ(g.band_ptr.size(), 5u);
    for (std::size_t b = 1; b < g.band_ptr.size(); ++b)
        EXPECT_EQ(g.band_ptr[b] - g.band_ptr[b - 1], 4);
    for (const GroupedSparseMatrix::Tile &t : g.tiles) {
        EXPECT_EQ(t.nrows, 4);
        EXPECT_EQ(t.ncols, 256 / 4);
        for (std::int32_t r = 1; r < t.nrows; ++r)
            EXPECT_LT(t.row[r - 1], t.row[r]);
    }
}

TEST(GroupSparseRows, RowWiseRandomMasksFallBackToRemainder)
{
    // Independent per-row masks make block-column kept-sets collide
    // rarely; with the default min_cols threshold nearly everything must
    // take the single-row remainder, and tiles + remainder still
    // partition the operand exactly.
    Tensor a = masked416Matrix(7, 64, 256);
    const GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    EXPECT_EQ(g.tileNnz() + g.remainder.nnz(), g.rows.nnz());
    EXPECT_GT(g.fallbackFraction(), 0.5);
}

TEST(GroupSparseRows, LeftoverSingleRowChunkGoesToRemainder)
{
    // 5 rows sharing one pattern: one 4-row tile plus a leftover chunk of
    // exactly one row, which gains nothing from the tile kernel and must
    // route through the remainder instead.
    Tensor a(Shape({5, 64}));
    Rng rng(11);
    a.fillNormal(rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < 5; ++i)
        for (std::int64_t j = 0; j < 64; ++j)
            if (j % 16 >= 4)
                a.at(i, j) = 0.0f;
    const GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    ASSERT_EQ(g.tiles.size(), 1u);
    EXPECT_EQ(g.tiles[0].nrows, 4);
    EXPECT_EQ(g.tiles[0].ncols, 16);
    EXPECT_EQ(g.remainder.nnz(), 16); // the fifth row's entries
    EXPECT_EQ(g.tileNnz() + g.remainder.nnz(), g.rows.nnz());
}

TEST(GroupSparseRows, MinColsThresholdForcesPureFallback)
{
    Tensor a = blockPatternedMatrix(13, 32, 128);
    const GroupedSparseMatrix g =
        groupSparseRows(sparsifyRows(a), 16, 1 << 20);
    EXPECT_TRUE(g.tiles.empty());
    EXPECT_EQ(g.remainder.nnz(), g.rows.nnz());
    EXPECT_EQ(g.fallbackFraction(), 1.0);
}

TEST(GroupSparseRows, RejectsBadBlockSize)
{
    Tensor a = masked416Matrix(17, 16, 64);
    SparseRowMatrix sp = sparsifyRows(a);
    EXPECT_THROW(groupSparseRows(sp, 1), PanicError);
    EXPECT_THROW(groupSparseRows(sp, 33), PanicError);
    EXPECT_THROW(groupSparseRows(sp, 16, 0), PanicError);
}

TEST(GroupedSparseGemm, GroupedGemmMatchesReferenceAllIsas)
{
    IsaGuard guard;
    const std::int64_t m = 64, k = 288, n = 100;
    Tensor a = blockPatternedMatrix(31, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = groupSparseRows(sp, 16);
    ASSERT_GT(g.tileNnz(), 0);
    ASSERT_GT(sp.nnz() * n, kGemmScalarFallbackMacs); // blocked path runs
    Rng rng(32);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_oracle(Shape({m, n}));
    gemmSparseAReference(sp, b, c_oracle);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_grouped(Shape({m, n}));
        gemmSparseA(g, b, c_grouped);
        expectClose(c_oracle, c_grouped, simd::isaName(isa));
        Tensor c_csr(Shape({m, n}));
        gemmSparseA(sp, b, c_csr);
        expectBitIdentical(c_csr, c_grouped, simd::isaName(isa));
    }
}

TEST(GroupedSparseGemm, MixedTileAndRemainderMatchesReferenceAllIsas)
{
    IsaGuard guard;
    // Half the blocks share patterns (tiled), half are row-wise random
    // (remainder): the gemm still covers every entry of the CSR.
    const std::int64_t m = 64, k = 288, n = 100;
    Tensor a = blockPatternedMatrix(41, m, k);
    Tensor r = masked416Matrix(42, m, k);
    for (std::int64_t i = 0; i < m; ++i) {
        if ((i / 16) % 2 == 1)
            for (std::int64_t j = 0; j < k; ++j)
                a.at(i, j) = r.at(i, j);
    }
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = groupSparseRows(sp, 16);
    ASSERT_GT(g.tileNnz(), 0);
    ASSERT_GT(g.remainder.nnz(), 0);
    Rng rng(43);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_oracle(Shape({m, n}));
    gemmSparseAReference(sp, b, c_oracle);
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_grouped(Shape({m, n}));
        gemmSparseA(g, b, c_grouped);
        expectClose(c_oracle, c_grouped, simd::isaName(isa));
    }
}

TEST(GroupedSparseGemm, ForwardsToCsrBitIdentically)
{
    IsaGuard guard;
    // Tiled or not (min_cols forced high), both grouped entry points run
    // the CSR overloads on the embedded rows — same code, same bytes.
    const ConvGeom geom{32, 10, 10, 3, 3, 1, 1};
    const std::int64_t m = 64, k = 288, n = 100;
    Tensor a = blockPatternedMatrix(61, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix tiled = groupSparseRows(sp, 16);
    const GroupedSparseMatrix untiled = groupSparseRows(sp, 16, 1 << 20);
    ASSERT_GT(tiled.tileNnz(), 0);
    ASSERT_TRUE(untiled.tiles.empty());
    Rng rng(62);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);
    Tensor x(Shape({1, geom.in_c, geom.in_h, geom.in_w}));
    x.fillNormal(rng, 0.0f, 1.0f);
    const Im2colB xb{x.data(), geom};
    ASSERT_EQ(xb.rows(), k);
    ASSERT_EQ(xb.cols(), n);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_csr(Shape({m, n}));
        gemmSparseA(sp, b, c_csr);
        Tensor f_csr(Shape({m, n}));
        gemmSparseAIm2col(sp, xb, 1.0f, 0.0f, f_csr.data(), n);
        for (const GroupedSparseMatrix *g : {&tiled, &untiled}) {
            Tensor c_grouped(Shape({m, n}));
            gemmSparseA(*g, b, c_grouped);
            expectBitIdentical(c_csr, c_grouped, simd::isaName(isa));
            Tensor f_grouped(Shape({m, n}));
            gemmSparseAIm2col(*g, xb, 1.0f, 0.0f, f_grouped.data(), n);
            expectBitIdentical(f_csr, f_grouped, simd::isaName(isa));
        }
    }
}

TEST(GroupedSparseGemm, SmallProblemForwardsBitIdentically)
{
    IsaGuard guard;
    const std::int64_t m = 16, k = 64, n = 8;
    Tensor a = blockPatternedMatrix(71, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = groupSparseRows(sp, 16);
    ASSERT_GT(g.tileNnz(), 0);
    ASSERT_LE(sp.nnz() * n, kGemmScalarFallbackMacs); // row-scan side
    Rng rng(72);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_single(Shape({m, n}));
    gemmSparseA(sp, b, c_single);
    Tensor c_grouped(Shape({m, n}));
    gemmSparseA(g, b, c_grouped);
    expectBitIdentical(c_single, c_grouped, "small-problem crossover");
}

TEST(GroupedSparseGemm, AlphaBetaMatchReference)
{
    IsaGuard guard;
    const std::int64_t m = 48, k = 160, n = 64;
    Tensor a = blockPatternedMatrix(81, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = groupSparseRows(sp, 16);
    Rng rng(82);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);
    Tensor c0(Shape({m, n}));
    c0.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_ref = c0;
        gemmSparseAReference(sp, b, c_ref, 0.5f, 1.0f);
        Tensor c_got = c0;
        gemmSparseA(g, b, c_got, 0.5f, 1.0f);
        expectClose(c_ref, c_got, simd::isaName(isa));
    }
}

TEST(GroupedSparseGemm, ThreadCountDeterministicPerIsa)
{
    IsaGuard guard;
    ThreadGuard tguard;
    const std::int64_t m = 96, k = 320, n = 80;
    Tensor a = blockPatternedMatrix(91, m, k);
    Tensor r = masked416Matrix(92, m, k);
    for (std::int64_t i = 0; i < m; ++i) {
        if ((i / 16) % 3 == 2)
            for (std::int64_t j = 0; j < k; ++j)
                a.at(i, j) = r.at(i, j);
    }
    const SparseRowMatrix sp = sparsifyRows(a);
    const GroupedSparseMatrix g = groupSparseRows(sp, 16);
    ASSERT_GT(g.tileNnz(), 0);
    ASSERT_GT(g.remainder.nnz(), 0);
    Rng rng(93);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        setNumThreads(1);
        Tensor c1(Shape({m, n}));
        gemmSparseA(g, b, c1);
        setNumThreads(4);
        Tensor c4(Shape({m, n}));
        gemmSparseA(g, b, c4);
        expectBitIdentical(c1, c4, simd::isaName(isa));
    }
}

TEST(GroupedSparseGemm, MalformedGroupedOperandPanics)
{
    // Hand-built grouped operands (validated == false) must fail the
    // structural check of their tile layer before any kernel runs, even
    // though the gemm itself only reads the embedded CSR.
    Tensor a = blockPatternedMatrix(101, 64, 288);
    const std::int64_t n = 100; // keeps nnz * n above the crossover
    Tensor b(Shape({288, n}));
    Tensor c(Shape({64, n}));

    GroupedSparseMatrix g = groupSparseRows(sparsifyRows(a), 16);
    g.validated = false;
    g.tiles[0].row[1] = g.tiles[0].row[0]; // rows not ascending
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);

    g = groupSparseRows(sparsifyRows(a), 16);
    g.validated = false;
    g.tiles[0].val_off = static_cast<std::int64_t>(g.vals.size());
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);

    g = groupSparseRows(sparsifyRows(a), 16);
    g.validated = false;
    g.band_ptr.back() -= 1; // bands no longer cover every tile
    EXPECT_THROW(gemmSparseA(g, b, c), PanicError);
}

/** Build a clustered 4:16 compressed layer for the conv tests. */
struct CompressedFixture
{
    Shape shape;
    core::MvqLayerConfig cfg;
    core::CompressedLayer layer;
    core::Codebook cb;

    explicit CompressedFixture(Shape s, std::uint64_t seed = 131)
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

TEST(GroupedSparseGemm, PackGroupedRowsMatchesPackSparseRows)
{
    CompressedFixture f(Shape({32, 4, 3, 3}));
    const SparseRowMatrix full = f.layer.packSparseRows(f.cb);
    EXPECT_TRUE(full.validated);

    const auto grouped = f.layer.packGroupedRows(f.cb, 1);
    ASSERT_EQ(grouped.size(), 1u);
    EXPECT_TRUE(grouped[0].validated);
    EXPECT_EQ(grouped[0].rows.row_ptr, full.row_ptr);
    EXPECT_EQ(grouped[0].rows.col_idx, full.col_idx);
    EXPECT_EQ(grouped[0].rows.values, full.values);
    EXPECT_EQ(grouped[0].tileNnz() + grouped[0].remainder.nnz(),
              full.nnz());

    // Two conv groups: each grouped operand must hold exactly its row
    // range of the full pack, with no re-slicing drift.
    const auto halves = f.layer.packGroupedRows(f.cb, 2);
    ASSERT_EQ(halves.size(), 2u);
    std::int64_t total = 0;
    for (const auto &h : halves) {
        EXPECT_EQ(h.rows.rows, 16);
        EXPECT_EQ(h.rows.cols, full.cols);
        total += h.rows.nnz();
    }
    EXPECT_EQ(total, full.nnz());
    const std::int64_t e0 = full.row_ptr[16];
    for (std::int64_t e = 0; e < halves[1].rows.nnz(); ++e) {
        const std::size_t se = static_cast<std::size_t>(e);
        const std::size_t fe = static_cast<std::size_t>(e0 + e);
        EXPECT_EQ(halves[1].rows.col_idx[se], full.col_idx[fe]);
        EXPECT_EQ(halves[1].rows.values[se], full.values[fe]);
    }
}

TEST(GroupedSparseGemm, GroupedStridedConvMatchesDensifiedForward)
{
    IsaGuard guard;
    CompressedFixture f(Shape({16, 2, 3, 3}), 151); // groups = 2, C = 4

    Rng rng(152);
    nn::Conv2dConfig cc{4, 16, 3, 2, 1, 2, false};
    nn::Conv2d dense_conv("conv", cc, rng);
    dense_conv.setWeight(f.layer.reconstruct(f.cb));
    const nn::CompressedConv2d sparse_conv(f.layer, f.cb, 2, 1, 2);

    Tensor x(Shape({2, 4, 11, 11}));
    x.fillNormal(rng, 0.0f, 1.0f);
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        const Tensor ref = dense_conv.forward(x, false);
        const Tensor got = sparse_conv.forward(x);
        ASSERT_EQ(ref.shape(), got.shape()) << simd::isaName(isa);
        expectClose(ref, got, simd::isaName(isa));
    }
}

} // namespace
} // namespace mvq
