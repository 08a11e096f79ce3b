/**
 * @file
 * Sparse-aware GEMM coverage: the compressed-row operand vs the dense
 * kernels on N:M-masked matrices for every ISA this host can execute,
 * thread-count determinism within an ISA, the mask-code -> CSR pack on
 * CompressedLayer, the CompressedConv2d forward against the densify +
 * dense-forward path, and the ConvGeom non-positive-output guards.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
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

TEST(SparseGemm, SparsifyRowsKeepsExactNonzeros)
{
    Tensor a = masked416Matrix(5, 16, 64);
    const SparseRowMatrix sp = sparsifyRows(a);
    EXPECT_EQ(sp.rows, 16);
    EXPECT_EQ(sp.cols, 64);
    // 4:16 keeps exactly a quarter of every row (modulo exact-zero draws,
    // which N(0,1) produces with probability ~0).
    EXPECT_EQ(sp.nnz(), 16 * 64 / 4);
    EXPECT_NEAR(sp.density(), 0.25, 1e-9);
    for (std::int64_t i = 0; i < sp.rows; ++i) {
        for (std::int64_t e = sp.row_ptr[static_cast<std::size_t>(i)];
             e < sp.row_ptr[static_cast<std::size_t>(i + 1)]; ++e) {
            const std::size_t se = static_cast<std::size_t>(e);
            EXPECT_EQ(a.at(i, sp.col_idx[se]), sp.values[se]);
            if (e > sp.row_ptr[static_cast<std::size_t>(i)]) {
                EXPECT_LT(sp.col_idx[se - 1], sp.col_idx[se]);
            }
        }
    }
}

TEST(SparseGemm, MatchesDenseGemmAllIsas)
{
    IsaGuard guard;
    const std::int64_t m = 64, k = 288, n = 100;
    Tensor a = masked416Matrix(7, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    Rng rng(8);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_oracle(Shape({m, n}));
    gemmSparseAReference(sp, b, c_oracle);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_dense(Shape({m, n}));
        gemm(a, false, b, false, c_dense);
        Tensor c_sparse(Shape({m, n}));
        gemmSparseA(sp, b, c_sparse);
        expectClose(c_dense, c_sparse, simd::isaName(isa));
        expectClose(c_oracle, c_sparse, simd::isaName(isa));
    }
}

TEST(SparseGemm, SmallShapeMatchesReference)
{
    IsaGuard guard;
    // nnz * n = 128 * 16: the size a dense gemm hands to its scalar
    // fallback. The sparse driver has none, so a one-tile problem runs
    // the same kernels as a large one.
    const std::int64_t m = 8, k = 64, n = 16;
    Tensor a = masked416Matrix(31, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    Rng rng(32);
    Tensor b(Shape({k, n}));
    b.fillNormal(rng, 0.0f, 1.0f);

    Tensor c_ref(Shape({m, n}));
    gemmSparseAReference(sp, b, c_ref);
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        Tensor c_got(Shape({m, n}));
        gemmSparseA(sp, b, c_got);
        expectClose(c_ref, c_got, simd::isaName(isa));
    }
}

TEST(SparseGemm, EmptyRowsProduceZeroRows)
{
    IsaGuard guard;
    // C starts as NaN and the driver overwrites it, so the store-scatter
    // must write the rows whose CSR range is empty too. k = 4608 is
    // ResNet-18's stage4 reduction, one kernel call per (row, tile).
    for (const std::int64_t k : {std::int64_t{256}, std::int64_t{4608}}) {
        SCOPED_TRACE(testing::Message() << "k=" << k);
        const std::int64_t m = 40, n = 48;
        Tensor a = masked416Matrix(41, m, k);
        // Zero out some full rows: their CSR ranges become empty.
        for (std::int64_t j = 0; j < k; ++j) {
            a.at(3, j) = 0.0f;
            a.at(39, j) = 0.0f;
        }
        const SparseRowMatrix sp = sparsifyRows(a);
        Rng rng(42);
        Tensor b(Shape({k, n}));
        b.fillNormal(rng, 0.0f, 1.0f);
        Tensor c_oracle(Shape({m, n}));
        gemmSparseAReference(sp, b, c_oracle);

        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            Tensor c(Shape({m, n}), std::numeric_limits<float>::quiet_NaN());
            gemmSparseA(sp, b, c);
            for (std::int64_t j = 0; j < n; ++j) {
                EXPECT_EQ(c.at(3, j), 0.0f);
                EXPECT_EQ(c.at(39, j), 0.0f);
            }
            expectClose(c_oracle, c, simd::isaName(isa));
        }
    }
}

TEST(SparseGemm, MalformedOperandPanics)
{
    // The micro-kernels look col_idx up in an offset table of cols
    // entries, so a malformed operand must panic when it is built, on
    // either factory, instead of reading out of bounds in a gemm.
    struct Case
    {
        std::vector<std::int64_t> row_ptr;
        std::vector<std::int32_t> col_idx;
        const char *what;
    };
    const Case cases[] = {
        {{0, 2, 3}, {3, 1, 0}, "col_idx not ascending within row 0"},
        {{0, 2, 3}, {1, 9, 0}, "column 9 out of range [0, 8)"},
        {{0, 3, 2}, {1, 3, 0}, "non-monotone row_ptr"},
        {{0, 2}, {1, 3, 0}, "row_ptr size is not rows + 1"},
        {{0, 2, 2}, {1, 3, 0}, "row_ptr does not cover every entry"},
    };
    const std::vector<float> values = {1.0f, 2.0f, 3.0f};
    for (const Case &c : cases) {
        EXPECT_THROW(SparseRowMatrix::fromVectors(2, 8, c.row_ptr, c.col_idx,
                                                  values),
                     PanicError)
            << c.what;
        EXPECT_THROW(SparseRowMatrix::borrow(2, 8, c.row_ptr, c.col_idx,
                                             values, nullptr),
                     PanicError)
            << c.what;
    }
    EXPECT_THROW(SparseRowMatrix::fromVectors(2, 8, {0, 2, 3}, {1, 3},
                                              values),
                 PanicError)
        << "col_idx/values size mismatch";
    EXPECT_NO_THROW(SparseRowMatrix::fromVectors(2, 8, {0, 2, 3}, {1, 3, 0},
                                                 values));
}

// An operand is checked once and cannot change after: not an aggregate
// (so it cannot be built field by field), not assignable as a whole or
// member by member, and its elements are read-only.
static_assert(!std::is_aggregate_v<SparseRowMatrix>);
static_assert(!std::is_copy_assignable_v<SparseRowMatrix>);
static_assert(!std::is_move_assignable_v<SparseRowMatrix>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<SparseRowMatrix &>().rows)),
              std::int64_t>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<SparseRowMatrix &>().cols)),
              std::int64_t>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<SparseRowMatrix &>().row_ptr)),
              std::span<const std::int64_t>>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<SparseRowMatrix &>().col_idx)),
              std::span<const std::int32_t>>);
static_assert(!std::is_assignable_v<
              decltype((std::declval<SparseRowMatrix &>().values)),
              std::span<const float>>);
static_assert(!std::is_assignable_v<
              decltype(std::declval<SparseRowMatrix &>().row_ptr[0]),
              std::int64_t>);
static_assert(!std::is_assignable_v<
              decltype(std::declval<SparseRowMatrix &>().col_idx[0]),
              std::int32_t>);
static_assert(!std::is_assignable_v<
              decltype(std::declval<SparseRowMatrix &>().values[0]),
              float>);

TEST(SparseGemm, OperandCopiesShareTheirArrays)
{
    Rng rng(31);
    Tensor a(Shape({6, 16}));
    a.fillNormal(rng, 0.0f, 1.0f);
    const SparseRowMatrix sp = sparsifyRows(a);
    // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
    const SparseRowMatrix copy = sp;
    EXPECT_EQ(copy.row_ptr.data(), sp.row_ptr.data());
    EXPECT_EQ(copy.col_idx.data(), sp.col_idx.data());
    EXPECT_EQ(copy.values.data(), sp.values.data());

    // A copy keeps the arrays alive without the original.
    std::vector<SparseRowMatrix> held;
    {
        const SparseRowMatrix tmp = sparsifyRows(a);
        held.push_back(tmp);
    }
    Tensor b(Shape({16, 3}));
    b.fillNormal(rng, 0.0f, 1.0f);
    Tensor c_held(Shape({6, 3}));
    Tensor c_sp(Shape({6, 3}));
    gemmSparseA(held.front(), b, c_held);
    gemmSparseA(sp, b, c_sp);
    EXPECT_EQ(0, std::memcmp(c_held.data(), c_sp.data(),
                             static_cast<std::size_t>(c_sp.numel())
                                 * sizeof(float)));
}

TEST(SparseGemm, DefaultOperandIsTheEmptyOne)
{
    const SparseRowMatrix sp;
    EXPECT_EQ(sp.rows, 0);
    EXPECT_EQ(sp.cols, 0);
    ASSERT_EQ(sp.row_ptr.size(), 1u);
    EXPECT_EQ(sp.row_ptr[0], 0);
    EXPECT_EQ(sp.nnz(), 0);
    // It passes the factories' check: the same arrays build an operand.
    EXPECT_NO_THROW(SparseRowMatrix::borrow(0, 0, sp.row_ptr, sp.col_idx,
                                            sp.values, nullptr));
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

TEST(SparseGemm, ThreadCountDeterministicPerIsa)
{
    IsaGuard guard;
    ThreadGuard tguard;
    // Shapes straddle the driver's partition: several row blocks; one row
    // block with n split over many tiles; a 1-row second block; stage4's
    // k = 4608 at its batch-1 n = 49 and at n = 1, one single-column
    // tile. n = 31, 33, 63 and 196 leave the last 32-column tile ragged
    // (196 is stage3's batch-1 n).
    struct Case
    {
        std::int64_t m, k, n;
    };
    const Case cases[] = {
        {96, 320, 80},  {64, 320, 1500}, {65, 320, 80},
        {512, 4608, 49}, {16, 4608, 1},  {64, 576, 31},
        {96, 1152, 33}, {130, 320, 63},  {128, 2304, 196},
    };
    for (const Case &cs : cases) {
        const std::int64_t m = cs.m, k = cs.k, n = cs.n;
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k
                                        << " n=" << n);
        Tensor a = masked416Matrix(51 + m, m, k);
        const SparseRowMatrix sp = sparsifyRows(a);
        Rng rng(52 + m);
        Tensor b(Shape({k, n}));
        b.fillNormal(rng, 0.0f, 1.0f);
        Tensor c_oracle(Shape({m, n}));
        gemmSparseAReference(sp, b, c_oracle);

        for (Isa isa : availableIsas()) {
            ASSERT_TRUE(simd::setIsa(isa));
            setNumThreads(1);
            Tensor c1(Shape({m, n}));
            gemmSparseA(sp, b, c1);
            expectClose(c_oracle, c1, simd::isaName(isa));
            for (int threads : {2, 3, 4}) {
                setNumThreads(threads);
                Tensor ct(Shape({m, n}));
                gemmSparseA(sp, b, ct);
                EXPECT_EQ(0, std::memcmp(c1.data(), ct.data(),
                                         static_cast<std::size_t>(m * n)
                                             * sizeof(float)))
                    << simd::isaName(isa) << " at " << threads
                    << " threads";
            }
            Tensor cn(Shape({m, n}));
            runNested([&] { gemmSparseA(sp, b, cn); });
            EXPECT_EQ(0, std::memcmp(c1.data(), cn.data(),
                                     static_cast<std::size_t>(m * n)
                                         * sizeof(float)))
                << simd::isaName(isa) << " nested";
        }
    }
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

TEST(SparseGemm, PackSparseRowsMatchesReconstruct)
{
    CompressedFixture f(Shape({32, 4, 3, 3}));
    const SparseRowMatrix sp = f.layer.packSparseRows(f.cb);
    EXPECT_EQ(sp.rows, 32);
    EXPECT_EQ(sp.cols, 4 * 3 * 3);
    // 4:16 keeps exactly a quarter of the positions, including any kept
    // position whose codeword value happens to be zero.
    EXPECT_EQ(sp.nnz(), f.shape.numel() / 4);

    // Densifying the operand reproduces the reconstructed kernel exactly.
    const Tensor w = f.layer.reconstruct(f.cb);
    Tensor dense(Shape({sp.rows, sp.cols}));
    for (std::int64_t i = 0; i < sp.rows; ++i) {
        for (std::int64_t e = sp.row_ptr[static_cast<std::size_t>(i)];
             e < sp.row_ptr[static_cast<std::size_t>(i + 1)]; ++e) {
            const std::size_t se = static_cast<std::size_t>(e);
            dense.at(i, sp.col_idx[se]) = sp.values[se];
        }
    }
    EXPECT_FLOAT_EQ(
        maxAbsDiff(dense, w.reshaped(Shape({sp.rows, sp.cols}))), 0.0f);
}

TEST(CompressedConv2d, MatchesDensifiedForwardAllIsas)
{
    IsaGuard guard;
    CompressedFixture f(Shape({32, 4, 3, 3}));

    Rng rng(61);
    nn::Conv2dConfig cc{4, 32, 3, 1, 1, 1, false};
    nn::Conv2d dense_conv("conv", cc, rng);
    dense_conv.setWeight(f.layer.reconstruct(f.cb));
    const nn::CompressedConv2d sparse_conv(f.layer, f.cb, 1, 1);
    EXPECT_NEAR(sparse_conv.density(), 0.25, 1e-9);

    Tensor x(Shape({2, 4, 9, 9}));
    x.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        const Tensor ref = dense_conv.forward(x, false);
        const Tensor got = sparse_conv.forward(x);
        ASSERT_EQ(ref.shape(), got.shape()) << simd::isaName(isa);
        expectClose(ref, got, simd::isaName(isa));
    }
    // Sparse flop accounting: a quarter of the dense MACs.
    EXPECT_EQ(sparse_conv.flopsFor(x), dense_conv.flops() / 4);
}

TEST(CompressedConv2d, GroupedConvMatchesDensifiedForward)
{
    IsaGuard guard;
    CompressedFixture f(Shape({16, 2, 3, 3}), 77); // groups = 2, C = 4

    Rng rng(78);
    nn::Conv2dConfig cc{4, 16, 3, 1, 1, 2, false};
    nn::Conv2d dense_conv("conv", cc, rng);
    dense_conv.setWeight(f.layer.reconstruct(f.cb));
    const nn::CompressedConv2d sparse_conv(f.layer, f.cb, 1, 1, 2);

    Tensor x(Shape({3, 4, 7, 7}));
    x.fillNormal(rng, 0.0f, 1.0f);
    const Tensor ref = dense_conv.forward(x, false);
    const Tensor got = sparse_conv.forward(x);
    ASSERT_EQ(ref.shape(), got.shape());
    expectClose(ref, got, "grouped");
}

TEST(CompressedConv2d, StridedConvMatchesDensifiedForward)
{
    IsaGuard guard;
    CompressedFixture f(Shape({16, 8, 3, 3}), 91);

    Rng rng(92);
    nn::Conv2dConfig cc{8, 16, 3, 2, 0, 1, false};
    nn::Conv2d dense_conv("conv", cc, rng);
    dense_conv.setWeight(f.layer.reconstruct(f.cb));
    const nn::CompressedConv2d sparse_conv(f.layer, f.cb, 2, 0);

    Tensor x(Shape({1, 8, 11, 11}));
    x.fillNormal(rng, 0.0f, 1.0f);
    const Tensor ref = dense_conv.forward(x, false);
    const Tensor got = sparse_conv.forward(x);
    ASSERT_EQ(ref.shape(), got.shape());
    expectClose(ref, got, "strided");
}

TEST(ConvGeom, OversizedKernelClampsToNonPositive)
{
    // in_h + 2*pad - k_h == -1 with stride 2: truncation toward zero used
    // to report outH() == 1; the clamped form reports 0 so every caller
    // sees the geometry is invalid.
    ConvGeom g{1, 2, 5, 3, 3, 2, 0};
    EXPECT_EQ(g.outH(), 0);
    EXPECT_EQ(g.outW(), 2);
}

TEST(ConvGeom, Im2colAndCol2imPanicOnNonPositiveOutput)
{
    ConvGeom g{1, 2, 5, 3, 3, 2, 0};
    Tensor input(Shape({1, 1, 2, 5}));
    EXPECT_THROW(im2col(input, 0, g), PanicError);

    Tensor cols(Shape({9, 1}));
    Tensor grad(Shape({1, 1, 2, 5}));
    EXPECT_THROW(col2im(cols, grad, 0, g), PanicError);
}

} // namespace
} // namespace mvq
