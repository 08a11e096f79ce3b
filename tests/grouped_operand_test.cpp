/**
 * @file
 * Per-conv-group operand coverage: CompressedLayer::packGroupedRows
 * splits a layer into one CSR operand per conv group, each its row slice
 * of packSparseRows byte for byte, and CompressedConv2d serves a grouped,
 * strided conv from those operands within 1e-4 of the densified forward
 * on every ISA this host can execute.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

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

    // Split per conv group, each group's operand is its row slice of the
    // full pack byte for byte (row pointers rebased to the slice).
    for (const std::int64_t groups : {1, 2, 4}) {
        const auto ops = f.layer.packGroupedRows(f.cb, groups);
        ASSERT_EQ(ops.size(), static_cast<std::size_t>(groups));
        const std::int64_t kg = full.rows / groups;
        std::int64_t total = 0;
        for (std::int64_t grp = 0; grp < groups; ++grp) {
            SCOPED_TRACE(testing::Message() << groups << " groups, group "
                                            << grp);
            const SparseRowMatrix &g =
                ops[static_cast<std::size_t>(grp)].rows;
            EXPECT_TRUE(g.validated);
            ASSERT_EQ(g.rows, kg);
            ASSERT_EQ(g.cols, full.cols);
            const std::int64_t e0 =
                full.row_ptr[static_cast<std::size_t>(grp * kg)];
            for (std::int64_t r = 0; r <= kg; ++r)
                EXPECT_EQ(g.row_ptr[static_cast<std::size_t>(r)],
                          full.row_ptr[static_cast<std::size_t>(grp * kg + r)]
                              - e0);
            ASSERT_EQ(g.row_ptr[static_cast<std::size_t>(kg)], g.nnz());
            const auto n = static_cast<std::size_t>(g.nnz());
            const auto se0 = static_cast<std::size_t>(e0);
            EXPECT_EQ(0, std::memcmp(g.col_idx.data(),
                                     full.col_idx.data() + se0,
                                     n * sizeof(std::int32_t)));
            EXPECT_EQ(0, std::memcmp(g.values.data(),
                                     full.values.data() + se0,
                                     n * sizeof(float)));
            total += g.nnz();
        }
        EXPECT_EQ(total, full.nnz());
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
