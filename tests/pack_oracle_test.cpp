/**
 * @file
 * Byte-identity oracle for the operand builder. The O(nnz) pack walk
 * behind CompressedLayer::packSparseRows must reproduce, array for
 * array, the direct version kept here: one per-weight groupedCoords
 * walk. A stream-opened ResNet-18-geometry image is compared with the
 * writer's image carrying the oracle operands.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "core/io/model_artifact.hpp"
#include "core/mask_codec.hpp"
#include "models/layer_spec.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

// ------------------------------------------------------------- the oracles

/** The unrolled weight matrix, one groupedCoords call per weight. */
SparseRowMatrix
oraclePack(const CompressedLayer &layer, const Codebook &cb)
{
    const Mask mask = layer.decodeMask();
    const Shape &w4 = layer.weight_shape;
    const std::int64_t d = layer.cfg.d;
    std::vector<std::int64_t> row_ptr = {0};
    std::vector<std::int32_t> col_idx;
    std::vector<float> values;
    for (std::int64_t k = 0; k < w4.dim(0); ++k) {
        for (std::int64_t c = 0; c < w4.dim(1); ++c) {
            for (std::int64_t r = 0; r < w4.dim(2); ++r) {
                for (std::int64_t s = 0; s < w4.dim(3); ++s) {
                    const GroupedCoord gc =
                        groupedCoords(k, c, r, s, w4, d, layer.cfg.grouping);
                    if (!mask[static_cast<std::size_t>(gc.row * d + gc.col)])
                        continue;
                    const std::int32_t a = layer.assignments[
                        static_cast<std::size_t>(gc.row)];
                    col_idx.push_back(static_cast<std::int32_t>(
                        (c * w4.dim(2) + r) * w4.dim(3) + s));
                    values.push_back(cb.codewords[a * d + gc.col]);
                }
            }
        }
        row_ptr.push_back(static_cast<std::int64_t>(values.size()));
    }
    return SparseRowMatrix::fromVectors(
        w4.dim(0), w4.dim(1) * w4.dim(2) * w4.dim(3), std::move(row_ptr),
        std::move(col_idx), std::move(values));
}

// ------------------------------------------------------------- comparison

template <typename T>
bool
sameBytes(std::span<const T> a, std::span<const T> b)
{
    return a.size() == b.size()
        && (a.empty()
            || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void
expectSameCsr(const SparseRowMatrix &want, const SparseRowMatrix &got,
              const std::string &what)
{
    EXPECT_EQ(got.rows, want.rows) << what;
    EXPECT_EQ(got.cols, want.cols) << what;
    EXPECT_TRUE(sameBytes(got.row_ptr, want.row_ptr)) << what << " row_ptr";
    EXPECT_TRUE(sameBytes(got.col_idx, want.col_idx)) << what << " col_idx";
    EXPECT_TRUE(sameBytes(got.values, want.values)) << what << " values";
}

// ------------------------------------------------------------- inputs

Codebook
randomCodebook(Rng &rng, std::int64_t k, std::int64_t d)
{
    Codebook cb;
    cb.codewords = Tensor(Shape({k, d}));
    cb.codewords.fillNormal(rng, 0.0f, 1.0f);
    return cb;
}

/** Random assignments; mask codes random, or one repeated code (every
 *  M-row block then shares one kept-row pattern). */
CompressedLayer
randomLayer(Rng &rng, const Shape &shape, Grouping g, NmPattern p,
            std::int64_t d, std::int64_t k, bool repeat_code)
{
    CompressedLayer l;
    l.name = "conv";
    l.weight_shape = shape;
    l.cfg.k = k;
    l.cfg.d = d;
    l.cfg.pattern = p;
    l.cfg.grouping = g;
    const std::int64_t ng = groupCount(shape, d, g);
    for (std::int64_t j = 0; j < ng; ++j)
        l.assignments.push_back(static_cast<std::int32_t>(rng.intIn(0, k - 1)));
    const MaskCodec codec(p);
    const auto ncodes = static_cast<std::int64_t>(codec.codeCount());
    const std::int64_t fixed = rng.intIn(0, ncodes - 1);
    for (std::int64_t j = 0; j < ng * (d / p.m); ++j)
        l.mask_codes.push_back(static_cast<std::uint32_t>(
            repeat_code ? fixed : rng.intIn(0, ncodes - 1)));
    return l;
}

struct LayerCase
{
    const char *name;
    Grouping grouping;
    NmPattern pattern;
    std::int64_t d;
    Shape shape;
};

std::string
caseName(const ::testing::TestParamInfo<LayerCase> &info)
{
    return info.param.name;
}

class PackOracle : public ::testing::TestWithParam<LayerCase>
{
};

TEST_P(PackOracle, PackedOperandsMatchTheOracleArrayForArray)
{
    const LayerCase &lc = GetParam();
    Rng rng(0x5eed + static_cast<std::uint64_t>(lc.shape.numel()));
    const Codebook cb = randomCodebook(rng, 32, lc.d);
    for (const bool repeat : {false, true}) {
        const CompressedLayer layer = randomLayer(
            rng, lc.shape, lc.grouping, lc.pattern, lc.d, 32, repeat);
        const std::string mode = repeat ? " repeated-code" : " random";
        const SparseRowMatrix got = layer.packSparseRows(cb);
        expectSameCsr(oraclePack(layer, cb), got, lc.name + mode + " csr");
    }
}

// Row counts include ones that are not a multiple of the pattern's M; d
// differs from M in the 2:4 and 8:16 cases.
INSTANTIATE_TEST_SUITE_P(
    Layers, PackOracle,
    ::testing::Values(
        LayerCase{"ocw_4of16_d16", Grouping::OutputChannelWise, {4, 16}, 16,
                  Shape({48, 6, 3, 3})},
        LayerCase{"ocw_2of4_d16", Grouping::OutputChannelWise, {2, 4}, 16,
                  Shape({48, 5, 3, 3})},
        LayerCase{"ocw_8of16_d32", Grouping::OutputChannelWise, {8, 16}, 32,
                  Shape({64, 3, 3, 3})},
        LayerCase{"ocw_5of16_d16", Grouping::OutputChannelWise, {5, 16}, 16,
                  Shape({48, 4, 3, 3})},
        LayerCase{"kw_4of16_d16", Grouping::KernelWise, {4, 16}, 16,
                  Shape({20, 6, 4, 4})},
        LayerCase{"kw_2of4_d16", Grouping::KernelWise, {2, 4}, 16,
                  Shape({20, 3, 4, 4})},
        LayerCase{"kw_8of16_d32", Grouping::KernelWise, {8, 16}, 32,
                  Shape({12, 4, 4, 8})},
        LayerCase{"icw_4of16_d16", Grouping::InputChannelWise, {4, 16}, 16,
                  Shape({20, 32, 3, 3})},
        LayerCase{"icw_2of4_d16", Grouping::InputChannelWise, {2, 4}, 16,
                  Shape({20, 16, 3, 3})},
        LayerCase{"icw_8of16_d32", Grouping::InputChannelWise, {8, 16}, 32,
                  Shape({8, 64, 2, 2})}),
    caseName);

TEST(PackOracleImage, StreamOpenedResNet18ImageMatchesOracleOperands)
{
    // ResNet-18's conv geometry with random 4:16 symbols.
    Rng rng(18);
    CompressedModel model;
    model.codebooks.push_back(randomCodebook(rng, 256, 16));
    for (const models::ConvLayerSpec &c : models::resnet18Spec().convs) {
        if (c.weightCount() % 16 != 0)
            continue;
        CompressedLayer l = randomLayer(
            rng, Shape({c.out_c, c.in_c / c.groups, c.kernel, c.kernel}),
            Grouping::OutputChannelWise, {4, 16}, 16, 256, false);
        l.name = c.name;
        model.layers.push_back(std::move(l));
    }
    const std::string path = "/tmp/mvq_pack_oracle_test.mvq";
    io::saveArtifact(model, path, io::ArtifactFormat::Stream);
    const auto art = io::openArtifact(path);
    std::remove(path.c_str());

    // The writer's image for the model, with every operand section
    // overwritten by the oracle's arrays.
    io::MvqiBytes want = io::buildMvqiImage(model);
    const io::MvqiView view(want.data(),
                            static_cast<std::int64_t>(want.size()), "want");
    ASSERT_EQ(view.layerCount(),
              static_cast<std::int64_t>(model.layers.size()));
    auto put = [&](const io::MvqiArray &sec, const auto &arr) {
        using T = std::remove_cvref_t<decltype(arr[0])>;
        ASSERT_EQ(sec.count, static_cast<std::int64_t>(arr.size()));
        if (!arr.empty())
            std::memcpy(want.data() + sec.off, arr.data(),
                        arr.size() * sizeof(T));
    };
    for (std::size_t i = 0; i < model.layers.size(); ++i) {
        const SparseRowMatrix op =
            oraclePack(model.layers[i], model.codebooks[0]);
        const io::MvqiOperand &rec =
            view.layer(static_cast<std::int64_t>(i)).operand;
        put(rec.row_ptr, op.row_ptr);
        put(rec.col_idx, op.col_idx);
        put(rec.values, op.values);
    }
    ASSERT_EQ(art->view().size(), static_cast<std::int64_t>(want.size()));
    EXPECT_EQ(std::memcmp(art->view().data(), want.data(), want.size()), 0);
}

} // namespace
} // namespace mvq::core
