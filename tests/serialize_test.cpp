/**
 * @file
 * Serialization tests: bit-stream round trips, full-model round trips
 * with exact reconstruction equality, and file size vs the Eq. 7
 * storage accounting.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "nn/conv2d.hpp"
#include "nn/network.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

TEST(BitStream, RoundTripMixedWidths)
{
    BitWriter w;
    w.put(0b101, 3);
    w.put(0xDEAD, 16);
    w.put(1, 1);
    w.put(0x123456789ULL, 36);
    const auto bytes = w.finish();

    BitReader r(bytes);
    EXPECT_EQ(r.get(3), 0b101u);
    EXPECT_EQ(r.get(16), 0xDEADu);
    EXPECT_EQ(r.get(1), 1u);
    EXPECT_EQ(r.get(36), 0x123456789ULL);
}

TEST(BitStream, OverrunFatal)
{
    BitWriter w;
    w.put(3, 2);
    const auto bytes = w.finish();
    BitReader r(bytes);
    r.get(8);
    EXPECT_THROW(r.get(8), FatalError);
}

TEST(BitStream, EveryWidthAtEveryAlignmentRoundTrips)
{
    // A field of each width 1..57 written after 0..7 bits of lead-in, so
    // it starts at every bit offset within its first byte, followed by a
    // marker. Both the all-ones and a mixed value must read back exactly,
    // including when the field ends within the buffer's last 8 bytes.
    Rng rng(57);
    for (int align = 0; align < 8; ++align) {
        for (int width = 1; width <= 57; ++width) {
            const std::uint64_t ones = (1ull << width) - 1;
            const std::uint64_t mixed =
                static_cast<std::uint64_t>(rng.raw()()) & ones;
            for (const std::uint64_t value : {ones, mixed}) {
                BitWriter w;
                w.put(0x55, align);
                w.put(value, width);
                w.put(0x5, 3);
                const auto bytes = w.finish();
                BitReader r(bytes);
                EXPECT_EQ(r.get(align), 0x55ull & ((1ull << align) - 1));
                EXPECT_EQ(r.get(width), value)
                    << "width " << width << " at bit offset " << align;
                EXPECT_EQ(r.get(3), 0x5u);
                EXPECT_LT(r.remainingBits(), 8);
            }
        }
    }
}

TEST(BitStream, WidthOver57Panics)
{
    BitWriter w;
    w.put(0, 57);
    w.put(0, 57);
    const auto bytes = w.finish();
    BitReader r(bytes);
    EXPECT_THROW(r.get(58), PanicError);
    EXPECT_THROW(r.get(64), PanicError);
    EXPECT_THROW(r.get(-1), PanicError);
    EXPECT_EQ(r.get(57), 0u); // nothing was consumed
}

TEST(BitStream, OverrunConsumesNothing)
{
    BitWriter w;
    w.put(0x2a, 7);
    const auto bytes = w.finish();
    BitReader r(bytes);
    EXPECT_THROW(r.get(9), FatalError);
    EXPECT_EQ(r.remainingBits(), 8);
    EXPECT_EQ(r.get(7), 0x2au);
}

TEST(BitStream, BitCountMatches)
{
    BitWriter w;
    w.put(0, 7);
    w.put(0, 9);
    EXPECT_EQ(w.bitCount(), 16);
}

/** Build a real compressed model from a clustered random kernel. */
CompressedModel
makeModel()
{
    Rng rng(221);
    Tensor w4(Shape({32, 8, 3, 3}));
    w4.fillNormal(rng, 0.0f, 0.5f);

    MvqLayerConfig cfg;
    cfg.k = 32;
    cfg.d = 16;
    cfg.pattern = NmPattern{4, 16};
    Tensor wr = groupWeights(w4, cfg.d, cfg.grouping);
    Mask mask = nmMask(wr, cfg.pattern);
    applyMask(wr, mask);
    KmeansConfig kc;
    kc.k = cfg.k;
    KmeansResult km = maskedKmeans(wr, mask, kc);

    CompressedModel model;
    Codebook cb;
    cb.codewords = km.codebook;
    quantizeCodebook(cb, 8);
    model.codebooks.push_back(cb);
    CompressedLayer layer =
        makeCompressedLayer("conv", w4.shape(), cfg, mask, km, 0);
    layer.dense_flops = 123456;
    model.layers.push_back(std::move(layer));
    return model;
}

TEST(Serialize, ModelRoundTripExact)
{
    CompressedModel model = makeModel();
    const auto bytes = serializeModel(model);
    CompressedModel back = deserializeModel(bytes);

    ASSERT_EQ(back.layers.size(), model.layers.size());
    ASSERT_EQ(back.codebooks.size(), model.codebooks.size());
    EXPECT_EQ(back.dense_reconstruct, model.dense_reconstruct);

    const auto &l0 = model.layers[0];
    const auto &l1 = back.layers[0];
    EXPECT_EQ(l1.name, l0.name);
    EXPECT_EQ(l1.weight_shape, l0.weight_shape);
    EXPECT_EQ(l1.cfg.k, l0.cfg.k);
    EXPECT_EQ(l1.cfg.pattern.n, l0.cfg.pattern.n);
    EXPECT_EQ(l1.assignments, l0.assignments);
    EXPECT_EQ(l1.mask_codes, l0.mask_codes);
    EXPECT_EQ(l1.dense_flops, l0.dense_flops);

    // The reconstruction must be bit-identical.
    EXPECT_FLOAT_EQ(
        maxAbsDiff(model.reconstructLayer(0), back.reconstructLayer(0)),
        0.0f);
}

TEST(Serialize, FileSizeTracksEq7Accounting)
{
    CompressedModel model = makeModel();
    const auto bytes = serializeModel(model);
    const StorageCost cost = model.storage();
    // Payload bits plus bounded header/metadata overhead.
    const double payload_bytes =
        static_cast<double>(cost.totalBits()) / 8.0;
    EXPECT_GT(static_cast<double>(bytes.size()), payload_bytes);
    EXPECT_LT(static_cast<double>(bytes.size()),
              payload_bytes + 256.0);
}

TEST(Serialize, SaveLoadFile)
{
    CompressedModel model = makeModel();
    const std::string path = "/tmp/mvq_serialize_test.mvq";
    io::saveArtifact(model, path, io::ArtifactFormat::Stream);
    CompressedModel back = io::openArtifact(path)->model();
    EXPECT_FLOAT_EQ(
        maxAbsDiff(model.reconstructLayer(0), back.reconstructLayer(0)),
        0.0f);
    std::remove(path.c_str());
}

/** Round-trip must hold for every N:M pattern / k / grouping combo. */
class SerializeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SerializeSweep, RoundTripAcrossConfigs)
{
    const auto [n, m, k] = GetParam();
    Rng rng(223);
    Tensor w4(Shape({32, 4, 3, 3}));
    w4.fillNormal(rng, 0.0f, 0.5f);

    MvqLayerConfig cfg;
    cfg.k = k;
    cfg.d = 16;
    cfg.pattern = NmPattern{n, m};
    Tensor wr = groupWeights(w4, cfg.d, cfg.grouping);
    Mask mask = nmMask(wr, cfg.pattern);
    applyMask(wr, mask);
    KmeansConfig kc;
    kc.k = k;
    KmeansResult km = maskedKmeans(wr, mask, kc);

    CompressedModel model;
    Codebook cb;
    cb.codewords = km.codebook;
    quantizeCodebook(cb, 8);
    model.codebooks.push_back(cb);
    model.layers.push_back(
        makeCompressedLayer("c", w4.shape(), cfg, mask, km, 0));

    CompressedModel back = deserializeModel(serializeModel(model));
    EXPECT_FLOAT_EQ(
        maxAbsDiff(model.reconstructLayer(0), back.reconstructLayer(0)),
        0.0f);
    EXPECT_EQ(back.layers[0].assignments, model.layers[0].assignments);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, SerializeSweep,
    ::testing::Values(std::make_tuple(4, 16, 32),
                      std::make_tuple(1, 2, 8),
                      std::make_tuple(2, 4, 64),
                      std::make_tuple(8, 16, 16),
                      std::make_tuple(1, 1, 128),
                      std::make_tuple(2, 8, 7)));

TEST(Serialize, RejectsGarbage)
{
    std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_THROW(deserializeModel(junk), FatalError);
}

TEST(Serialize, RejectsTruncationAtEveryPrefix)
{
    // Every strict prefix of a valid stream must fail with FatalError
    // (clean overrun or bounds message), never crash or mis-decode. The
    // remainingBits checks specifically keep a truncated header from
    // driving a huge codeword/assignment allocation.
    const auto bytes = serializeModel(makeModel());
    ASSERT_GT(bytes.size(), 100u);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        const std::vector<std::uint8_t> trunc(bytes.begin(),
                                              bytes.begin()
                                                  + static_cast<long>(cut));
        EXPECT_THROW(deserializeModel(trunc), FatalError)
            << "prefix of " << cut << " bytes decoded without error";
    }
}

TEST(Serialize, BitReaderRemainingBits)
{
    BitWriter w;
    w.put(0x3f, 6);
    w.put(0, 10);
    const auto bytes = w.finish();
    BitReader r(bytes);
    EXPECT_EQ(r.remainingBits(), 16);
    r.get(6);
    EXPECT_EQ(r.remainingBits(), 10);
    r.get(10);
    EXPECT_EQ(r.remainingBits(), 0);
}

TEST(Serialize, UnquantizedCodebookRoundTrip)
{
    CompressedModel model = makeModel();
    // Replace with an unquantized codebook (fp32 path).
    Rng rng(222);
    model.codebooks[0].qbits = 0;
    model.codebooks[0].scale = 0.0f;
    model.codebooks[0].codewords.fillNormal(rng, 0.0f, 1.0f);
    const auto bytes = serializeModel(model);
    CompressedModel back = deserializeModel(bytes);
    EXPECT_FLOAT_EQ(maxAbsDiff(back.codebooks[0].codewords,
                               model.codebooks[0].codewords),
                    0.0f);
}

} // namespace
} // namespace mvq::core
