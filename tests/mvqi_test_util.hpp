/**
 * @file
 * Shared helpers for the model-artifact / MVQI tests: a byte-deterministic
 * compressed model for the golden fixture (no float *computation* — every
 * stored value is an exact binary fraction derived from integers, so the
 * emitted image is identical across compilers and -ffp-contract choices)
 * and a small randomized model for round-trip checks.
 */

#ifndef MVQ_TESTS_MVQI_TEST_UTIL_HPP
#define MVQ_TESTS_MVQI_TEST_UTIL_HPP

#include <cstdint>

#include "core/compressed_layer.hpp"
#include "core/io/mvqi_format.hpp"
#include "core/mask_codec.hpp"
#include "core/nm_pruning.hpp"

namespace mvq::core {

/**
 * Deterministic two-layer, two-codebook model exercising both N:M
 * patterns (4:16 and 2:4), a grouped conv (the golden image records
 * groups=2 for layer 1), and quantized + unquantized codebooks.
 * Every float is of the form (small integer) * 2^-2, exactly
 * representable, so serialization is byte-stable everywhere.
 */
inline CompressedModel
makeGoldenModel()
{
    CompressedModel model;

    {
        Codebook cb;
        cb.qbits = 8;
        cb.scale = 0.25f;
        cb.codewords = Tensor(Shape({16, 16}));
        for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
            cb.codewords[i] =
                static_cast<float>(i % 17 - 8) * 0.25f;
        model.codebooks.push_back(std::move(cb));
    }
    {
        Codebook cb; // unquantized fp32 codebook
        cb.qbits = 0;
        cb.scale = 0.0f;
        cb.codewords = Tensor(Shape({8, 16}));
        for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
            cb.codewords[i] =
                static_cast<float>((i * 7) % 23 - 11) * 0.25f;
        model.codebooks.push_back(std::move(cb));
    }

    {
        CompressedLayer l;
        l.name = "conv0";
        l.weight_shape = Shape({16, 2, 2, 2});
        l.cfg.k = 16;
        l.cfg.d = 16;
        l.cfg.pattern = NmPattern{4, 16};
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 4096;
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        const MaskCodec codec(l.cfg.pattern);
        for (std::int64_t j = 0; j < ng; ++j)
            l.assignments.push_back(
                static_cast<std::int32_t>((j * 5) % l.cfg.k));
        const std::int64_t codes = ng * (l.cfg.d / l.cfg.pattern.m);
        for (std::int64_t j = 0; j < codes; ++j)
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                (j * 131u + 17u) % codec.codeCount()));
        model.layers.push_back(std::move(l));
    }
    {
        CompressedLayer l;
        l.name = "conv1_grouped";
        l.weight_shape = Shape({16, 4, 3, 3}); // C/groups=4 with groups=2
        l.cfg.k = 8;
        l.cfg.d = 16;
        l.cfg.pattern = NmPattern{2, 4};
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 0;
        l.codebook_id = 1;
        l.dense_flops = 9216;
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        const MaskCodec codec(l.cfg.pattern);
        for (std::int64_t j = 0; j < ng; ++j)
            l.assignments.push_back(
                static_cast<std::int32_t>((j * 3 + 1) % l.cfg.k));
        const std::int64_t codes = ng * (l.cfg.d / l.cfg.pattern.m);
        for (std::int64_t j = 0; j < codes; ++j)
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                (j * 37u + 2u) % codec.codeCount()));
        model.layers.push_back(std::move(l));
    }
    return model;
}

/** The conv groups the golden image records per layer (layer 1 is a
 *  2-group conv; see makeGoldenModel). */
inline io::MvqiWriteOptions
goldenWriteOptions()
{
    io::MvqiWriteOptions opts;
    opts.layer_groups["conv1_grouped"] = 2;
    return opts;
}

} // namespace mvq::core

#endif // MVQ_TESTS_MVQI_TEST_UTIL_HPP
