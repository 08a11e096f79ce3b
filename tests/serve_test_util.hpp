/**
 * @file
 * Shared helpers for the serving tests and bench: a deterministic
 * *chainable* compressed model (layer 0's output channels feed layer 1's
 * input channels, so CompressedNet can run it end to end with pad=1
 * "same" geometry), in the byte-stable integer-fraction style of
 * mvqi_test_util.hpp, plus the matching serve-side plumbing.
 */

#ifndef MVQ_TESTS_SERVE_TEST_UTIL_HPP
#define MVQ_TESTS_SERVE_TEST_UTIL_HPP

#include <cstdint>

#include "core/compressed_layer.hpp"
#include "core/io/mvqi_format.hpp"
#include "core/mask_codec.hpp"
#include "core/nm_pruning.hpp"

namespace mvq::core {

/**
 * Deterministic two-layer chainable model: conv s0 [16, 8, 3, 3] (4:16)
 * feeds conv s1 [16, 16, 3, 3] (2:4), both groups=1, both on one int8
 * codebook. With stride 1 / pad 1 an [8, H, W] image flows through both
 * layers at constant spatial size. Every float is (small integer) * 2^-2,
 * so artifacts serialize byte-identically across compilers.
 */
inline CompressedModel
makeServeModel()
{
    CompressedModel model;

    {
        Codebook cb;
        cb.qbits = 8;
        cb.scale = 0.25f;
        cb.codewords = Tensor(Shape({32, 16}));
        for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
            cb.codewords[i] = static_cast<float>((i * 11) % 19 - 9) * 0.25f;
        model.codebooks.push_back(std::move(cb));
    }

    {
        CompressedLayer l;
        l.name = "s0";
        l.weight_shape = Shape({16, 8, 3, 3});
        l.cfg.k = 32;
        l.cfg.d = 16;
        l.cfg.pattern = NmPattern{4, 16};
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 2 * l.weight_shape.numel();
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        const MaskCodec codec(l.cfg.pattern);
        for (std::int64_t j = 0; j < ng; ++j)
            l.assignments.push_back(
                static_cast<std::int32_t>((j * 7 + 3) % l.cfg.k));
        const std::int64_t codes = ng * (l.cfg.d / l.cfg.pattern.m);
        for (std::int64_t j = 0; j < codes; ++j)
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                (j * 113u + 5u) % codec.codeCount()));
        model.layers.push_back(std::move(l));
    }
    {
        CompressedLayer l;
        l.name = "s1";
        l.weight_shape = Shape({16, 16, 3, 3});
        l.cfg.k = 32;
        l.cfg.d = 16;
        l.cfg.pattern = NmPattern{2, 4};
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 2 * l.weight_shape.numel();
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        const MaskCodec codec(l.cfg.pattern);
        for (std::int64_t j = 0; j < ng; ++j)
            l.assignments.push_back(
                static_cast<std::int32_t>((j * 5 + 1) % l.cfg.k));
        const std::int64_t codes = ng * (l.cfg.d / l.cfg.pattern.m);
        for (std::int64_t j = 0; j < codes; ++j)
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                (j * 41u + 7u) % codec.codeCount()));
        model.layers.push_back(std::move(l));
    }
    return model;
}

/** Both layers are plain (groups=1) convs; the defaults record that. */
inline io::MvqiWriteOptions
serveWriteOptions()
{
    return io::MvqiWriteOptions{};
}

} // namespace mvq::core

#endif // MVQ_TESTS_SERVE_TEST_UTIL_HPP
