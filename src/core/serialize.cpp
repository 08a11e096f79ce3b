#include "core/serialize.hpp"

#include <cstring>

#include "common/logging.hpp"
#include "common/math_util.hpp"

namespace mvq::core {

void
BitWriter::put(std::uint64_t value, int bits)
{
    panicIf(bits < 0 || bits > 57, "bitfield width out of range");
    for (int i = 0; i < bits; ++i) {
        if (bit_pos == 0)
            bytes.push_back(0);
        if ((value >> i) & 1ull)
            bytes.back() |= static_cast<std::uint8_t>(1u << bit_pos);
        bit_pos = (bit_pos + 1) % 8;
    }
    bit_count += bits;
}

std::vector<std::uint8_t>
BitWriter::finish()
{
    bit_pos = 0;
    return std::move(bytes);
}

std::uint64_t
BitReader::get(int bits)
{
    panicIf(bits < 0 || bits > 57, "bitfield width out of range");
    fatalIf(bits > remainingBits(), "bit stream overrun");
    if (bits == 0)
        return 0;
    // A field of at most 57 bits that starts `shift` bits into its first
    // byte ends within that byte's 8-byte window: assemble the window
    // (fewer bytes at the end of the buffer) and cut the field out.
    const std::size_t first = static_cast<std::size_t>(pos / 8);
    const int shift = static_cast<int>(pos % 8);
    const std::uint8_t *p = bytes.data() + first;
    std::uint64_t window = 0;
    if (bytes.size() - first >= 8) {
        // Constant trip count: compilers fold this into one 8-byte load.
        for (int i = 0; i < 8; ++i)
            window |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    } else {
        for (std::size_t i = 0; i < bytes.size() - first; ++i)
            window |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    pos += bits;
    return (window >> shift) & ((1ull << bits) - 1);
}

std::vector<std::uint8_t>
serializeModel(const CompressedModel &model)
{
    BitWriter w;
    w.put(kStreamMagic, 32);
    w.put(model.dense_reconstruct ? 1 : 0, 8);
    w.put(model.codebooks.size(), 16);
    w.put(model.layers.size(), 16);

    // Codebooks: k, d, qbits, scale (raw fp32 bits), then codewords as
    // signed levels at qbits (or raw fp32 when unquantized).
    for (const auto &cb : model.codebooks) {
        w.put(static_cast<std::uint64_t>(cb.k()), 24);
        w.put(static_cast<std::uint64_t>(cb.d()), 16);
        w.put(static_cast<std::uint64_t>(cb.qbits), 8);
        std::uint32_t scale_bits = 0;
        static_assert(sizeof(float) == 4);
        std::memcpy(&scale_bits, &cb.scale, 4);
        w.put(scale_bits, 32);
        for (std::int64_t i = 0; i < cb.codewords.numel(); ++i) {
            if (cb.qbits > 0) {
                const std::int64_t level = static_cast<std::int64_t>(
                    std::llround(cb.codewords[i] / cb.scale));
                w.put(static_cast<std::uint64_t>(
                          level + (1ll << (cb.qbits - 1))),
                      cb.qbits);
            } else {
                std::uint32_t vb = 0;
                const float v = cb.codewords[i];
                std::memcpy(&vb, &v, 4);
                w.put(vb, 32);
            }
        }
    }

    for (const auto &layer : model.layers) {
        w.put(layer.name.size(), 16);
        for (char c : layer.name)
            w.put(static_cast<std::uint8_t>(c), 8);
        for (int i = 0; i < 4; ++i) {
            w.put(static_cast<std::uint64_t>(
                      i < layer.weight_shape.rank()
                          ? layer.weight_shape.dim(i) : 1),
                  24);
        }
        w.put(static_cast<std::uint64_t>(layer.cfg.k), 24);
        w.put(static_cast<std::uint64_t>(layer.cfg.d), 16);
        w.put(static_cast<std::uint64_t>(layer.cfg.pattern.n), 8);
        w.put(static_cast<std::uint64_t>(layer.cfg.pattern.m), 8);
        w.put(static_cast<std::uint64_t>(layer.cfg.grouping), 8);
        w.put(static_cast<std::uint64_t>(layer.cfg.codebook_bits), 8);
        w.put(static_cast<std::uint64_t>(layer.codebook_id), 16);
        w.put(static_cast<std::uint64_t>(layer.dense_flops), 48);
        w.put(static_cast<std::uint64_t>(layer.ng()), 32);

        // The payload at exactly the accounted widths.
        const int index_bits = log2Ceil(
            static_cast<std::uint64_t>(layer.cfg.k));
        const MaskCodec codec(layer.cfg.pattern);
        for (std::int32_t a : layer.assignments)
            w.put(static_cast<std::uint64_t>(a),
                  std::max(index_bits, 1));
        for (std::uint32_t code : layer.mask_codes)
            w.put(code, std::max(codec.bitsPerGroup(), 1));
    }
    return w.finish();
}

CompressedModel
deserializeModel(const std::vector<std::uint8_t> &data)
{
    BitReader r(data);
    fatalIf(r.get(32) != kStreamMagic, "not an MVQ model file");
    CompressedModel model;
    model.dense_reconstruct = r.get(8) != 0;
    const std::uint64_t n_books = r.get(16);
    const std::uint64_t n_layers = r.get(16);

    for (std::uint64_t b = 0; b < n_books; ++b) {
        Codebook cb;
        const auto k = static_cast<std::int64_t>(r.get(24));
        const auto d = static_cast<std::int64_t>(r.get(16));
        cb.qbits = static_cast<int>(r.get(8));
        const std::uint32_t scale_bits =
            static_cast<std::uint32_t>(r.get(32));
        std::memcpy(&cb.scale, &scale_bits, 4);
        // Size fields are untrusted: bound the codeword allocation by the
        // bits actually left in the stream before resizing, so a corrupt
        // header fails with a clear message instead of a giant alloc.
        fatalIf(k <= 0 || d <= 0, "corrupt model stream: codebook ", b,
                " has invalid dimensions k=", k, " d=", d);
        fatalIf(cb.qbits < 0 || cb.qbits > 32,
                "corrupt model stream: codebook ", b, " has invalid ",
                "qbits ", cb.qbits);
        fatalIf(k * d * (cb.qbits > 0 ? cb.qbits : 32)
                    > r.remainingBits(),
                "corrupt model stream: codebook ", b, " codewords (", k,
                " x ", d, ") exceed the remaining stream");
        cb.codewords = Tensor(Shape({k, d}));
        for (std::int64_t i = 0; i < k * d; ++i) {
            if (cb.qbits > 0) {
                const std::int64_t level =
                    static_cast<std::int64_t>(r.get(cb.qbits))
                    - (1ll << (cb.qbits - 1));
                cb.codewords[i] =
                    static_cast<float>(level) * cb.scale;
            } else {
                const std::uint32_t vb =
                    static_cast<std::uint32_t>(r.get(32));
                float v = 0.0f;
                std::memcpy(&v, &vb, 4);
                cb.codewords[i] = v;
            }
        }
        model.codebooks.push_back(std::move(cb));
    }

    for (std::uint64_t l = 0; l < n_layers; ++l) {
        CompressedLayer layer;
        const std::uint64_t name_len = r.get(16);
        for (std::uint64_t i = 0; i < name_len; ++i)
            layer.name.push_back(static_cast<char>(r.get(8)));
        std::int64_t dims[4];
        for (auto &dim : dims)
            dim = static_cast<std::int64_t>(r.get(24));
        layer.weight_shape = Shape({dims[0], dims[1], dims[2], dims[3]});
        layer.cfg.k = static_cast<std::int64_t>(r.get(24));
        layer.cfg.d = static_cast<std::int64_t>(r.get(16));
        layer.cfg.pattern.n = static_cast<int>(r.get(8));
        layer.cfg.pattern.m = static_cast<int>(r.get(8));
        layer.cfg.grouping =
            groupingFromInt(static_cast<int>(r.get(8)));
        layer.cfg.codebook_bits = static_cast<int>(r.get(8));
        layer.codebook_id = static_cast<int>(r.get(16));
        layer.dense_flops = static_cast<std::int64_t>(r.get(48));
        const auto ng = static_cast<std::int64_t>(r.get(32));

        fatalIf(layer.cfg.k <= 0, "corrupt model stream: layer ", l,
                " has invalid k ", layer.cfg.k);
        fatalIf(layer.cfg.pattern.m <= 0
                    || layer.cfg.pattern.n <= 0
                    || layer.cfg.pattern.n > layer.cfg.pattern.m,
                "corrupt model stream: layer ", l, " has invalid N:M ",
                "pattern ", layer.cfg.pattern.n, ":",
                layer.cfg.pattern.m);
        fatalIf(layer.cfg.d <= 0
                    || layer.cfg.d % layer.cfg.pattern.m != 0,
                "corrupt model stream: layer ", l, " has d=",
                layer.cfg.d, " not divisible by M=",
                layer.cfg.pattern.m);
        fatalIf(layer.codebook_id < 0
                    || static_cast<std::uint64_t>(layer.codebook_id)
                        >= n_books,
                "corrupt model stream: layer ", l, " references ",
                "codebook ", layer.codebook_id, " of ", n_books);

        const int index_bits = log2Ceil(
            static_cast<std::uint64_t>(layer.cfg.k));
        const MaskCodec codec(layer.cfg.pattern);
        fatalIf(ng * std::max(index_bits, 1) > r.remainingBits(),
                "corrupt model stream: layer ", l, " assignments (",
                ng, ") exceed the remaining stream");
        layer.assignments.resize(static_cast<std::size_t>(ng));
        for (auto &a : layer.assignments) {
            a = static_cast<std::int32_t>(
                r.get(std::max(index_bits, 1)));
        }
        const std::int64_t groups = ng * (layer.cfg.d
                                          / layer.cfg.pattern.m);
        fatalIf(groups * std::max(codec.bitsPerGroup(), 1)
                    > r.remainingBits(),
                "corrupt model stream: layer ", l, " mask codes (",
                groups, ") exceed the remaining stream");
        layer.mask_codes.resize(static_cast<std::size_t>(groups));
        for (auto &code : layer.mask_codes) {
            code = static_cast<std::uint32_t>(
                r.get(std::max(codec.bitsPerGroup(), 1)));
        }
        model.layers.push_back(std::move(layer));
    }
    return model;
}

} // namespace mvq::core
