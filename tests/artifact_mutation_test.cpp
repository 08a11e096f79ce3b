/**
 * @file
 * Seeded structure-aware mutation of artifact files. Each case starts
 * from a small valid model (two chained layers, the first a 2-group
 * conv; one quantized and one fp32 codebook) and mutates either its MVQI
 * image or its bit-packed `.mvq` stream:
 *
 *  - MVQI: header, codebook-TOC, layer-TOC and embedded-operand fields
 *    set to boundary values (0, 1, -1, the type's extremes, the image
 *    size and its neighbours, the field's value +-1 and +-64), and random
 *    byte flips inside one section (header, a TOC, or any array section);
 *  - stream: random bit flips anywhere in the file.
 *
 * Every mutant goes the full untrusted-input path: openArtifact, borrow
 * every layer, build the CompressedNet and forward a fixed input. It must
 * either succeed or throw a typed FatalError. A PanicError, any other
 * exception, a crash or a sanitizer report fails the case.
 *
 * ctest runs the pinned seeds 1-150 per target (see main()). A longer
 * local run takes the first seed and the case count on the command line,
 *
 *     ./build/artifact_mutation_test --seed 1000 --iters 20000
 *
 * and every failure names its target and seed, so it can join the pinned
 * list below once fixed.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "core/io/model_artifact.hpp"
#include "core/mask_codec.hpp"
#include "core/serialize.hpp"
#include "nn/compressed_net.hpp"
#include "seed_args.hpp"

namespace mvq::core {
namespace {

/** The seeds this run draws its cases from (set by main()). */
std::vector<std::uint64_t> g_seeds;

/** Seeds that once found a fault; they run in every invocation, on both
 *  targets. 116384 (MVQI): a layer's d so large that MvqiView's
 *  ng * d/M overflowed (UBSan). */
const std::vector<std::uint64_t> kPinnedSeeds = {116384};

/** A layer with deterministic symbols (no float computation). */
CompressedLayer
layer(const char *name, Shape shape, NmPattern pattern, std::int64_t k,
      std::int32_t codebook_id, std::uint32_t mul)
{
    CompressedLayer l;
    l.name = name;
    l.weight_shape = shape;
    l.cfg.k = k;
    l.cfg.d = 16;
    l.cfg.pattern = pattern;
    l.cfg.grouping = Grouping::OutputChannelWise;
    l.cfg.codebook_bits = 8;
    l.codebook_id = codebook_id;
    l.dense_flops = 2 * shape.numel();
    const std::int64_t ng = shape.numel() / l.cfg.d;
    const MaskCodec codec(pattern);
    for (std::int64_t j = 0; j < ng; ++j)
        l.assignments.push_back(static_cast<std::int32_t>((j * 5 + 1) % k));
    const std::int64_t codes = ng * (l.cfg.d / pattern.m);
    for (std::int64_t j = 0; j < codes; ++j)
        l.mask_codes.push_back(static_cast<std::uint32_t>(
            (j * mul + 3u) % codec.codeCount()));
    return l;
}

CompressedModel
seedModel()
{
    CompressedModel model;
    Codebook q;
    q.qbits = 8;
    q.scale = 0.25f;
    q.codewords = Tensor(Shape({16, 16}));
    for (std::int64_t i = 0; i < q.codewords.numel(); ++i)
        q.codewords[i] = static_cast<float>(i % 13 - 6) * 0.25f;
    model.codebooks.push_back(std::move(q));
    Codebook f; // fp32 codewords
    f.codewords = Tensor(Shape({8, 16}));
    for (std::int64_t i = 0; i < f.codewords.numel(); ++i)
        f.codewords[i] = static_cast<float>((i * 7) % 23 - 11) * 0.125f;
    model.codebooks.push_back(std::move(f));
    // The grouped layer comes first, so the chain fits at either group
    // count: 16 input channels in 2 groups of 8 from an MVQI image, 8
    // from a stream (which records groups 1).
    model.layers.push_back(
        layer("a_grouped", Shape({16, 8, 3, 3}), NmPattern{2, 4}, 8, 1, 37u));
    model.layers.push_back(
        layer("b", Shape({16, 16, 3, 3}), NmPattern{4, 16}, 16, 0, 131u));
    return model;
}

io::MvqiWriteOptions
seedWriteOptions()
{
    io::MvqiWriteOptions opts;
    opts.layer_groups["a_grouped"] = 2;
    return opts;
}

const std::vector<std::uint8_t> &
validImage()
{
    static const std::vector<std::uint8_t> img = [] {
        const io::MvqiBytes b =
            io::buildMvqiImage(seedModel(), seedWriteOptions());
        return std::vector<std::uint8_t>(b.begin(), b.end());
    }();
    return img;
}

const std::vector<std::uint8_t> &
validStream()
{
    static const std::vector<std::uint8_t> s = serializeModel(seedModel());
    return s;
}

/** A scratch file per process, so parallel runs do not collide. */
std::string
scratchPath(const char *ext)
{
    return "/tmp/mvq_mutation_" + std::to_string(::getpid()) + ext;
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &b)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(b.data()),
              static_cast<std::streamsize>(b.size()));
}

/** Open, borrow every layer, build the net and forward a fixed 6x6
 *  input over the channels it takes. Returns normally or throws; the
 *  caller sorts the exception. */
void
loadAndForward(const std::string &path)
{
    const auto art = io::openArtifact(path);
    for (std::int64_t i = 0; i < art->layerCount(); ++i)
        (void)art->packedOperands(i, art->layerGroups(i));
    const nn::CompressedNet net(*art);
    Tensor x(Shape({1, net.inChannels(), 6, 6}));
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x[i] = static_cast<float>(i % 9 - 4) * 0.5f;
    (void)net.forward(x);
}

/** How one case ended. */
enum class Outcome { Loaded, Rejected };

/** Run one mutant; a non-FatalError exception fails the test, naming
 *  `what` (target and seed). */
Outcome
runCase(const std::string &path, const std::vector<std::uint8_t> &bytes,
        const std::string &what)
{
    writeBytes(path, bytes);
    try {
        loadAndForward(path);
        return Outcome::Loaded;
    } catch (const FatalError &) {
        return Outcome::Rejected;
    } catch (const PanicError &e) {
        ADD_FAILURE() << what << ": PanicError: " << e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": untyped exception: " << e.what();
    }
    return Outcome::Rejected;
}

// ---------------------------------------------------------- MVQI fields

/** One fixed-width little-endian field of the image. */
struct Field
{
    std::size_t off;
    std::size_t width; //!< 4 or 8 bytes
};

template <typename T>
Field
fieldAt(std::size_t base, std::size_t off)
{
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    return {base + off, sizeof(T)};
}

#define MVQ_FIELD(base, S, member) \
    fieldAt<decltype(S::member)>((base), offsetof(S, member))

void
addArray(std::vector<Field> &f, std::size_t base)
{
    f.push_back(MVQ_FIELD(base, io::MvqiArray, off));
    f.push_back(MVQ_FIELD(base, io::MvqiArray, count));
}

/** Every header, TOC and embedded-operand field of `img`. */
std::vector<Field>
imageFields(const std::vector<std::uint8_t> &img)
{
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    std::vector<Field> f = {
        MVQ_FIELD(0, io::MvqiHeader, magic),
        MVQ_FIELD(0, io::MvqiHeader, version),
        MVQ_FIELD(0, io::MvqiHeader, header_bytes),
        MVQ_FIELD(0, io::MvqiHeader, flags),
        MVQ_FIELD(0, io::MvqiHeader, n_codebooks),
        MVQ_FIELD(0, io::MvqiHeader, n_layers),
        MVQ_FIELD(0, io::MvqiHeader, codebook_toc_off),
        MVQ_FIELD(0, io::MvqiHeader, layer_toc_off),
        MVQ_FIELD(0, io::MvqiHeader, file_bytes),
    };
    for (std::uint32_t i = 0; i < h.n_codebooks; ++i) {
        const std::size_t b = h.codebook_toc_off + i * sizeof(io::MvqiCodebook);
        f.push_back(MVQ_FIELD(b, io::MvqiCodebook, k));
        f.push_back(MVQ_FIELD(b, io::MvqiCodebook, d));
        f.push_back(MVQ_FIELD(b, io::MvqiCodebook, qbits));
        f.push_back(MVQ_FIELD(b, io::MvqiCodebook, codewords_off));
    }
    for (std::uint32_t i = 0; i < h.n_layers; ++i) {
        const std::size_t b = h.layer_toc_off + i * sizeof(io::MvqiLayer);
        for (std::size_t d = 0; d < 4; ++d)
            f.push_back(fieldAt<std::int64_t>(
                b, offsetof(io::MvqiLayer, shape) + d * 8));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, k));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, d));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, n));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, m));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, grouping));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, codebook_bits));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, codebook_id));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, groups));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, dense_flops));
        f.push_back(MVQ_FIELD(b, io::MvqiLayer, ng));
        addArray(f, b + offsetof(io::MvqiLayer, assignments));
        addArray(f, b + offsetof(io::MvqiLayer, mask_codes));
        const std::size_t op = b + offsetof(io::MvqiLayer, operand);
        f.push_back(MVQ_FIELD(op, io::MvqiOperand, rows));
        f.push_back(MVQ_FIELD(op, io::MvqiOperand, cols));
        addArray(f, op + offsetof(io::MvqiOperand, row_ptr));
        addArray(f, op + offsetof(io::MvqiOperand, col_idx));
        addArray(f, op + offsetof(io::MvqiOperand, values));
    }
    return f;
}

#undef MVQ_FIELD

/** [begin, end) byte ranges of every section of `img`. */
std::vector<std::pair<std::size_t, std::size_t>>
imageSections(const std::vector<std::uint8_t> &img)
{
    const io::MvqiView v(img.data(), static_cast<std::int64_t>(img.size()),
                         "seed image");
    const io::MvqiHeader &h = v.header();
    std::vector<std::pair<std::size_t, std::size_t>> s = {
        {0, sizeof(io::MvqiHeader)},
        {h.codebook_toc_off,
         h.codebook_toc_off + h.n_codebooks * sizeof(io::MvqiCodebook)},
        {h.layer_toc_off, h.layer_toc_off + h.n_layers * sizeof(io::MvqiLayer)},
    };
    auto add = [&](const io::MvqiArray &a, std::size_t elem) {
        if (a.count > 0)
            s.emplace_back(a.off, a.off + static_cast<std::size_t>(a.count)
                                              * elem);
    };
    for (std::int64_t i = 0; i < v.codebookCount(); ++i) {
        const io::MvqiCodebook &c = v.codebook(i);
        s.emplace_back(c.codewords_off,
                       c.codewords_off
                           + static_cast<std::size_t>(c.k * c.d) * 4);
    }
    for (std::int64_t i = 0; i < v.layerCount(); ++i) {
        const io::MvqiLayer &l = v.layer(i);
        add(l.assignments, 4);
        add(l.mask_codes, 4);
        add(l.operand.row_ptr, 8);
        add(l.operand.col_idx, 4);
        add(l.operand.values, 4);
    }
    return s;
}

/** A boundary value for `f`, whose current value is `cur`. */
std::uint64_t
boundaryValue(const Field &f, std::uint64_t cur, std::size_t image_bytes,
              Rng &rng)
{
    const bool wide = f.width == 8;
    const std::uint64_t umax = wide ? ~0ull : 0xFFFFFFFFull;
    const std::uint64_t smax = wide ? 0x7FFFFFFFFFFFFFFFull : 0x7FFFFFFFull;
    const std::uint64_t picks[] = {
        0,
        1,
        2,
        umax,                    // -1 signed, the maximum unsigned
        smax,                    // the signed maximum
        smax + 1,                // the signed minimum
        cur + 1,
        cur - 1,
        cur + 64,
        cur - 64,
        cur * 2,
        image_bytes,
        image_bytes - 1,
        image_bytes + 64,
        static_cast<std::uint64_t>(rng.intIn(0, 255)),
    };
    return picks[rng.index(std::size(picks))] & umax;
}

std::uint64_t
readField(const std::vector<std::uint8_t> &b, const Field &f)
{
    std::uint64_t v = 0;
    std::memcpy(&v, b.data() + f.off, f.width);
    return v;
}

void
writeField(std::vector<std::uint8_t> &b, const Field &f, std::uint64_t v)
{
    std::memcpy(b.data() + f.off, &v, f.width);
}

/** The seeded mutant of the MVQI image: 1-3 mutations, each a boundary
 *  value in one field or 1-4 byte flips inside one section. */
std::vector<std::uint8_t>
mvqiMutant(std::uint64_t seed)
{
    const std::vector<std::uint8_t> &img = validImage();
    static const std::vector<Field> fields = imageFields(img);
    static const auto sections = imageSections(img);
    Rng rng(seed);
    std::vector<std::uint8_t> b = img;
    const std::int64_t mutations = rng.intIn(1, 3);
    for (std::int64_t m = 0; m < mutations; ++m) {
        if (rng.intIn(0, 1) == 0) {
            const Field &f = fields[rng.index(fields.size())];
            writeField(b, f,
                       boundaryValue(f, readField(b, f), b.size(), rng));
        } else {
            const auto &[lo, hi] = sections[rng.index(sections.size())];
            const std::int64_t flips = rng.intIn(1, 4);
            for (std::int64_t k = 0; k < flips; ++k)
                b[lo + rng.index(hi - lo)] ^=
                    static_cast<std::uint8_t>(rng.intIn(1, 255));
        }
    }
    return b;
}

/** The seeded mutant of the stream: 1-4 bit flips anywhere. */
std::vector<std::uint8_t>
streamMutant(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> b = validStream();
    const std::int64_t flips = rng.intIn(1, 4);
    for (std::int64_t k = 0; k < flips; ++k)
        b[rng.index(b.size())] ^=
            static_cast<std::uint8_t>(1u << rng.intIn(0, 7));
    return b;
}

/** Run every seed of this invocation plus the pinned ones. */
template <typename Mutant>
void
sweep(const char *target, const char *ext, Mutant mutant)
{
    std::vector<std::uint64_t> seeds = g_seeds;
    seeds.insert(seeds.end(), kPinnedSeeds.begin(), kPinnedSeeds.end());
    const std::string path = scratchPath(ext);
    std::size_t loaded = 0;
    for (const std::uint64_t seed : seeds) {
        const std::string what =
            std::string(target) + " seed " + std::to_string(seed);
        loaded += runCase(path, mutant(seed), what) == Outcome::Loaded;
        if (::testing::Test::HasFailure())
            break;
    }
    std::remove(path.c_str());
    std::printf("%s: %zu mutants, %zu loaded, %zu rejected\n", target,
                seeds.size(), loaded, seeds.size() - loaded);
    // Both outcomes must occur over a sweep, or it tests only one path.
    if (seeds.size() >= 50) {
        EXPECT_GT(loaded, 0u) << target << ": no mutant loaded";
        EXPECT_LT(loaded, seeds.size()) << target << ": no mutant failed";
    }
}

TEST(ArtifactMutation, SeedModelLoadsAndForwards)
{
    const std::string path = scratchPath(".mvqi");
    writeBytes(path, validImage());
    EXPECT_NO_THROW(loadAndForward(path));
    EXPECT_EQ(io::openArtifact(path)->layerGroups(0), 2);
    writeBytes(path, validStream());
    EXPECT_NO_THROW(loadAndForward(path));
    std::remove(path.c_str());
}

TEST(ArtifactMutation, MvqiMutantsLoadOrFailTyped)
{
    sweep("mvqi", ".mvqi", mvqiMutant);
}

TEST(ArtifactMutation, StreamMutantsLoadOrFailTyped)
{
    sweep("stream", ".mvq", streamMutant);
}

} // namespace
} // namespace mvq::core

/** gtest's own flags, plus --seed/--iters (seed_args.hpp) over the
 *  pinned seeds 1-150. */
int
main(int argc, char **argv)
{
    testing::InitGoogleTest(&argc, argv);
    if (!mvq::parseSeedArgs(argc, argv, 150, &mvq::core::g_seeds))
        return 2;
    return RUN_ALL_TESTS();
}
