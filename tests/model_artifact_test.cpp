/**
 * @file
 * ModelArtifact API tests: stream<->mvqi round-trip bit-identity
 * (reconstructed tensors and forward outputs memcmp-equal under the
 * active MVQ_SIMD ISA), borrowed-view vs owned-operand forward identity,
 * operand sharing/caching (one borrowed operand per layer at any group
 * count), image lifetime, stream files served from an in-memory image,
 * stream and MVQI operands byte-identical at full ResNet-18 and
 * MobileNet-v1 conv geometry, the `mvqi` CLI's option checks, the
 * checked-in golden fixture pinning MVQI format v3 byte-for-byte, and
 * the v1 and v2 fixtures every reader must reject.
 *
 * Regenerate the fixture (after an *intentional* format change — bump
 * kMvqiVersion!) with:  MVQ_WRITE_GOLDEN=1 ./model_artifact_test
 */

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"
#include "models/layer_spec.hpp"
#include "mvqi_test_util.hpp"
#include "nn/compressed_conv2d.hpp"
#include "tensor/ops.hpp"

#ifndef MVQ_SOURCE_DIR
#define MVQ_SOURCE_DIR "."
#endif
#ifndef MVQ_MVQI_CLI
#define MVQ_MVQI_CLI "mvqi"
#endif

namespace mvq::core {
namespace {

std::string
tmpPath(const char *name)
{
    return std::string("/tmp/") + name;
}

bool
tensorsBitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
        && std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float))
            == 0;
}

/** Expect openArtifact(path) to fail with a FatalError naming the file
 *  and mentioning `needle`. */
void
expectOpenFails(const std::string &path, const std::string &needle)
{
    try {
        (void)io::openArtifact(path);
        FAIL() << path << " opened; expected a FatalError mentioning '"
               << needle << "'";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(needle), std::string::npos) << msg;
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }
}

/** Forward an NCHW probe through layer `i` of an artifact. */
Tensor
forwardLayer(const io::ModelArtifact &art, std::int64_t i,
             std::int64_t groups, std::int64_t hw)
{
    const Shape ws = art.layerShape(i);
    nn::CompressedConv2d conv(art.layerName(i), ws,
                              art.packedOperands(i, groups), 1, 1, groups);
    Tensor x(Shape({2, ws.dim(1) * groups, hw, hw}));
    Rng rng(901 + i);
    x.fillNormal(rng, 0.0f, 1.0f);
    return conv.forward(x);
}

class ModelArtifactTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        model_ = makeGoldenModel();
        stream_path_ = tmpPath("mvq_artifact_test.mvq");
        image_path_ = tmpPath("mvq_artifact_test.mvqi");
        io::saveArtifact(model_, stream_path_,
                         io::ArtifactFormat::Stream);
        io::saveArtifact(model_, image_path_, io::ArtifactFormat::Mvqi,
                         goldenWriteOptions());
    }

    void
    TearDown() override
    {
        std::remove(stream_path_.c_str());
        std::remove(image_path_.c_str());
    }

    CompressedModel model_;
    std::string stream_path_;
    std::string image_path_;
};

TEST_F(ModelArtifactTest, OpenSniffsFormat)
{
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    EXPECT_EQ(s->format(), io::ArtifactFormat::Stream);
    EXPECT_EQ(m->format(), io::ArtifactFormat::Mvqi);
    EXPECT_EQ(s->layerCount(), 2);
    EXPECT_EQ(m->layerCount(), 2);
    EXPECT_EQ(m->layerName(1), "conv1_grouped");
    EXPECT_EQ(m->layerShape(1), Shape({16, 4, 3, 3}));
    EXPECT_EQ(m->layerGroups(0), 1);
    EXPECT_EQ(m->layerGroups(1), 2);
    // The stream stores no conv geometry: its image records groups 1.
    EXPECT_EQ(s->layerGroups(1), 1);
}

TEST_F(ModelArtifactTest, RoundTripReconstructionBitIdentity)
{
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    for (std::int64_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(tensorsBitIdentical(s->model().reconstructLayer(i),
                                        m->model().reconstructLayer(i)))
            << "layer " << i;
        EXPECT_TRUE(tensorsBitIdentical(model_.reconstructLayer(i),
                                        m->model().reconstructLayer(i)))
            << "layer " << i;
    }
    EXPECT_EQ(m->model().storage().totalBits(),
              model_.storage().totalBits());
}

TEST_F(ModelArtifactTest, RoundTripForwardBitIdentity)
{
    // Forward outputs from the mapped image must memcmp-equal the stream
    // path under the active ISA (covers every MVQ_SIMD via the CI
    // matrix), for both the plain and the grouped conv layer.
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 0, 1, 6),
                                    forwardLayer(*m, 0, 1, 6)));
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 1, 2, 6),
                                    forwardLayer(*m, 1, 2, 6)));
}

TEST_F(ModelArtifactTest, BorrowedViewsAliasTheImageZeroCopy)
{
    // The mapped file, and the image a stream was built into at open.
    for (const std::string &path : {image_path_, stream_path_}) {
        const auto art = io::openArtifact(path);
        const auto *base = art->view().data();
        const auto *end = base + art->view().size();
        auto inImage = [&](const void *p) {
            const auto *b = static_cast<const std::uint8_t *>(p);
            return b >= base && b <= end;
        };
        for (std::int64_t i = 0; i < art->layerCount(); ++i) {
            const io::SharedOperands ops = art->packedOperands(i);
            ASSERT_EQ(ops->size(), 1u) << path;
            // Borrowed mode, and all three CSR arrays point into the
            // image — no pack at borrow time, no copies.
            const SparseRowMatrix &op = ops->front().rows;
            EXPECT_EQ(op.rows, art->layerShape(i).dim(0)) << path;
            EXPECT_TRUE(op.row_ptr.borrowed()) << path;
            EXPECT_TRUE(op.col_idx.borrowed()) << path;
            EXPECT_TRUE(op.values.borrowed()) << path;
            EXPECT_TRUE(inImage(op.row_ptr.data())) << path;
            EXPECT_TRUE(inImage(op.col_idx.data())) << path;
            EXPECT_TRUE(inImage(op.values.data())) << path;
            EXPECT_TRUE(op.validated) << path;
        }
    }
}

TEST_F(ModelArtifactTest, BorrowedVsOwnedForwardMemcmp)
{
    const auto art = io::openArtifact(image_path_);
    for (std::int64_t i = 0; i < 2; ++i) {
        const std::int64_t groups = art->layerGroups(i);
        // Owned operand: packed fresh from the in-memory model.
        const CompressedLayer &cl =
            model_.layers[static_cast<std::size_t>(i)];
        nn::CompressedConv2d owned(
            cl, model_.codebooks[static_cast<std::size_t>(cl.codebook_id)],
            1, 1, groups);
        nn::CompressedConv2d borrowed(art->layerName(i),
                                      art->layerShape(i),
                                      art->packedOperands(i), 1, 1, groups);
        Tensor x(Shape({1, art->layerShape(i).dim(1) * groups, 7, 7}));
        Rng rng(31 + i);
        x.fillNormal(rng, 0.0f, 1.0f);
        EXPECT_TRUE(tensorsBitIdentical(owned.forward(x),
                                        borrowed.forward(x)))
            << "layer " << i;
        EXPECT_DOUBLE_EQ(owned.density(), borrowed.density());
    }
}

TEST_F(ModelArtifactTest, PackedOperandsAreCachedAndShared)
{
    const auto art = io::openArtifact(image_path_);
    const io::SharedOperands a = art->packedOperands(0);
    const io::SharedOperands b = art->packedOperands(0);
    EXPECT_EQ(a.get(), b.get()) << "cache must hand out one operand set";

    // N conv instances share the one set through the injected ctor.
    nn::CompressedConv2d c1(art->layerName(0), art->layerShape(0), a, 1, 1);
    nn::CompressedConv2d c2(art->layerName(0), art->layerShape(0),
                            c1.packedOperands(), 1, 1);
    EXPECT_EQ(c1.packedOperands().get(), c2.packedOperands().get());
}

TEST_F(ModelArtifactTest, SharedOperandsOutliveTheArtifact)
{
    // The aliasing shared_ptr keeps the mapping alive after the artifact
    // handle is gone.
    io::SharedOperands ops;
    Shape ws;
    std::string name;
    {
        const auto art = io::openArtifact(image_path_);
        ops = art->packedOperands(0);
        ws = art->layerShape(0);
        name = art->layerName(0);
    }
    nn::CompressedConv2d conv(name, ws, ops, 1, 1);
    Tensor x(Shape({1, ws.dim(1), 5, 5}));
    Rng rng(5);
    x.fillNormal(rng, 0.0f, 1.0f);
    EXPECT_GT(conv.forward(x).numel(), 0);
}

TEST_F(ModelArtifactTest, StreamServesItsOwnInMemoryImage)
{
    const auto s = io::openArtifact(stream_path_);
    EXPECT_FALSE(s->mapped());
    // The in-memory image is exactly what the writer emits for the model
    // at the default options (every layer recorded at groups 1).
    const io::MvqiBytes want = io::buildMvqiImage(model_);
    ASSERT_EQ(s->view().size(), static_cast<std::int64_t>(want.size()));
    EXPECT_EQ(std::memcmp(s->view().data(), want.data(), want.size()), 0);

    // Borrowed from the stream's image vs borrowed from the mapped file.
    const auto m = io::openArtifact(image_path_);
    EXPECT_TRUE(m->mapped());
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 0, 1, 5),
                                    forwardLayer(*m, 0, 1, 5)));
}

TEST_F(ModelArtifactTest, StreamWithNameOverMvqiLimitFailsToOpen)
{
    // The stream format allows names up to 65535 bytes; serving it
    // through an MVQI image caps them at 63.
    CompressedModel named = model_;
    named.layers[0].name = std::string(io::kMvqiNameBytes - 1, 'a');
    io::saveArtifact(named, stream_path_, io::ArtifactFormat::Stream);
    EXPECT_EQ(io::openArtifact(stream_path_)->layerName(0),
              named.layers[0].name);

    named.layers[0].name = std::string(io::kMvqiNameBytes, 'a');
    io::saveArtifact(named, stream_path_, io::ArtifactFormat::Stream);
    expectOpenFails(stream_path_, "MVQI limit of 63 bytes");
}

TEST_F(ModelArtifactTest, StreamWithOutOfRangeIndicesFailsToOpen)
{
    // A stream is packed as soon as it is opened, so every index the pack
    // walk follows is checked first: FatalError, never a read out of
    // bounds.
    CompressedModel bad = model_;
    bad.layers[0].codebook_id = 1; // 8 codewords; layer 0 assigns up to 15
    io::saveArtifact(bad, stream_path_, io::ArtifactFormat::Stream);
    expectOpenFails(stream_path_, "outside its 8-codeword codebook");

    bad = model_;
    bad.layers[0].weight_shape = Shape({32, 2, 2, 2}); // 16 subvectors
    io::saveArtifact(bad, stream_path_, io::ArtifactFormat::Stream);
    expectOpenFails(stream_path_, "8 assignments");
}

TEST_F(ModelArtifactTest, LayerGroupsMustNameALayer)
{
    io::MvqiWriteOptions opts = goldenWriteOptions();
    opts.layer_groups["conv1_grupped"] = 2;
    try {
        (void)io::buildMvqiImage(model_, opts);
        FAIL() << "a misspelled layer_groups key was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("'conv1_grupped'"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(ModelArtifactTest, EveryGroupCountBorrows)
{
    // The grouped layer opened from the stream (which records groups 1)
    // and from the MVQI image (which records 2), both run at groups 2:
    // each serves its one CSR borrowed from its image, and the forwards
    // agree bit for bit.
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    for (const auto *art : {s.get(), m.get()}) {
        const io::SharedOperands ops = art->packedOperands(1, 2);
        ASSERT_EQ(ops->size(), 1u);
        EXPECT_TRUE(ops->front().rows.row_ptr.borrowed());
        EXPECT_TRUE(ops->front().rows.col_idx.borrowed());
        EXPECT_TRUE(ops->front().rows.values.borrowed());
        // Every dividing group count is the same borrowed operand.
        for (const std::int64_t groups : {0, 1, 4, 8, 16})
            EXPECT_EQ(art->packedOperands(1, groups).get(), ops.get());
        // A count that does not divide the 16 output channels is refused.
        for (const std::int64_t groups : {3, -1}) {
            try {
                (void)art->packedOperands(1, groups);
                FAIL() << "groups " << groups << " accepted";
            } catch (const FatalError &e) {
                EXPECT_NE(std::string(e.what()).find("do not divide"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 1, 2, 6),
                                    forwardLayer(*m, 1, 2, 6)));
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 1, 1, 6),
                                    forwardLayer(*m, 1, 1, 6)));
}

/**
 * A compressed model with the conv geometry of `spec` (every layer that
 * splits into d=16 subvectors; the 1000-way head does not) and random
 * 4:16 symbols from a fixed seed. `opts` records each conv's groups.
 */
CompressedModel
synthesizeFullGeometry(const models::ModelSpec &spec,
                       io::MvqiWriteOptions *opts)
{
    CompressedModel model;
    std::mt19937 rng(12345);
    Codebook cb;
    cb.qbits = 8;
    cb.scale = 1.0f / 64.0f;
    cb.codewords = Tensor(Shape({256, 16}));
    for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
        cb.codewords[i] =
            static_cast<float>(static_cast<int>(rng() % 255) - 127)
            * cb.scale;
    model.codebooks.push_back(std::move(cb));

    const MaskCodec codec(NmPattern{4, 16});
    for (const models::ConvLayerSpec &c : spec.convs) {
        if (c.weightCount() % 16 != 0)
            continue;
        CompressedLayer l;
        l.name = c.name;
        l.weight_shape =
            Shape({c.out_c, c.in_c / c.groups, c.kernel, c.kernel});
        l.cfg.k = 256;
        l.cfg.d = 16;
        l.cfg.pattern = NmPattern{4, 16};
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 2 * c.macs();
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        for (std::int64_t j = 0; j < ng; ++j) {
            l.assignments.push_back(static_cast<std::int32_t>(rng() % 256));
            l.mask_codes.push_back(
                static_cast<std::uint32_t>(rng() % codec.codeCount()));
        }
        opts->layer_groups[l.name] = c.groups;
        model.layers.push_back(std::move(l));
    }
    return model;
}

template <typename T>
bool
sameArray(const OperandArray<T> &x, const OperandArray<T> &y)
{
    return x.size() == y.size()
        && (x.empty()
            || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

TEST(ModelArtifactGeometry, StreamAndMvqiOperandsAreByteIdentical)
{
    // The stream open decodes and packs every layer; the MVQI open
    // borrows what the writer packed. At full conv geometry (MobileNet-v1's
    // depthwise layers are the grouped case) both give the same CSR
    // bytes, and the image records each conv's groups.
    for (const models::ModelSpec &spec :
         {models::mobilenetV1Spec(), models::resnet18Spec()}) {
        SCOPED_TRACE(spec.name);
        io::MvqiWriteOptions opts;
        const CompressedModel model = synthesizeFullGeometry(spec, &opts);
        const std::string stream_path =
            tmpPath(("mvq_geometry_" + spec.name + ".mvq").c_str());
        const std::string mvqi_path =
            tmpPath(("mvq_geometry_" + spec.name + ".mvqi").c_str());
        io::saveArtifact(model, stream_path, io::ArtifactFormat::Stream);
        io::saveArtifact(model, mvqi_path, io::ArtifactFormat::Mvqi, opts);
        const auto s = io::openArtifact(stream_path);
        const auto m = io::openArtifact(mvqi_path);
        ASSERT_EQ(s->layerCount(),
                  static_cast<std::int64_t>(model.layers.size()));
        ASSERT_EQ(m->layerCount(), s->layerCount());
        bool grouped = false;
        for (std::int64_t i = 0; i < s->layerCount(); ++i) {
            const std::int64_t groups = opts.layer_groups.at(s->layerName(i));
            grouped = grouped || groups > 1;
            EXPECT_EQ(s->layerGroups(i), 1);
            EXPECT_EQ(m->layerGroups(i), groups) << s->layerName(i);
            const SparseRowMatrix &x =
                s->packedOperands(i, groups)->front().rows;
            const SparseRowMatrix &y =
                m->packedOperands(i, groups)->front().rows;
            EXPECT_TRUE(sameArray(x.row_ptr, y.row_ptr)
                        && sameArray(x.col_idx, y.col_idx)
                        && sameArray(x.values, y.values))
                << s->layerName(i);
        }
        EXPECT_EQ(grouped, spec.name == models::mobilenetV1Spec().name);
        std::remove(stream_path.c_str());
        std::remove(mvqi_path.c_str());
    }
}

/** A checked-in fixture under tests/data/. */
std::string
fixturePath(const char *name)
{
    return std::string(MVQ_SOURCE_DIR) + "/tests/data/" + name;
}

TEST(MvqiGolden, FixturePinsFormatV3)
{
    // Byte-for-byte lock on the checked-in v3 image. If this fails you
    // changed the on-disk layout: bump kMvqiVersion, update
    // docs/FORMAT.md, and regenerate with MVQ_WRITE_GOLDEN=1.
    const std::string golden_path = fixturePath("golden_v3.mvqi");
    const io::MvqiBytes image =
        io::buildMvqiImage(makeGoldenModel(), goldenWriteOptions());

    if (env::isSet("MVQ_WRITE_GOLDEN")) {
        std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out.write(reinterpret_cast<const char *>(image.data()),
                  static_cast<std::streamsize>(image.size()));
        GTEST_SKIP() << "regenerated " << golden_path;
    }

    std::ifstream in(golden_path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing fixture " << golden_path;
    const std::vector<std::uint8_t> golden(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    ASSERT_EQ(image.size(), golden.size());
    EXPECT_EQ(std::memcmp(image.data(), golden.data(), image.size()), 0)
        << "MVQI writer output drifted from the v3 fixture";
}

TEST(MvqiGolden, FixtureLoadsAndForwards)
{
    // The fixture is not just bytes: it must open, validate, and serve
    // borrowed operands that forward bit-identically to a fresh image.
    const auto art = io::openArtifact(fixturePath("golden_v3.mvqi"));
    ASSERT_EQ(art->layerCount(), 2);

    const std::string fresh_path = tmpPath("mvq_golden_fresh.mvqi");
    io::saveArtifact(makeGoldenModel(), fresh_path,
                     io::ArtifactFormat::Mvqi, goldenWriteOptions());
    const auto fresh = io::openArtifact(fresh_path);
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*art, 0, 1, 6),
                                    forwardLayer(*fresh, 0, 1, 6)));
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*art, 1, 2, 6),
                                    forwardLayer(*fresh, 1, 2, 6)));
    std::remove(fresh_path.c_str());
}

/** Run the `mvqi` CLI; returns its exit status, `out` gets its output. */
int
runMvqi(const std::string &args, std::string *out)
{
    const std::string cmd = "'" MVQ_MVQI_CLI "' " + args + " 2>&1";
    FILE *p = popen(cmd.c_str(), "r");
    if (p == nullptr)
        return -1;
    out->clear();
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p) != nullptr)
        *out += buf;
    const int st = pclose(p);
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

TEST(MvqiGolden, OlderFixturesAreRejected)
{
    // v1 images (tile and remainder sections beside the CSR) and v2
    // images (one CSR per conv group) are not read: the open fails with
    // a typed error naming the version, and `mvqi verify` reports it
    // with exit status 2. Converting the model through the stream format
    // is the upgrade path.
    for (const char *version : {"1", "2"}) {
        const std::string path =
            fixturePath(("golden_v" + std::string(version) + ".mvqi").c_str());
        const std::string want =
            std::string("unsupported MVQI version ") + version;
        expectOpenFails(path, want);
        std::string text;
        EXPECT_EQ(runMvqi("verify '" + path + "'", &text), 2) << text;
        EXPECT_NE(text.find(want), std::string::npos) << text;
    }
}

TEST(MvqiCli, ConvertAcceptsOnlyWholeGroupCountsAndKnownLayers)
{
    const std::string in = "'" + fixturePath("golden_v3.mvqi") + "'";
    const std::string out_path = tmpPath("mvq_cli_test.mvqi");
    const std::string convert = "convert " + in + " '" + out_path + "' ";
    std::string text;
    for (const char *bad : {"2x", "0", "-1", "1.5", "''"}) {
        EXPECT_EQ(runMvqi(convert + "--layer-groups conv1_grouped=" + bad,
                          &text),
                  2)
            << text;
        EXPECT_NE(text.find("--layer-groups expects a whole number >= 1"),
                  std::string::npos)
            << text;
    }

    EXPECT_EQ(runMvqi(convert + "--layer-groups conv1_grupped=2", &text), 2)
        << text;
    EXPECT_NE(text.find("'conv1_grupped'"), std::string::npos) << text;

    // A group count must divide the layer's 16 output channels.
    EXPECT_EQ(runMvqi(convert + "--layer-groups conv1_grouped=3", &text), 2)
        << text;
    EXPECT_NE(text.find("invalid conv groups 3"), std::string::npos) << text;

    // One count for every layer is not an option: it is wrong for a net
    // that mixes group counts.
    EXPECT_EQ(runMvqi(convert + "--groups 2", &text), 1) << text;
    EXPECT_NE(text.find("unknown option --groups"), std::string::npos)
        << text;

    ASSERT_EQ(runMvqi(convert + "--layer-groups conv1_grouped=4", &text), 0)
        << text;
    EXPECT_EQ(io::openArtifact(out_path)->layerGroups(0), 1);
    EXPECT_EQ(io::openArtifact(out_path)->layerGroups(1), 4);
    std::remove(out_path.c_str());
}

TEST(MvqiCli, ConvertKeepsRecordedGroups)
{
    // MVQI -> MVQI without flags records what the input records, so the
    // output is the input byte for byte.
    const std::string golden = fixturePath("golden_v3.mvqi");
    const std::string out_path = tmpPath("mvq_cli_keep.mvqi");
    std::string text;
    ASSERT_EQ(runMvqi("convert '" + golden + "' '" + out_path + "'", &text),
              0)
        << text;
    const auto out = io::openArtifact(out_path);
    EXPECT_EQ(out->layerGroups(0), 1);
    EXPECT_EQ(out->layerGroups(1), 2);
    const auto art = io::openArtifact(golden);
    ASSERT_EQ(out->view().size(), art->view().size());
    EXPECT_EQ(std::memcmp(out->view().data(), art->view().data(),
                          static_cast<std::size_t>(art->view().size())),
              0);
    std::remove(out_path.c_str());
}

} // namespace
} // namespace mvq::core
