/**
 * @file
 * ModelArtifact API tests: stream<->mvqi round-trip bit-identity
 * (reconstructed tensors and forward outputs memcmp-equal under the
 * active MVQ_SIMD ISA), borrowed-view vs owned-operand forward identity,
 * operand sharing/caching, image lifetime, stream files served from an
 * in-memory image, the `mvqi` CLI's option checks, the checked-in
 * golden fixture pinning MVQI format v2 byte-for-byte, and the v1
 * fixture every reader must reject.
 *
 * Regenerate the fixture (after an *intentional* format change — bump
 * kMvqiVersion!) with:  MVQ_WRITE_GOLDEN=1 ./model_artifact_test
 */

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"
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
                              art.packedOperands(i, groups), 1, 1);
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
    EXPECT_EQ(m->bakedGroups(0), 1);
    EXPECT_EQ(m->bakedGroups(1), 2);
    // The stream stores no conv geometry: its image bakes groups 1.
    EXPECT_EQ(s->bakedGroups(1), 1);
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
            for (const GroupedSparseMatrix &g : *ops) {
                // Borrowed mode, and all three CSR arrays point into the
                // image — no packGroupedRows at borrow time, no copies.
                EXPECT_TRUE(g.rows.row_ptr.borrowed()) << path;
                EXPECT_TRUE(g.rows.col_idx.borrowed()) << path;
                EXPECT_TRUE(g.rows.values.borrowed()) << path;
                EXPECT_TRUE(inImage(g.rows.row_ptr.data())) << path;
                EXPECT_TRUE(inImage(g.rows.col_idx.data())) << path;
                EXPECT_TRUE(inImage(g.rows.values.data())) << path;
                EXPECT_TRUE(g.rows.validated) << path;
            }
        }
    }
}

TEST_F(ModelArtifactTest, BorrowedVsOwnedForwardMemcmp)
{
    const auto art = io::openArtifact(image_path_);
    for (std::int64_t i = 0; i < 2; ++i) {
        const std::int64_t groups = art->bakedGroups(i);
        // Owned operand: packed fresh from the in-memory model.
        const CompressedLayer &cl =
            model_.layers[static_cast<std::size_t>(i)];
        nn::CompressedConv2d owned(
            cl, model_.codebooks[static_cast<std::size_t>(cl.codebook_id)],
            1, 1, groups);
        nn::CompressedConv2d borrowed(art->layerName(i),
                                      art->layerShape(i),
                                      art->packedOperands(i), 1, 1);
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
    // at the default options (every layer baked at groups 1).
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

TEST_F(ModelArtifactTest, NonBakedGroupCountFallsBackCorrectly)
{
    // Asking the MVQI artifact for a group count it did not bake is
    // correct (repacks from the materialized model), just not zero-copy.
    const auto s = io::openArtifact(stream_path_);
    const auto m = io::openArtifact(image_path_);
    EXPECT_TRUE(tensorsBitIdentical(forwardLayer(*s, 1, 1, 6),
                                    forwardLayer(*m, 1, 1, 6)));
    EXPECT_FALSE((*m->packedOperands(1, 1))[0].rows.values.borrowed());
}

/** A checked-in fixture under tests/data/. */
std::string
fixturePath(const char *name)
{
    return std::string(MVQ_SOURCE_DIR) + "/tests/data/" + name;
}

TEST(MvqiGolden, FixturePinsFormatV2)
{
    // Byte-for-byte lock on the checked-in v2 image. If this fails you
    // changed the on-disk layout: bump kMvqiVersion, update
    // docs/FORMAT.md, and regenerate with MVQ_WRITE_GOLDEN=1.
    const std::string golden_path = fixturePath("golden_v2.mvqi");
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
        << "MVQI writer output drifted from the v2 fixture";
}

TEST(MvqiGolden, FixtureLoadsAndForwards)
{
    // The fixture is not just bytes: it must open, validate, and serve
    // borrowed operands that forward bit-identically to a fresh image.
    const auto art = io::openArtifact(fixturePath("golden_v2.mvqi"));
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

TEST(MvqiGolden, V1FixtureIsRejected)
{
    // v1 images (tile and remainder sections beside the CSR) are not
    // read: the open fails with a typed error, and `mvqi verify` reports
    // it with exit status 2. Converting the model through the stream
    // format is the upgrade path.
    const std::string v1 = fixturePath("golden_v1.mvqi");
    expectOpenFails(v1, "unsupported MVQI version 1");
    std::string text;
    EXPECT_EQ(runMvqi("verify '" + v1 + "'", &text), 2) << text;
    EXPECT_NE(text.find("unsupported MVQI version 1"), std::string::npos)
        << text;
}

TEST(MvqiCli, ConvertAcceptsOnlyWholeGroupCountsAndKnownLayers)
{
    const std::string in = "'" + fixturePath("golden_v2.mvqi") + "'";
    const std::string out_path = tmpPath("mvq_cli_test.mvqi");
    const std::string convert = "convert " + in + " '" + out_path + "' ";
    std::string text;
    for (const char *bad : {"2x", "0", "-1", "1.5", "''"}) {
        EXPECT_EQ(runMvqi(convert + "--groups " + bad, &text), 2) << text;
        EXPECT_NE(text.find("--groups expects a whole number >= 1"),
                  std::string::npos)
            << text;
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

    ASSERT_EQ(runMvqi(convert + "--layer-groups conv1_grouped=2", &text), 0)
        << text;
    EXPECT_EQ(io::openArtifact(out_path)->bakedGroups(1), 2);
    std::remove(out_path.c_str());
}

} // namespace
} // namespace mvq::core
