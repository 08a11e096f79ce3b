/**
 * @file
 * MVQI corruption corpus: every malformed image must fail with a clear
 * FatalError (or, for benign payload flips, load correctly) — never
 * undefined behaviour, never a crash, never an escaped PanicError. The
 * targeted cases pin one diagnostic each (truncation, bad magic, wrong
 * version, misaligned section, out-of-range TOC, inconsistent counts,
 * operand geometry that disagrees with its layer, semantically corrupt
 * operands); the deterministic byte-flip sweep is the fuzz-style pass
 * the ASan/UBSan CI job runs over.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"
#include "mvqi_test_util.hpp"
#include "nn/compressed_conv2d.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

const char *kPath = "/tmp/mvq_corruption_test.mvqi";

std::vector<std::uint8_t>
validImage()
{
    static const io::MvqiBytes built =
        io::buildMvqiImage(makeGoldenModel(), goldenWriteOptions());
    return {built.begin(), built.end()};
}

void
writeBytes(const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(kPath, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Open + validate + borrow + forward — the full untrusted-input path. */
void
loadAndUse()
{
    const auto art = io::openArtifact(kPath);
    for (std::int64_t i = 0; i < art->layerCount(); ++i) {
        const io::SharedOperands ops = art->packedOperands(i);
        const Shape ws = art->layerShape(i);
        nn::CompressedConv2d conv(art->layerName(i), ws, ops, 1, 0);
        Tensor x(Shape({1,
                        ws.dim(1) * static_cast<std::int64_t>(ops->size()),
                        5, 5}));
        Rng rng(3);
        x.fillNormal(rng, 0.0f, 1.0f);
        conv.forward(x);
    }
}

/** Expect a FatalError whose message mentions `needle`. */
void
expectFatal(const std::string &needle)
{
    try {
        loadAndUse();
        FAIL() << "corrupt image loaded; expected FatalError mentioning '"
               << needle << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "got: " << e.what();
    }
}

class MvqiCorruptionTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        std::remove(kPath);
        fault::resetAll();
    }

    /** Patch `bytes` of the valid image at `off` and write it out. */
    void
    patch(std::size_t off, const void *p, std::size_t n)
    {
        std::vector<std::uint8_t> img = validImage();
        ASSERT_LT(off + n, img.size());
        std::memcpy(img.data() + off, p, n);
        writeBytes(img);
    }

    void
    patchU32(std::size_t off, std::uint32_t v)
    {
        patch(off, &v, sizeof(v));
    }

    void
    patchU64(std::size_t off, std::uint64_t v)
    {
        patch(off, &v, sizeof(v));
    }
};

TEST_F(MvqiCorruptionTest, ValidImagePasses)
{
    writeBytes(validImage());
    EXPECT_NO_THROW(loadAndUse());
}

TEST_F(MvqiCorruptionTest, TruncatedHeader)
{
    const auto img = validImage();
    writeBytes({img.begin(), img.begin() + 17});
    expectFatal("truncated");
}

TEST_F(MvqiCorruptionTest, TruncatedBody)
{
    const auto img = validImage();
    writeBytes({img.begin(), img.begin() + img.size() / 2});
    // The header's file_bytes no longer matches the actual size.
    expectFatal("size mismatch");
}

TEST_F(MvqiCorruptionTest, BadMagic)
{
    patchU32(0, 0xDEADBEEFu);
    // openArtifact cannot route an unknown magic to either backend.
    expectFatal("unknown model file magic");
}

TEST_F(MvqiCorruptionTest, WrongVersion)
{
    patchU32(4, io::kMvqiVersion + 7);
    expectFatal("unsupported MVQI version");
}

TEST_F(MvqiCorruptionTest, MisalignedSection)
{
    // Header offset 24 is codebook_toc_off; knock it off 64-byte
    // alignment.
    const auto img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    patchU64(24, h.codebook_toc_off + 8);
    expectFatal("misaligned");
}

TEST_F(MvqiCorruptionTest, OutOfRangeToc)
{
    patchU64(32, 1ull << 40); // layer_toc_off far past EOF
    expectFatal("beyond the end");
}

TEST_F(MvqiCorruptionTest, HugeCountOverflowsSafely)
{
    // n_layers close to UINT32_MAX: the count x 200-byte TOC entry
    // computation must not overflow into an in-range value.
    patchU32(20, 0xFFFFFFF0u);
    expectFatal("extends past the end");
}

TEST_F(MvqiCorruptionTest, FileSizeFieldMismatch)
{
    patchU64(40, 123u);
    expectFatal("size mismatch");
}

TEST_F(MvqiCorruptionTest, SemanticOperandCorruption)
{
    // Flip a col_idx of layer 0's operand out of range: structural
    // bounds still pass, so this must be caught by the O(nnz) semantic
    // validation (validateSparseOperand) and rewrapped as a FatalError
    // naming the file — the line that keeps the kernels in bounds.
    std::vector<std::uint8_t> img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    io::MvqiLayer L;
    std::memcpy(&L, img.data() + h.layer_toc_off, sizeof(L));
    io::MvqiOperand op;
    std::memcpy(&op, img.data() + L.operands_off, sizeof(op));
    ASSERT_GT(op.col_idx.count, 0);
    const std::int32_t bogus = static_cast<std::int32_t>(op.cols) + 99;
    std::memcpy(img.data() + op.col_idx.off, &bogus, sizeof(bogus));
    writeBytes(img);
    expectFatal("corrupt MVQI operand");
}

TEST_F(MvqiCorruptionTest, OperandGeometryMustMatchItsLayer)
{
    // Widen layer 0's operand by 16 columns. Its CSR stays valid (every
    // column index is still in range), so only a check against the
    // layer's shape can tell: opening the image and borrowing every
    // operand must fail before any conv is built over them.
    const std::vector<std::uint8_t> img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    io::MvqiLayer L;
    std::memcpy(&L, img.data() + h.layer_toc_off, sizeof(L));
    io::MvqiOperand op;
    std::memcpy(&op, img.data() + L.operands_off, sizeof(op));
    ASSERT_EQ(op.cols, L.shape[1] * L.shape[2] * L.shape[3]);
    patchU64(L.operands_off + offsetof(io::MvqiOperand, cols),
             static_cast<std::uint64_t>(op.cols + 16));
    try {
        const auto art = io::openArtifact(kPath);
        for (std::int64_t i = 0; i < art->layerCount(); ++i)
            (void)art->packedOperands(i);
        FAIL() << "an operand wider than its layer loaded";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(kPath), std::string::npos) << msg;
        EXPECT_NE(msg.find("layer 0 ('conv0') operand 0"), std::string::npos)
            << msg;
    }
}

TEST_F(MvqiCorruptionTest, OpenFaultSiteFailsCleanlyOnValidImage)
{
    // The artifact.open fault site models the OS refusing the mmap (ENOMEM,
    // EMFILE, a vanished file): even with a perfectly valid image on disk
    // the open must fail as a diagnosed FatalError, and the failure must
    // not stick to the path — the next open serves normally.
    writeBytes(validImage());
    fault::arm(fault::kArtifactOpen,
               {/*nth=*/1, /*every=*/0, fault::FaultMode::Error});
    expectFatal("injected fault at artifact.open");
    EXPECT_NO_THROW(loadAndUse());
}

TEST_F(MvqiCorruptionTest, TruncatedThenMmapThroughFaultSite)
{
    // A file that shrinks while being served: the first open dies at the
    // fault site (the "truncated under us" OS-level failure), and a real
    // truncated image behind it still fails structural validation after
    // the mmap succeeds. Both failures must be clean FatalErrors — the
    // mmap path may never SIGBUS or read past its mapping.
    const auto img = validImage();
    writeBytes({img.begin(), img.begin() + img.size() / 2});
    fault::arm(fault::kArtifactOpen,
               {/*nth=*/1, /*every=*/0, fault::FaultMode::Error});
    expectFatal("injected fault at artifact.open");
    expectFatal("size mismatch");

    // Same double failure for the borrow path on an intact image: the
    // injected borrow error surfaces, then the retry works.
    writeBytes(img);
    fault::arm(fault::kOperandBorrow,
               {/*nth=*/1, /*every=*/0, fault::FaultMode::Error});
    expectFatal("injected fault at artifact.operand_borrow");
    EXPECT_NO_THROW(loadAndUse());
}

TEST_F(MvqiCorruptionTest, DeterministicByteFlipSweep)
{
    // Fuzz-style negative corpus: XOR one byte at a stride of positions
    // across the whole image. Every mutant must either load + forward
    // cleanly (flips in float payloads, names, or padding are benign) or
    // fail with FatalError. Anything else — crash, PanicError, UB under
    // the sanitizer job — is a firewall bug.
    const std::vector<std::uint8_t> img = validImage();
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (std::size_t off = 0; off < img.size(); off += 37) {
        std::vector<std::uint8_t> mutant = img;
        mutant[off] ^= 0xA5u;
        writeBytes(mutant);
        try {
            loadAndUse();
            ++loaded;
        } catch (const FatalError &) {
            ++rejected;
        }
        // No other exception type may escape; PanicError or a signal
        // here fails the test (and trips ASan/UBSan in the sanitize job).
    }
    // The sweep must have exercised both outcomes.
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace mvq::core
