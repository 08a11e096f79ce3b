/**
 * @file
 * MVQI corruption corpus: every malformed image must fail with a clear
 * FatalError (or, for benign payload flips, load correctly) — never
 * undefined behaviour, never a crash, never an escaped PanicError. The
 * targeted cases pin one diagnostic each (truncation, bad magic, wrong
 * version, misaligned section, out-of-range TOC, inconsistent counts,
 * an embedded operand whose geometry, offsets or counts disagree with
 * its layer or the image, conv groups that do not divide the output
 * channels, semantically corrupt operands); the deterministic byte-flip
 * sweep is the fuzz-style pass the ASan/UBSan CI job runs over.
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
#include "sim/weight_loader.hpp"
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
        const std::int64_t groups = art->layerGroups(i);
        const Shape ws = art->layerShape(i);
        nn::CompressedConv2d conv(art->layerName(i), ws,
                                  art->packedOperands(i, groups), 1, 0,
                                  groups);
        Tensor x(Shape({1, ws.dim(1) * groups, 5, 5}));
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
    // check when the operand is borrowed (SparseRowMatrix::borrow) and
    // rewrapped as a FatalError naming the file — the line that keeps
    // the kernels in bounds.
    std::vector<std::uint8_t> img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    io::MvqiLayer L;
    std::memcpy(&L, img.data() + h.layer_toc_off, sizeof(L));
    const io::MvqiOperand &op = L.operand;
    ASSERT_GT(op.col_idx.count, 0);
    const std::int32_t bogus = static_cast<std::int32_t>(op.cols) + 99;
    std::memcpy(img.data() + op.col_idx.off, &bogus, sizeof(bogus));
    writeBytes(img);
    expectFatal("corrupt MVQI operand");
}

TEST_F(MvqiCorruptionTest, OutOfRangeAssignmentFailsEveryDecoder)
{
    // The forward serves the packed operand and never reads the stored
    // assignments, so an image with one out of range still loads. Every
    // consumer that decodes them — the model's reconstruction and the
    // accelerator sim's weight loader — must refuse it with a FatalError
    // instead of reading past the codebook.
    const std::vector<std::uint8_t> img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    io::MvqiLayer L;
    std::memcpy(&L, img.data() + h.layer_toc_off, sizeof(L));
    io::MvqiCodebook cb;
    std::memcpy(&cb,
                img.data() + h.codebook_toc_off
                    + static_cast<std::size_t>(L.codebook_id) * sizeof(cb),
                sizeof(cb));
    ASSERT_GT(L.assignments.count, 0);
    for (const std::int64_t bogus : {cb.k, std::int64_t{1000000000},
                                     std::int64_t{-1}}) {
        SCOPED_TRACE(bogus);
        patchU32(L.assignments.off, static_cast<std::uint32_t>(bogus));
        EXPECT_NO_THROW(loadAndUse());
        const auto art = io::openArtifact(kPath);
        sim::Counters counters;
        EXPECT_THROW(sim::decodeCompressedLayer(sim::AccelConfig{}, *art, 0,
                                                counters),
                     FatalError);
        EXPECT_THROW(art->model().reconstructLayer(0), FatalError);
    }
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
    ASSERT_EQ(L.operand.cols, L.shape[1] * L.shape[2] * L.shape[3]);
    patchU64(h.layer_toc_off + offsetof(io::MvqiLayer, operand)
                 + offsetof(io::MvqiOperand, cols),
             static_cast<std::uint64_t>(L.operand.cols + 16));
    try {
        const auto art = io::openArtifact(kPath);
        for (std::int64_t i = 0; i < art->layerCount(); ++i)
            (void)art->packedOperands(i);
        FAIL() << "an operand wider than its layer loaded";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(kPath), std::string::npos) << msg;
        EXPECT_NE(msg.find("layer 0 ('conv0') operand is 16x24"),
                  std::string::npos)
            << msg;
    }
}

TEST_F(MvqiCorruptionTest, EmbeddedOperandFieldsAreChecked)
{
    // Each field of layer 0's embedded operand, and the layer's conv
    // groups, patched to a value the image cannot back: every one must
    // fail with its own FatalError before any kernel reads the operand.
    const std::vector<std::uint8_t> img = validImage();
    io::MvqiHeader h;
    std::memcpy(&h, img.data(), sizeof(h));
    io::MvqiLayer L;
    std::memcpy(&L, img.data() + h.layer_toc_off, sizeof(L));
    const io::MvqiOperand &op = L.operand;
    const std::size_t base = h.layer_toc_off + offsetof(io::MvqiLayer, operand);
    auto at = [&](std::size_t array_field, std::size_t member) {
        return base + array_field + member;
    };
    const std::size_t off = offsetof(io::MvqiArray, off);
    const std::size_t count = offsetof(io::MvqiArray, count);
    const std::size_t rp = offsetof(io::MvqiOperand, row_ptr);
    const std::size_t ci = offsetof(io::MvqiOperand, col_idx);
    const std::size_t va = offsetof(io::MvqiOperand, values);
    struct Case
    {
        const char *what;
        std::size_t where;
        std::int64_t value;
        const char *needle;
    };
    const auto nnz = op.col_idx.count;
    const auto far = std::int64_t{1} << 40;
    const Case cases[] = {
        {"rows + 1", base + offsetof(io::MvqiOperand, rows), op.rows + 1,
         "operand is 17x8"},
        {"rows - 1", base + offsetof(io::MvqiOperand, rows), op.rows - 1,
         "operand is 15x8"},
        {"cols - 1", base + offsetof(io::MvqiOperand, cols), op.cols - 1,
         "operand is 16x7"},
        {"row_ptr misaligned", at(rp, off),
         static_cast<std::int64_t>(op.row_ptr.off) + 8, "misaligned row_ptr"},
        {"row_ptr past the end", at(rp, off), far, "beyond the end"},
        {"row_ptr count", at(rp, count), op.rows + 2, "row_ptr count 18"},
        {"row_ptr huge count", at(rp, count), far, "extends past the end"},
        {"col_idx misaligned", at(ci, off),
         static_cast<std::int64_t>(op.col_idx.off) + 4, "misaligned col_idx"},
        {"col_idx past the end", at(ci, off), far, "beyond the end"},
        {"col_idx count", at(ci, count), nnz + 1, "count mismatch"},
        {"col_idx negative count", at(ci, count), -1, "negative col_idx"},
        {"values misaligned", at(va, off),
         static_cast<std::int64_t>(op.values.off) + 32, "misaligned values"},
        {"values past the end", at(va, off), far, "beyond the end"},
        {"values count", at(va, count), nnz - 1, "count mismatch"},
        {"groups 3", h.layer_toc_off + offsetof(io::MvqiLayer, groups), 3,
         "invalid conv groups 3"},
        {"groups 0", h.layer_toc_off + offsetof(io::MvqiLayer, groups), 0,
         "invalid conv groups 0"},
        {"groups -2", h.layer_toc_off + offsetof(io::MvqiLayer, groups), -2,
         "invalid conv groups -2"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        if (c.where == h.layer_toc_off + offsetof(io::MvqiLayer, groups))
            patchU32(c.where, static_cast<std::uint32_t>(c.value));
        else
            patchU64(c.where, static_cast<std::uint64_t>(c.value));
        expectFatal(c.needle);
    }

    // Both counts one short: every structural check passes, and the
    // borrow's semantic validation finds row_ptr overrunning the entries.
    std::vector<std::uint8_t> short_img = img;
    const std::int64_t fewer = nnz - 1;
    std::memcpy(short_img.data() + at(ci, count), &fewer, sizeof(fewer));
    std::memcpy(short_img.data() + at(va, count), &fewer, sizeof(fewer));
    writeBytes(short_img);
    expectFatal("corrupt MVQI operand (layer 'conv0')");
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
