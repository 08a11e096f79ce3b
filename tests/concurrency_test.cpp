/**
 * @file
 * Hammer tests for the racy-by-design surfaces the serving runtime will
 * put under concurrent load: first-touch SIMD dispatch resolution,
 * first-touch env-knob reads, the per-layer packed-operand cache of
 * artifacts opened from either file format, shared-operand
 * forward passes, and concurrent external callers of the thread pool.
 * Every test asserts a functional property (one cache entry,
 * bit-identical outputs, correct sums); the TSan tier
 * (MVQ_SANITIZE=thread, see docs/TOOLING.md) is what turns the hammering
 * itself into a race detector. Tests are declared in
 * first-touch order: the dispatch and knob tests must run before anything
 * else in this binary resolves them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/simd_dispatch.hpp"
#include "core/io/model_artifact.hpp"
#include "mvqi_test_util.hpp"
#include "nn/compressed_conv2d.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

/** Threads used by each hammer (on top of whatever MVQ_NUM_THREADS the
 *  pool itself runs with — external callers, not pool workers). */
constexpr int kHammerThreads = 8;

/** Launch `n` copies of fn(thread_index) and join them all. */
void
hammer(int n, const std::function<void(int)> &fn)
{
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t)
        threads.emplace_back([&fn, t] { fn(t); });
    for (auto &th : threads)
        th.join();
}

bool
tensorsBitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
        && std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float))
            == 0;
}

// Declared first on purpose: within this binary these are the genuine
// first touches of the dispatch table and the knob caches, so N threads
// really do race the lazy initialization TSan is watching.

TEST(Concurrency, FirstTouchSimdDispatchResolvesOnce)
{
    std::vector<const simd::Kernels *> seen(kHammerThreads, nullptr);
    hammer(kHammerThreads, [&](int t) {
        for (int i = 0; i < 64; ++i) {
            const simd::Kernels &k = simd::kernels();
            if (i == 0)
                seen[static_cast<std::size_t>(t)] = &k;
            ASSERT_EQ(&k, seen[static_cast<std::size_t>(t)]);
        }
    });
    for (int t = 1; t < kHammerThreads; ++t)
        EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(t)]);
    EXPECT_NE(seen[0], nullptr);
}

TEST(Concurrency, FirstTouchKnobReadsAgreeAcrossThreads)
{
    // Each thread resolves every knob repeatedly; the registry caches the
    // first read, so all threads must observe identical values even when
    // they race the very first resolution.
    std::vector<std::int64_t> nthreads(kHammerThreads, -1);
    std::vector<std::string> simd_str(kHammerThreads);
    hammer(kHammerThreads, [&](int t) {
        for (int i = 0; i < 64; ++i) {
            const std::int64_t n = env::int_("MVQ_NUM_THREADS", 0);
            const std::string s = env::str("MVQ_SIMD", "");
            if (i == 0) {
                nthreads[static_cast<std::size_t>(t)] = n;
                simd_str[static_cast<std::size_t>(t)] = s;
            }
            ASSERT_EQ(n, nthreads[static_cast<std::size_t>(t)]);
            ASSERT_EQ(s, simd_str[static_cast<std::size_t>(t)]);
        }
    });
    for (int t = 1; t < kHammerThreads; ++t) {
        EXPECT_EQ(nthreads[0], nthreads[static_cast<std::size_t>(t)]);
        EXPECT_EQ(simd_str[0], simd_str[static_cast<std::size_t>(t)]);
    }
}

class ConcurrencyArtifactTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        model_ = makeGoldenModel();
        stream_path_ = "/tmp/mvq_concurrency_test.mvq";
        image_path_ = "/tmp/mvq_concurrency_test.mvqi";
        io::saveArtifact(model_, stream_path_, io::ArtifactFormat::Stream);
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

TEST_F(ConcurrencyArtifactTest, PackedOperandsCacheHitsShareOneEntry)
{
    // A mapped image and a stream served from its in-memory image go
    // through the same cache. Each layer gets its own fresh artifact, so
    // the threads race that layer's first touch; they ask for it at
    // different group counts (0, 1 and the recorded one), which all name
    // the layer's one cache entry.
    for (const std::string &path : {image_path_, stream_path_}) {
        for (std::int64_t l = 0;
             l < static_cast<std::int64_t>(model_.layers.size()); ++l) {
            const auto art = io::openArtifact(path);
            const std::int64_t groups[] = {0, 1, art->layerGroups(l)};
            // [thread] -> the operand that thread observed first.
            std::vector<io::SharedOperands> seen(
                static_cast<std::size_t>(kHammerThreads));
            hammer(kHammerThreads, [&](int t) {
                auto &mine = seen[static_cast<std::size_t>(t)];
                for (int i = 0; i < 32; ++i) {
                    io::SharedOperands ops =
                        art->packedOperands(l, groups[(t + i) % 3]);
                    ASSERT_NE(ops.get(), nullptr);
                    if (i == 0)
                        mine = ops;
                    // Cache coherence: every hit on the layer returns the
                    // one entry built by whichever thread won the first
                    // touch.
                    ASSERT_EQ(ops.get(), mine.get());
                }
            });
            for (int t = 1; t < kHammerThreads; ++t)
                EXPECT_EQ(seen[0].get(),
                          seen[static_cast<std::size_t>(t)].get())
                    << path << " layer " << l;
        }
    }
}

TEST_F(ConcurrencyArtifactTest, ConcurrentModelMaterializationIsStable)
{
    const auto art = io::openArtifact(image_path_);
    std::vector<const CompressedModel *> seen(
        static_cast<std::size_t>(kHammerThreads), nullptr);
    hammer(kHammerThreads, [&](int t) {
        const CompressedModel &m = art->model();
        seen[static_cast<std::size_t>(t)] = &m;
        ASSERT_EQ(m.layers.size(), model_.layers.size());
    });
    for (int t = 1; t < kHammerThreads; ++t)
        EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(t)]);
}

TEST_F(ConcurrencyArtifactTest, SharedOperandForwardsAreBitIdentical)
{
    const auto art = io::openArtifact(image_path_);
    const Shape ws = art->layerShape(0);
    const nn::CompressedConv2d conv(art->layerName(0), ws,
                                    art->packedOperands(0), 1, 1);
    Tensor x(Shape({2, ws.dim(1), 6, 6}));
    Rng rng(1234);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Tensor ref = conv.forward(x);
    // N serving threads share one conv instance (and thus one injected
    // operand set); forward is const and must stay bit-identical no
    // matter how the calls interleave.
    hammer(kHammerThreads, [&](int) {
        for (int i = 0; i < 4; ++i) {
            const Tensor got = conv.forward(x);
            ASSERT_TRUE(tensorsBitIdentical(ref, got));
        }
    });
}

TEST_F(ConcurrencyArtifactTest, ConcurrentOpensOfOneImageAgree)
{
    // Reference through a serially opened artifact.
    const auto ref_art = io::openArtifact(image_path_);
    const Shape ws = ref_art->layerShape(0);
    Tensor x(Shape({1, ws.dim(1), 5, 5}));
    Rng rng(77);
    x.fillNormal(rng, 0.0f, 1.0f);
    const nn::CompressedConv2d ref_conv(ref_art->layerName(0), ws,
                                        ref_art->packedOperands(0), 1, 1);
    const Tensor ref = ref_conv.forward(x);
    hammer(kHammerThreads, [&](int) {
        const auto art = io::openArtifact(image_path_);
        const nn::CompressedConv2d conv(art->layerName(0),
                                        art->layerShape(0),
                                        art->packedOperands(0), 1, 1);
        const Tensor got = conv.forward(x);
        ASSERT_TRUE(tensorsBitIdentical(ref, got));
    });
}

TEST(Concurrency, ExternalParallelForCallersSerializeSafely)
{
    // Serving threads are *callers* of the shared pool, not workers in
    // it; concurrent run() calls must queue up without corrupting each
    // other's chunk counters.
    constexpr std::int64_t kN = 4096;
    std::vector<std::int64_t> sums(
        static_cast<std::size_t>(kHammerThreads), 0);
    hammer(kHammerThreads, [&](int t) {
        for (int rep = 0; rep < 8; ++rep) {
            std::vector<std::int64_t> partial(
                static_cast<std::size_t>(chunkCount(0, kN, 64)), 0);
            parallelForChunks(
                0, kN, 64,
                [&partial](std::int64_t c, std::int64_t b, std::int64_t e) {
                    std::int64_t s = 0;
                    for (std::int64_t i = b; i < e; ++i)
                        s += i;
                    partial[static_cast<std::size_t>(c)] = s;
                });
            std::int64_t total = 0;
            for (std::int64_t s : partial)
                total += s;
            ASSERT_EQ(total, kN * (kN - 1) / 2);
            sums[static_cast<std::size_t>(t)] = total;
        }
    });
    for (int t = 0; t < kHammerThreads; ++t)
        EXPECT_EQ(sums[static_cast<std::size_t>(t)], kN * (kN - 1) / 2);
}

} // namespace
} // namespace mvq::core
